"""The mode capability table (stages/search.MODES) and its one validator.

Every (mode, column) and (mode, option) pair the table does not list is
rejected on the driver with a ValueError naming it, for every query input
type; an unknown mode is rejected everywhere; and over the table's legal
option combinations bmw stays bit-identical to the exhaustive scorer."""

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from remote_vector_index_builder_ray import search
from remote_vector_index_builder_ray.stages.search import (
    MODES,
    BM25Searcher,
    searcher_defaults,
    validate,
)

_COLUMNS = sorted(set().union(*(r.columns for r in MODES.values())))
_KWARGS = sorted(set().union(*(r.kwargs for r in MODES.values())))

# one plausible value per optional column / a non-default value per option
_COLUMN_VALUES = {
    "terms": ["x"], "weights": [1.0], "groups": [["x"]], "explain_docids": [0],
    "after_score": 1.0, "after_docid": 0, "exclude_text": "x",
    "filter_text": "x", "allow_docids": [0], "negative_text": "x",
    "slice_id": 0, "slice_max": 2, "slop": 1, "span_end": 2,
    "span_exclude": "x", "span_little": "x", "max_gaps": 1,
}
_KWARG_VALUES = {
    "operator": "and", "min_should_match": 2, "tie_breaker": 0.3,
    "collapse_round6": True, "collapse_inner": 2, "negative_boost": 0.3,
    "unit_idf": True, "span_pre": 2, "span_post": 2, "msm_script": "v",
    "similarity": "classic", "stats_override": (10, 100),
    "df_override": {"x": 1},
}

_FORBIDDEN = [(m, c) for m, r in MODES.items() for c in _COLUMNS
              if c not in r.columns] + \
             [(m, k) for m, r in MODES.items() for k in _KWARGS
              if k not in r.kwargs]


def _frame(mode: str, extra=()) -> pd.DataFrame:
    """A one-query frame carrying the mode's required columns plus
    ``extra``."""
    row = MODES[mode]
    cols = {"query_id": [0], "text": ["x"], "k": [10]}
    for c in sorted(set(row.requires & set(_COLUMN_VALUES)) | set(extra)):
        cols[c] = [_COLUMN_VALUES[c]]
    return pd.DataFrame(cols)


def _required_kwargs(mode: str) -> dict:
    return {k: _KWARG_VALUES[k] for k in MODES[mode].requires
            if k in _KWARG_VALUES}


def test_tables_cover_every_name():
    assert set(_COLUMN_VALUES) == set(_COLUMNS)
    assert set(_KWARG_VALUES) == set(_KWARGS)
    defaults = searcher_defaults()
    assert all(_KWARG_VALUES[k] != defaults[k] for k in _KWARGS)


@pytest.mark.parametrize("mode,name", _FORBIDDEN,
                         ids=[f"{m}-{n}" for m, n in _FORBIDDEN])
def test_forbidden_pair_rejected_on_driver(mode, name):
    """The driver rejects the pair before touching the index (the path
    does not exist), naming the offending column or option."""
    kw = _required_kwargs(mode)
    if name in _COLUMN_VALUES:
        q = _frame(mode, [name])
    else:
        q = _frame(mode)
        kw[name] = _KWARG_VALUES[name]
    with pytest.raises(ValueError, match=rf"^{name}\b.* not supported in "
                                         rf"{mode} mode"):
        search("/nonexistent/index", q, mode=mode, **kw)


@pytest.mark.parametrize("mode", ["bmww", "wand", "", "explain "])
def test_unknown_mode_fails_on_driver(smoke_index, smoke_fixture, mode):
    q = pd.read_parquet(smoke_fixture["queries"]).head(2)
    with pytest.raises(ValueError, match="unknown mode"):
        search(smoke_index["index_dir"], q, mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        BM25Searcher(smoke_index["index_dir"], mode)


def test_unserved_mode_is_unknown_to_the_service():
    for mode, row in MODES.items():
        if row.served:
            assert validate(mode, columns=_frame(mode).columns,
                            served=True) is row
        else:
            with pytest.raises(ValueError, match="unknown mode"):
                validate(mode, served=True)


def test_arrow_and_parquet_inputs_checked_on_driver(smoke_index, smoke_fixture,
                                                    tmp_path):
    """pa.Table and parquet-path inputs fail in search() itself, not later
    as an opaque task error when the result is consumed."""
    q = pd.read_parquet(smoke_fixture["queries"]).head(3)
    q["negative_text"] = "the"
    with pytest.raises(ValueError, match="negative_text"):
        search(smoke_index["index_dir"],
               pa.Table.from_pandas(q, preserve_index=False), mode="bmw")
    path = str(tmp_path / "q.parquet")
    q.to_parquet(path)
    with pytest.raises(ValueError, match="negative_text"):
        search(smoke_index["index_dir"], path, mode="bmw")
    # the same input is legal where the table allows it
    res = search(smoke_index["index_dir"], path, mode="exhaustive").to_pandas()
    assert len(res) > 0


def test_searcher_checks_every_batch(smoke_index, smoke_fixture):
    """The searcher's own check: BM25Searcher validates each batch's
    columns against its mode's row."""
    q = pd.read_parquet(smoke_fixture["queries"]).head(2)
    s = BM25Searcher(smoke_index["index_dir"], "dismax")
    assert s(pa.Table.from_pandas(q, preserve_index=False)).num_rows > 0
    bad = q.assign(exclude_text="the")
    with pytest.raises(ValueError, match="exclude_text"):
        s(pa.Table.from_pandas(bad, preserve_index=False))
    with pytest.raises(ValueError, match="operator"):
        BM25Searcher(smoke_index["index_dir"], "dismax", operator="and")


def test_scroll_rejects_dismax(smoke_index, smoke_fixture):
    """dismax does not read search_after cursors, so scroll over it fails
    instead of returning page 1 on every page."""
    from remote_vector_index_builder_ray.pipelines.query import scroll

    q = pd.read_parquet(smoke_fixture["queries"]).head(3)
    with pytest.raises(ValueError, match="after_"):
        scroll(smoke_index["index_dir"], q, page_size=5, n_pages=3,
               mode="dismax")


# -- differential: bmw == exhaustive over the table's legal combinations ----

_OPTIONAL = ("after", "exclude_text", "filter_text", "allow_docids")
_COMBOS = [c for n in range(len(_OPTIONAL) + 1)
           for c in combinations(_OPTIONAL, n)]


def _columns(combo) -> list[str]:
    return [c for name in combo
            for c in (("after_score", "after_docid") if name == "after"
                      else (name,))]


_LEGAL = []
for _combo in _COMBOS:
    try:
        validate("bmw", _columns(_combo))
        validate("exhaustive", _columns(_combo))
    except ValueError:
        continue
    _LEGAL.append(_combo)


def _edge_queries(smoke_fixture, seed: int = 7):
    """Seeded edge cases: empty text, all-absent terms, duplicate terms,
    k=1, k far above any match count, and random common/rare mixes."""
    rng = np.random.default_rng(seed)
    docs = pd.concat(pd.read_parquet(p) for p in smoke_fixture["transcripts"])
    vocab = sorted({t for x in docs["text"].head(500) for t in str(x).lower().split()
                    if t.isalnum()})
    texts = ["", "zz_absent_one qq_absent_two", f"{vocab[3]} {vocab[3]} {vocab[3]}",
             "the the of", "the", vocab[-1]]
    ks = [10, 10, 10, 1, 1_000_000, 5]
    for _ in range(14):
        words = rng.choice(vocab, size=int(rng.integers(1, 5)))
        texts.append(" ".join(["the"] * int(rng.integers(0, 2)) + list(words)))
        ks.append(int(rng.choice([1, 3, 10, 100_000])))
    n = len(texts)
    return pa.table({
        "query_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "k": pa.array(ks, pa.int32()),
    }), vocab, rng


def _with_options(base: pa.Table, combo, vocab, rng, cursor_src) -> pa.Table:
    n = base.num_rows
    t = base
    if "after" in combo:
        # cursors at page edges of the exhaustive ranking, some null
        sc, dc = [], []
        for qid in range(n):
            hits = cursor_src[cursor_src["query_id"] == qid]
            if len(hits) == 0 or qid % 4 == 0:
                sc.append(None)
                dc.append(None)
                continue
            r = int(rng.integers(0, len(hits)))
            sc.append(float(hits["score"].iloc[r]))
            dc.append(int(hits["docid"].iloc[r]))
        t = t.append_column("after_score", pa.array(sc, pa.float64()))
        t = t.append_column("after_docid", pa.array(dc, pa.int64()))
    texts = base["text"].to_pylist()
    if "exclude_text" in combo:
        # none / a random term / one of the query's own terms
        t = t.append_column("exclude_text", pa.array(
            ["", str(rng.choice(vocab)), (texts[i].split() or [""])[-1]][i % 3]
            for i in range(n)))
    if "filter_text" in combo:
        # all-absent / broad (a stopword) / narrow
        t = t.append_column("filter_text", pa.array(
            "zz_absent" if i % 5 == 0
            else f"the {rng.choice(vocab)}" if i % 5 < 3
            else " ".join(rng.choice(vocab, size=3)) for i in range(n)))
    if "allow_docids" in combo:
        lists = []
        for i in range(n):
            if i % 6 == 0:
                lists.append(None)  # unrestricted
            elif i % 6 == 1:
                lists.append([])    # matches nothing
            else:
                lists.append(sorted(rng.choice(2000, size=600, replace=False)
                                    .tolist()))
        t = t.append_column("allow_docids", pa.array(lists, pa.list_(pa.int64())))
    return t


@pytest.mark.parametrize("combo", _LEGAL,
                         ids=["+".join(c) or "plain" for c in _LEGAL])
def test_bmw_equals_exhaustive_over_legal_combinations(smoke_index,
                                                       smoke_fixture, combo):
    base, vocab, rng = _edge_queries(smoke_fixture)
    idx = smoke_index["index_dir"]
    exh, bmw = BM25Searcher(idx, "exhaustive"), BM25Searcher(idx, "bmw")
    cursor_src = exh(base).to_pandas()
    q = _with_options(base, combo, vocab, rng, cursor_src)
    want = exh(q).to_pandas()
    got = bmw(q).to_pandas()
    assert got["query_id"].tolist() == want["query_id"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()
    np.testing.assert_array_equal(got["docid"].to_numpy(), want["docid"].to_numpy())
    np.testing.assert_array_equal(got["score"].to_numpy(), want["score"].to_numpy())
    assert got["score"].dtype == np.float64


def test_legal_combinations_come_from_the_table():
    # filter_text and allow_docids are mutually exclusive: 16 - 4 subsets
    assert len(_LEGAL) == 12
