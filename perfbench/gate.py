"""Correctness gate: engine outputs against the exhaustive ``BM25Oracle``.

A top-k result passes only with the oracle's exact docids, bit-equal float64
scores and its (score desc, docid asc) order. Aggregation outputs are checked
against the oracle's full match sets joined to the corpus columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from remote_vector_index_builder_ray.oracle import BM25Oracle


class LiveOracle:
    """The oracle over an index state: ``docs`` (docid, text, ...) are the
    documents the engine's corpus statistics count, and ``hidden`` the
    tombstoned docids that still count in those statistics but never appear
    in results (Lucene's numDocs-vs-maxDoc semantics)."""

    def __init__(self, docs: pd.DataFrame, hidden=()):
        self.hidden = set(int(d) for d in hidden)
        self.oracle = BM25Oracle(docs["docid"].to_numpy(), docs["text"].tolist())
        self.docs = docs.set_index("docid", drop=False)
        self.docs["doc_len"] = [self.oracle.doc_len[int(d)] for d in docs["docid"]]
        self._memo: dict[str, dict[int, float]] = {}

    def matches(self, text: str) -> dict[int, float]:
        got = self._memo.get(text)
        if got is None:
            scores = self.oracle.score_query(text)
            got = {d: s for d, s in scores.items() if d not in self.hidden}
            self._memo[text] = got
        return got

    def topk(self, text: str, k: int) -> list[tuple[int, float]]:
        items = sorted(self.matches(text).items(), key=lambda kv: (-kv[1], kv[0]))
        return items[:k]


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def topk_matches(oracle: LiveOracle, text: str, k: int, rows) -> bool:
    """``rows``: the engine's (docid, score) pairs for one query, rank order."""
    want = oracle.topk(text, k)
    got = [(int(d), float(s)) for d, s in rows]
    return len(got) == len(want) and all(
        gd == wd and _bits(gs) == _bits(ws) for (gd, gs), (wd, ws) in zip(got, want))


def check_topk(oracle: LiveOracle, queries: pd.DataFrame, results: pd.DataFrame) -> int:
    """Number of queries in ``queries`` whose results mismatch the oracle."""
    by_q = {qid: g.sort_values("rank") for qid, g in results.groupby("query_id")}
    bad = 0
    for q in queries.itertuples(index=False):
        g = by_q.get(int(q.query_id))
        rows = [] if g is None else zip(g["docid"], g["score"])
        bad += not topk_matches(oracle, q.text, int(q.k), rows)
    return bad


def _match_frame(oracle: LiveOracle, queries: pd.DataFrame) -> pd.DataFrame:
    parts = []
    for q in queries.itertuples(index=False):
        ids = np.fromiter(oracle.matches(q.text), dtype=np.int64)
        parts.append(pd.DataFrame({"query_id": np.full(len(ids), q.query_id, dtype=np.int64),
                                   "docid": ids}))
    m = pd.concat(parts, ignore_index=True)
    return m.join(oracle.docs.drop(columns="docid"), on="docid")


def check_match_count(oracle, queries, out: pd.DataFrame) -> int:
    want = {int(q.query_id): len(oracle.matches(q.text)) for q in queries.itertuples()}
    got = dict(zip(out["query_id"].astype(int), out["total_hits"].astype(int)))
    return sum(got.get(qid) != n for qid, n in want.items())


def _check_buckets(want: pd.DataFrame, out: pd.DataFrame, queries) -> int:
    def per_query(df):
        return {int(qid): sorted(zip(g["key"], g["n_docs"].astype(int)))
                for qid, g in df.groupby("query_id")}

    w, g = per_query(want), per_query(out)
    return sum(w.get(int(q)) != g.get(int(q)) for q in queries["query_id"])


def check_terms_agg(oracle, queries, out: pd.DataFrame, field: str = "role") -> int:
    m = _match_frame(oracle, queries)
    want = m.groupby(["query_id", field]).size().rename("n_docs").reset_index()
    return _check_buckets(want.rename(columns={field: "key"}), out, queries)


def check_date_histogram(oracle, queries, out: pd.DataFrame) -> int:
    m = _match_frame(oracle, queries)
    m["key"] = m["ts"].dt.floor("D")
    want = m.groupby(["query_id", "key"]).size().rename("n_docs").reset_index()
    out = out.assign(key=pd.to_datetime(out["key"]))
    return _check_buckets(want, out, queries)


def check_stats_agg(oracle, queries, out: pd.DataFrame) -> int:
    m = _match_frame(oracle, queries)
    want = m.groupby("query_id")["doc_len"].agg(["size", "sum", "min", "max"])
    got = out.set_index("query_id")
    bad = 0
    for qid in queries["query_id"].astype(int):
        if qid not in want.index:
            bad += qid in got.index and int(got.loc[qid, "n_docs"]) != 0
            continue
        w, g = want.loc[qid], got.loc[qid] if qid in got.index else None
        bad += g is None or [int(g["n_docs"]), int(g["sum_doc_len"]), int(g["min_doc_len"]),
                             int(g["max_doc_len"])] != [int(w["size"]), int(w["sum"]),
                                                        int(w["min"]), int(w["max"])]
    return bad


def corrupt(x):
    """A deliberately wrong copy of an engine output: the best hit's score
    moves by one ulp, or a phantom hit appears where there was none."""
    if isinstance(x, dict):
        return {k: corrupt(v) if k == "bmw" else v for k, v in x.items()}
    if isinstance(x, pd.DataFrame):
        x = x.copy()
        if len(x):
            x.loc[x.index[0], "score"] = np.nextafter(x["score"].iloc[0], np.inf)
        return x
    rows = list(x)
    if not rows:
        return [(0, 1.0)]
    (d, s), rest = rows[0], rows[1:]
    return [(d, float(np.nextafter(s, np.inf)))] + rest
