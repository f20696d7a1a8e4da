"""Sharded small-world graph ANN — the reference's graph-index family
(FAISS `IndexHNSWCagra`: GPU CAGRA build -> CPU HNSW search,
``core/common/models/index_builder/faiss/faiss_gpu_index_cagra_builder.py:207-279``
and ``faiss_index_hnsw_cagra_builder.py:64-168``) re-expressed for Ray:

* **Build** — vectors shard by ``vec_id % n_shards``; each shard builds ONE
  navigable-small-world graph inside a ``groupby(shard).map_groups`` task
  (the reference builds one CAGRA graph per index on one GPU worker; here a
  shard-graph per task, all shards in parallel — the OpenSearch
  segment-per-shard HNSW shape). Insertion is deterministic: ascending
  vec_id order, beam search over the already-built prefix, connect to the
  ``m`` nearest found, reverse edges pruned to the ``2m`` degree cap by
  similarity (ties break toward the lower id everywhere).
* **Artifact** — one parquet per shard (ids + float32 vectors + local
  neighbor lists) plus a manifest; the graph is load-once searcher state.
* **Search** — a Ray Data map over the shard files: each stateless task
  loads its shard graph ONCE (the reference's
  ``faiss.read_index``-then-many-queries searcher,
  ``benchmarking/search/search_indices.py:13-63``) and answers every
  broadcast query with the same beam; shard partials merge k-bounded at
  the driver. Measured on 1 vCPU: loading a 250-vector shard takes 13–29
  ms, below one actor start (1–2 s), so no actor pool holds a shard.

Approximate by construction — recall versus the exact brute force is gated
in pytest (and reported by ``graph_recall``), not bit-equality; the driver
entry is a rows-only check, like the other non-SQL-expressible ops.

Scale note: shards grow with the corpus while per-shard build stays
single-task (the reference's constraint too — one GPU, one graph); at 100 TB
raise ``n_shards`` so a shard's vectors fit one worker's heap, exactly how
OpenSearch sizes segments."""

from __future__ import annotations

import heapq
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from remote_vector_index_builder_ray.extras.ann import _normalize, _round6


def _beam(vecs: np.ndarray, nbrs: np.ndarray, deg: np.ndarray,
          q: np.ndarray, ef: int, n_valid: int,
          allow: np.ndarray | None = None) -> list[tuple[float, int]]:
    """Best-first beam over the graph prefix [0, n_valid): returns up to
    ``ef`` (score, id) pairs, (score desc, id asc). Deterministic — every
    heap key carries the id as tiebreak.

    ``allow`` (bool mask over node ids) is OpenSearch k-NN "efficient
    filtering": traversal EXPANDS through filtered-out nodes (connectivity
    is preserved) but only allowed nodes enter the result set; the
    candidate frontier is score-bounded by the best ADMITTED ef-th score,
    so a sparse filter widens the search rather than starving it."""
    visited = np.zeros(n_valid, dtype=bool)
    visited[0] = True
    s0 = float(vecs[0] @ q)
    cands = [(-s0, 0)]
    best: list[tuple[float, int]] = []  # min-heap by score, ADMITTED only
    if allow is None or allow[0]:
        best.append((s0, -0))
    while cands:
        neg, u = heapq.heappop(cands)
        if len(best) >= ef and -neg < best[0][0]:
            break
        nb = nbrs[u, : deg[u]]
        nb = nb[(nb >= 0) & (nb < n_valid)]
        nb = nb[~visited[nb]]
        if len(nb) == 0:
            continue
        visited[nb] = True
        ss = vecs[nb] @ q
        for s_v, v in sorted(zip(ss.tolist(), nb.tolist()), key=lambda t: (-t[0], t[1])):
            if len(best) < ef or s_v > best[0][0]:
                heapq.heappush(cands, (-s_v, int(v)))
                if allow is not None and not allow[v]:
                    continue  # expand through it, never admit it
                # result-heap ids stored NEGATED: on a score tie the
                # min-heap then evicts the HIGHER id first (deterministic,
                # keep-lower-id convention)
                heapq.heappush(best, (s_v, -int(v)))
                if len(best) > ef:
                    heapq.heappop(best)
    return sorted(((s, abs(i)) for s, i in best), key=lambda t: (-t[0], t[1]))


def _build_shard_graph(vecs: np.ndarray, m: int, ef_c: int) -> tuple[np.ndarray, np.ndarray]:
    """NSW insertion in row order; returns (neighbors int32 [n, 2m], deg)."""
    n = len(vecs)
    cap = 2 * m
    nbrs = np.full((n, cap), -1, dtype=np.int32)
    deg = np.zeros(n, dtype=np.int32)

    def connect(a: int, b: int) -> None:
        if deg[a] < cap:
            nbrs[a, deg[a]] = b
            deg[a] += 1
            return
        cur = nbrs[a, :cap]
        ss = vecs[cur] @ vecs[a]
        sb = float(vecs[b] @ vecs[a])
        # drop the weakest link (lowest similarity, tie -> higher id goes)
        order = np.lexsort((-cur, ss))
        w = order[0]
        if sb > ss[w] or (sb == ss[w] and b < cur[w]):
            nbrs[a, w] = b

    for i in range(1, n):
        found = _beam(vecs, nbrs, deg, vecs[i], ef_c, n_valid=i)
        for _, j in found[:m]:
            connect(i, j)
            connect(j, i)
    return nbrs, deg


def build_graph_index(
    ds: ray.data.Dataset,
    index_dir: str,
    n_shards: int = 4,
    m: int = 12,
    ef_construction: int = 48,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> dict:
    """Build the sharded graph index; returns the manifest dict."""
    os.makedirs(index_dir, exist_ok=True)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("shard", pa.array(ids % n_shards, type=pa.int32()))

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col).reset_index(drop=True)
        shard = int(g["shard"].iloc[0])
        vecs = _normalize(np.stack([np.asarray(v, np.float64) for v in g[vec_col]]))
        nbrs, deg = _build_shard_graph(vecs, m, ef_construction)
        t = pa.table({
            id_col: pa.array(g[id_col].to_numpy(np.int64), type=pa.int64()),
            "vec": pa.array(vecs.astype(np.float32).tolist(),
                            type=pa.list_(pa.float32())),
            "nbrs": pa.array([row[row >= 0].tolist() for row in nbrs],
                             type=pa.list_(pa.int32())),
        })
        tmp = os.path.join(index_dir, f"shard-{shard:04d}.parquet.tmp")
        import pyarrow.parquet as pq

        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(index_dir, f"shard-{shard:04d}.parquet"))
        return pd.DataFrame({"shard": [shard], "n": [len(g)]})

    stats = (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .map_groups(build, batch_format="pandas")
        .to_pandas()
    )
    man = {"n_shards": n_shards, "m": m, "ef_construction": ef_construction,
           "shards": sorted(int(s) for s in stats["shard"]),
           "n_vectors": int(stats["n"].sum())}
    with open(os.path.join(index_dir, "graph_manifest.json"), "w") as f:
        json.dump(man, f)
    return man


class GraphSearcher:
    """ONE shard graph loaded in __init__, answering query batches."""

    def __init__(self, shard_path: str, k: int, ef: int, allow_ref=None):
        import pyarrow.parquet as pq

        t = pq.read_table(shard_path)
        self.ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        self.vecs = np.stack(
            [np.asarray(v, np.float64) for v in t["vec"].to_pylist()])
        cap = max((len(x) for x in t["nbrs"].to_pylist()), default=1)
        self.nbrs = np.full((len(self.ids), cap), -1, dtype=np.int32)
        self.deg = np.zeros(len(self.ids), dtype=np.int32)
        for i, row in enumerate(t["nbrs"].to_pylist()):
            self.nbrs[i, : len(row)] = row
            self.deg[i] = len(row)
        self.k = k
        self.ef = ef
        # filtered search: a SORTED global vec_id allow-list, broadcast once
        # (ray.put) and reduced to this shard's boolean mask at init
        if allow_ref is not None:
            import ray as _ray

            from remote_vector_index_builder_ray.stages.merge import isin_sorted

            self.allow = isin_sorted(self.ids, _ray.get(allow_ref))
        else:
            self.allow = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        qm = _normalize(np.stack(
            [np.asarray(v, np.float64) for v in batch["embedding"].to_pylist()]))
        out_q, out_v, out_s = [], [], []
        for qid, q in zip(qids, qm):
            found = _beam(self.vecs, self.nbrs, self.deg, q, self.ef,
                          n_valid=len(self.ids), allow=self.allow)[: self.k]
            out_q.extend([int(qid)] * len(found))
            out_v.extend(int(self.ids[i]) for _, i in found)
            out_s.extend(s for s, _ in found)
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        })


def _search_shards(batch: pa.Table, queries_ref, k: int, ef: int,
                   allow_ref=None) -> pa.Table:
    """map_batches task over shard paths: load each shard graph once and
    answer every broadcast query against it."""
    queries = ray.get(queries_ref)
    return pa.concat_tables([
        GraphSearcher(path, k, ef, allow_ref)(queries)
        for path in batch["path"].to_pylist()
    ])


def graph_topk(
    index_dir: str,
    queries: pd.DataFrame,
    k: int = 10,
    ef: int = 64,
    allow_ids: np.ndarray | None = None,
) -> pd.DataFrame:
    """Search every shard — one stateless task per shard loads its graph
    once and answers all queries (broadcast once) — and merge partials
    k-bounded at the driver. ``queries`` needs (query_id, embedding).
    Returns (query_id, rank, vec_id, score), score rounded half-up to 6
    decimals, (score desc, vec_id asc)."""
    with open(os.path.join(index_dir, "graph_manifest.json")) as f:
        man = json.load(f)
    allow_ref = (ray.put(np.sort(np.asarray(allow_ids, dtype=np.int64)))
                 if allow_ids is not None else None)
    qref = ray.put(pa.Table.from_pandas(queries[["query_id", "embedding"]],
                                        preserve_index=False))
    paths = [os.path.join(index_dir, f"shard-{shard:04d}.parquet")
             for shard in man["shards"]]
    allp = ray.data.from_items([{"path": p} for p in paths]).map_batches(
        _search_shards, fn_args=(qref, k, ef, allow_ref), batch_size=1,
        batch_format="pyarrow",
    ).to_pandas()
    if allp.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int32),
                             "vec_id": pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.float64)})
    allp["score"] = _round6(allp["score"].to_numpy())
    allp = allp.sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True])
    allp["rank"] = (allp.groupby("query_id").cumcount() + 1).astype(np.int32)
    out = allp[allp["rank"] <= k]
    return out[["query_id", "rank", "vec_id", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "vec_id": np.int64,
         "score": np.float64}).reset_index(drop=True)


def graph_recall(
    ds: ray.data.Dataset,
    index_dir: str,
    queries: pd.DataFrame,
    k: int = 10,
    ef: int = 64,
) -> pd.DataFrame:
    """recall@k of the graph search vs the exact cosine brute force — the
    reference's recall_at_r acceptance metric
    (``benchmarking/metrics/... recall``). Returns (query_id, recall)."""
    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    qm = np.stack([np.asarray(v, np.float64) for v in queries["embedding"]])
    exact = brute_force_topk(ds, queries["query_id"].to_numpy(), qm, k=k)
    approx = graph_topk(index_dir, queries, k=k, ef=ef)
    rows = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        rows.append((int(qid), float(_round6(len(truth & got) / max(len(truth), 1)))))
    return pd.DataFrame(rows, columns=["query_id", "recall"]).astype(
        {"query_id": np.int64, "recall": np.float64})
