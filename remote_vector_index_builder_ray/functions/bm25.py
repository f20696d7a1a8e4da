"""Okapi BM25 (Lucene-style) scoring — the ONE frozen formula variant.

Rank identity vs. the oracle requires a single formula, float64 accumulation,
and a fixed term-summation order (SURVEY.md section 7, "Hard parts"):

  idf(t)     = ln(1 + (N - df + 0.5) / (df + 0.5))            # always >= 0
  tfnorm     = tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
  score(q,d) = sum over UNIQUE query terms t (in ascending term order)
               of idf(t) * tfnorm(tf_{t,d}, dl_d)

Tie-break for top-k: (score desc, docid asc). k1=1.2, b=0.75 by default.
Both the exhaustive oracle and the engine accumulate contributions in
ascending-term order in float64, so equal inputs give bit-equal scores.
"""

from __future__ import annotations

import math

import numpy as np


def idf(N: int, df: int) -> float:
    return math.log(1.0 + (N - df + 0.5) / (df + 0.5))


def tfnorm(tf: np.ndarray, dl: np.ndarray, avgdl: float, k1: float, b: float) -> np.ndarray:
    """Vectorized tf normalization in float64."""
    tf = tf.astype(np.float64, copy=False)
    dl = dl.astype(np.float64, copy=False)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


# ---------------------------------------------------------------------------
# Alternative similarity modules (OpenSearch index-level `similarity`
# settings). Each is a per-(term, doc) contribution summed over the query's
# unique terms in ascending-term order, like BM25 — formulas follow Lucene's
# ClassicSimilarity / LMDirichletSimilarity / LMJelinekMercerSimilarity
# (negative LM scores floor at 0 per Lucene). Exhaustive mode only: the
# stored block maxes are BM25 bounds, so block-max pruning does not apply.
# ---------------------------------------------------------------------------

LM_MU = 2000.0  # LMDirichletSimilarity default mu
LM_LAMBDA = 0.1  # LMJelinekMercerSimilarity recommended lambda (short queries)

SIMILARITIES = ("bm25", "classic", "lm_dirichlet", "lm_jelinek_mercer",
                "rawtf", "boolean", "dfr_inl2", "ib_ll", "dfi")


def sim_contrib(
    similarity: str,
    tfs: np.ndarray,
    dls: np.ndarray,
    df: int,
    cf: int,
    N: int,
    total_len: int,
) -> np.ndarray:
    """Per-posting float64 contribution of one term under ``similarity``.

    - classic: idf_c^2 * sqrt(tf) / sqrt(dl), idf_c = 1 + ln(N / (df + 1))
      (Lucene ClassicSimilarity with queryNorm == 1)
    - lm_dirichlet: max(0, ln(1 + tf / (mu * p)) + ln(mu / (dl + mu))),
      p = cf / total_len
    - lm_jelinek_mercer: ln(1 + ((1 - lambda) * tf / dl) / (lambda * p))
    """
    tfs = tfs.astype(np.float64, copy=False)
    dls = dls.astype(np.float64, copy=False)
    if similarity == "boolean":
        # Lucene BooleanSimilarity (OpenSearch `similarity: boolean`): each
        # matched term contributes exactly the query boost (1.0 here) —
        # tf, idf and length norms are all ignored, so a doc's score is its
        # distinct-matched-term count
        return np.ones_like(tfs, dtype=np.float64)
    if similarity == "rawtf":
        # raw term frequency as the contribution (exact in float64): the
        # building block for term-centric cross-field combines that need
        # UNWEIGHTED per-(term, doc) tf before applying their own norms
        # (pipelines/query.search_combined_fields — BM25F combines per-field
        # tfs FIRST, then saturates once against the combined field length)
        return tfs
    if similarity == "classic":
        w = 1.0 + math.log(N / (df + 1.0))
        return (w * w) * np.sqrt(tfs) / np.sqrt(np.maximum(dls, 1.0))
    if similarity == "dfr_inl2":
        # Lucene DFRSimilarity(BasicModelIn, AfterEffectL, NormalizationH2,
        # c=1) — the OpenSearch `similarity: DFR` family's InL2 model:
        # tfn = tf * log2(1 + c * avgdl / dl); score = tfn * log2((N + 1) /
        # (df + 0.5)) / (tfn + 1). dl >= 1 always (a posting implies a token)
        avgdl = total_len / float(N)
        tfn = tfs * np.log2(1.0 + avgdl / np.maximum(dls, 1.0))
        return tfn * math.log2((N + 1.0) / (df + 0.5)) / (tfn + 1.0)
    if similarity == "ib_ll":
        # Lucene IBSimilarity(DistributionLL, LambdaDF, NormalizationH2,
        # c=1) — the OpenSearch `similarity: IB` family: λ = (df+1)/(N+1),
        # tfn = tf * log2(1 + avgdl/dl), contribution = -ln(λ/(λ+tfn))
        # = ln(1 + tfn/λ)
        avgdl = total_len / float(N)
        tfn = tfs * np.log2(1.0 + avgdl / np.maximum(dls, 1.0))
        lam = (df + 1.0) / (N + 1.0)
        return np.log1p(tfn / lam)
    if similarity == "dfi":
        # Lucene DFISimilarity(IndependenceStandardized) — the OpenSearch
        # `similarity: DFI` setting: expected tf under term/doc independence
        # is (cf+1) * dl / (total_len+1); a term at or below its expectation
        # contributes 0, above it log2(1 + (tf - expected)/sqrt(expected))
        # (the standardized independence measure). Lucene's docLen is the
        # norm-decoded length; ours is exact.
        expected = (cf + 1.0) * dls / (total_len + 1.0)
        excess = np.maximum(tfs - expected, 0.0)
        v = np.log2(1.0 + excess / np.sqrt(expected))
        return np.where(tfs <= expected, 0.0, v)
    p = cf / float(total_len)
    if similarity == "lm_dirichlet":
        v = np.log1p(tfs / (LM_MU * p)) + math.log(LM_MU) - np.log(dls + LM_MU)
        return np.maximum(v, 0.0)
    if similarity == "lm_jelinek_mercer":
        return np.log1p(
            ((1.0 - LM_LAMBDA) * tfs / np.maximum(dls, 1.0)) / (LM_LAMBDA * p)
        )
    raise ValueError(f"unknown similarity {similarity!r}")


def compile_sim_script(expr: str):
    """Compile a scripted-similarity expression (OpenSearch
    ``similarity: {type: scripted}`` — Lucene ScriptedSimilarity): a
    restricted painless analog over the per-(term, doc) statistics the
    Lucene script sees — ``tf`` (doc.freq), ``dl`` (doc.length), ``df``
    (term.docFreq), ``cf`` (term.totalTermFreq), ``N`` (field.docCount),
    ``total_len`` (field.sumTotalTermFreq) — with ``+ - * /`` arithmetic
    and ``sqrt``/``log``/``log2``/``min``/``max`` calls. Validated via the
    Python AST (no other names, calls or attributes), so the expression is
    SQL-transcribable verbatim and never evaluates user strings at batch
    time. Returns fn(tfs, dls, df, cf, N, total_len) -> float64 ndarray.

    Like Lucene, the script must be non-negative and term-additive; bmw
    block maxes are BM25 bounds, so scripted similarities run exhaustive
    mode only (enforced by the searcher)."""
    import ast
    import operator as op

    ops = {ast.Add: op.add, ast.Sub: op.sub, ast.Mult: op.mul,
           ast.Div: op.truediv}
    fns = {"sqrt": np.sqrt, "log": np.log, "log2": np.log2,
           "min": np.minimum, "max": np.maximum}
    tree = ast.parse(expr, mode="eval")

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand, env)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in fns and not node.keywords):
            return fns[node.func.id](*(ev(a, env) for a in node.args))
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return np.float64(node.value)
        raise ValueError(f"scripted similarity: unsupported expression node "
                         f"{ast.dump(node)} in {expr!r}")

    one = np.float64(1.0)
    ev(tree, {"tf": one, "dl": one, "df": one, "cf": one,
              "N": one, "total_len": one})  # validate eagerly

    def fn(tfs, dls, df, cf, N, total_len):
        out = np.asarray(
            ev(tree, {
                "tf": tfs.astype(np.float64, copy=False),
                "dl": dls.astype(np.float64, copy=False),
                "df": np.float64(df), "cf": np.float64(cf),
                "N": np.float64(N), "total_len": np.float64(total_len),
            }),
            dtype=np.float64,
        )
        # a script over neither tf nor dl is one value per term: every
        # posting of the term scores it
        return np.full(tfs.shape, out) if out.ndim == 0 else out

    return fn


def topk_order(scores: np.ndarray, docids: np.ndarray, k: int):
    """Indices of the top-k by (score desc, docid asc).

    Two-phase for large inputs: an O(n) partition finds the k-th score, then
    only the (ties-inclusive) head is exactly sorted — bit-identical result to
    the full lexsort.
    """
    n = len(scores)
    if n > max(4 * k, 1024):
        kth_score = -np.partition(-scores, k - 1)[k - 1]
        idx = np.flatnonzero(scores >= kth_score)
        order = np.lexsort((docids[idx], -scores[idx]))
        return idx[order[:k]]
    order = np.lexsort((docids, -scores))
    return order[:k]


# DuckDB SQL fragments mirroring the same formula (for oracle_sql()).
DUCKDB_IDF = "ln(1 + ({N} - df + 0.5) / (df + 0.5))"
DUCKDB_TFNORM = "tf * ({k1} + 1) / (tf + {k1} * (1 - {b} + {b} * dl / {avgdl}))"
