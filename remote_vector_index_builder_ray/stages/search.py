"""BM25 top-k query path: the searcher every ``query_service`` pool actor hosts.

The analog of the reference's searcher-with-loaded-index
(``benchmarking/search/search_indices.py:13-63``: ``faiss.read_index`` once,
then many ``index.search`` calls): the actor loads corpus stats + the postings
file index ONCE in ``__init__``, caches decoded per-term postings across
batches, and answers each query with the scorer its mode names in ``MODES``,
among them

* ``exhaustive`` — term-at-a-time vectorized scoring (numpy gather +
  ``np.add.at`` accumulation in ascending-term order, bit-identical to the
  oracle), and
* ``bmw`` — block-max pruning with a size-k threshold, skipping whole
  docid chunks whose ``idf * block_max_tfnorm`` bound cannot beat it. Full
  evaluations sum contributions in ascending-term order, so results are
  rank-identical (equal float64 scores) to ``exhaustive``.

``MODES`` is the one mode capability table: per mode, the scorer, the
optional per-query columns and constructor options it reads, and whether it
needs positions or is served over HTTP. ``validate`` checks a request
against it — on the driver, in the HTTP facade and in every batch here.

The index is term-sharded on disk (postings sorted by term, per-file term
ranges in the manifest), so a query touches only the files covering its terms —
predicate pushdown via parquet row-group stats does the rest. No shuffle.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from remote_vector_index_builder_ray.functions.bm25 import idf as _idf, tfnorm, topk_order
from remote_vector_index_builder_ray.functions.codec import decode_posting_run
from remote_vector_index_builder_ray.functions.tokenizer import analyze_text

def _compile_int_script(expr: str):
    """Compile a sandboxed INTEGER script over ``v`` (the doc's length) into
    a vectorized numpy function — the terms_set query's
    ``minimum_should_match_script`` analog. Allowed: int literals, ``v``,
    ``+ - * // %``, ``min``/``max`` calls. AST-validated once per actor;
    nothing is eval'd per batch, and the same closed-form expression runs
    verbatim in a SQL oracle. Raises ValueError on any other syntax."""
    import ast

    tree = ast.parse(expr, mode="eval")

    def ev(node):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int) or isinstance(node.value, bool):
                raise ValueError(f"non-integer literal {node.value!r}")
            c = int(node.value)
            return lambda v: np.int64(c)
        if isinstance(node, ast.Name):
            if node.id != "v":
                raise ValueError(f"unknown name {node.id!r}")
            return lambda v: v
        if isinstance(node, ast.BinOp):
            lf, rf = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return lambda v: lf(v) + rf(v)
            if isinstance(node.op, ast.Sub):
                return lambda v: lf(v) - rf(v)
            if isinstance(node.op, ast.Mult):
                return lambda v: lf(v) * rf(v)
            if isinstance(node.op, ast.FloorDiv):
                return lambda v: lf(v) // rf(v)
            if isinstance(node.op, ast.Mod):
                return lambda v: lf(v) % rf(v)
            raise ValueError(f"unsupported operator {type(node.op).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in ("min", "max"):
                raise ValueError("only min()/max() calls are allowed")
            args = [ev(a) for a in node.args]
            red = np.minimum if node.func.id == "min" else np.maximum
            def call(v, _args=args, _red=red):
                out = _args[0](v)
                for a in _args[1:]:
                    out = _red(out, a(v))
                return out
            return call
        raise ValueError(f"unsupported syntax {type(node).__name__}")

    f = ev(tree.body)
    f(np.asarray([1, 2], dtype=np.int64))  # validate eagerly, on the driver
    return f


RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("docid", pa.int64()),
        ("score", pa.float64()),
    ]
)

# mode="explain": one row per (query, doc, matching term)
EXPLAIN_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("docid", pa.int64()),
        ("term", pa.string()),
        ("tf", pa.int64()),
        ("df", pa.int64()),
        ("contrib", pa.float64()),
    ]
)


@dataclass(frozen=True)
class Mode:
    """One row of ``MODES``. Columns beyond (query_id, text, k) and
    constructor options that no row lists are not mode-specific."""

    scorer: str                       # BM25Searcher method: (_Query) -> hits
    columns: frozenset = frozenset()  # optional per-query columns it reads
    requires: frozenset = frozenset()  # columns / options it cannot run without
    kwargs: frozenset = frozenset()   # mode-specific constructor options it reads
    positions: str | None = None      # positional loads: "pruned" to the docs
                                      # holding every term, or "full"
    ordered: bool = False             # text keeps token order and duplicates
    offsets: bool = False             # reads token offsets; a ``terms`` list
                                      # is taken verbatim, in order
    served: bool = False              # QueryService / HTTP serve it
    schema: pa.Schema = RESULT_SCHEMA


_AFTER = frozenset({"after_score", "after_docid"})     # search_after cursor
_SLICE = frozenset({"slice_id", "slice_max"})          # sliced scroll
_MASKS = frozenset({"exclude_text", "filter_text", "allow_docids"})
_MSM = frozenset({"operator", "min_should_match"})


def _row(scorer: str, columns=(), requires=(), kwargs=(), **flags) -> Mode:
    """A ``Mode`` whose required columns count as accepted columns."""
    kwargs = frozenset(kwargs)
    return Mode(scorer, frozenset(columns) | (frozenset(requires) - kwargs),
                frozenset(requires), kwargs, **flags)


# The mode capability table: the one place mode names and what each accepts
# are written down. A column or option a row does not list is rejected for
# that mode, never silently dropped.
MODES: dict[str, Mode] = {
    "bmw": _row("_score_bmw", {"terms", *_AFTER, *_MASKS}, kwargs=_MSM,
                served=True),
    "exhaustive": _row(
        "_score_exhaustive",
        {"terms", "weights", "negative_text", *_AFTER, *_MASKS, *_SLICE},
        kwargs={*_MSM, "negative_boost", "unit_idf", "similarity",
                "stats_override", "df_override"},
        served=True),
    "constant": _row("_score_constant", {"terms", *_AFTER, *_MASKS, *_SLICE},
                     served=True),
    "dismax": _row("_score_dismax", {"terms"}, kwargs={"tie_breaker"},
                   served=True),
    "collapse": _row("_score_collapse", {"terms"},
                     kwargs={*_MSM, "collapse_round6", "collapse_inner"}),
    "terms_set": _row("_score_terms_set", {"terms", "exclude_text"},
                      requires={"msm_script"}, kwargs={"msm_script"}),
    "blended": _row("_score_blended", requires={"groups"}),
    "explain": _row("_explain", requires={"explain_docids"},
                    schema=EXPLAIN_SCHEMA),
    "span_or": _row("_score_span_or", {"terms"}),
    "phrase": _row("_score_phrase", {"terms", "slop"}, positions="pruned",
                   ordered=True, offsets=True, served=True),
    "span_near": _row("_score_span_near", {"terms", "slop"},
                      positions="pruned", ordered=True, served=True),
    "span_first": _row("_score_span_first", {"terms", "span_end"},
                       positions="full", served=True),
    "span_not": _row("_score_span_not", {"terms", "span_exclude"},
                     kwargs={"span_pre", "span_post"}, positions="full",
                     served=True),
    "intervals": _row("_score_intervals", {"terms", "max_gaps"},
                      positions="full", ordered=True, served=True),
    "span_containing": _row("_score_span_containing", {"terms", "slop"},
                            requires={"span_little"}, positions="full",
                            ordered=True, served=True),
    "span_within": _row("_score_span_within", {"terms", "slop"},
                        requires={"span_little"}, positions="full",
                        ordered=True, served=True),
}

_COLUMNS = frozenset().union(*(m.columns for m in MODES.values()))
_KWARGS = frozenset().union(*(m.kwargs for m in MODES.values()))


@functools.cache
def searcher_defaults() -> dict:
    """``BM25Searcher``'s keyword defaults (an option equal to its default
    is "not set")."""
    return {name: p.default
            for name, p in inspect.signature(BM25Searcher).parameters.items()
            if p.default is not inspect.Parameter.empty}


def _accepting(name: str) -> list[str]:
    return sorted(m for m, r in MODES.items()
                  if name in r.columns or name in r.kwargs)


def validate(mode: str, columns=None, options: dict | None = None,
             served: bool = False) -> Mode:
    """Check a request against ``MODES`` and return the mode's row.

    ``columns`` are the query input's column names (None: not checked);
    ``options`` are the constructor options, plus the driver's ``where`` /
    ``allow_docids`` (None: not checked). ``served`` admits only the modes
    QueryService and HTTP serve. Raises ValueError naming the first
    offending mode, column or option."""
    row = MODES.get(mode)
    if row is None or (served and not row.served):
        known = sorted(m for m, r in MODES.items() if r.served or not served)
        raise ValueError(f"unknown mode {mode!r}; supported: {known}")
    cols = set(columns) if columns is not None else None
    opts = options if options is not None else {}
    defaults = searcher_defaults()
    bad = sorted((cols or set()) & _COLUMNS - row.columns) + sorted(
        n for n in (set(opts) & _KWARGS) - row.kwargs if opts[n] != defaults[n])
    if bad:
        name = bad[0]
        shown = name if name in _COLUMNS else f"{name}={opts[name]!r}"
        raise ValueError(f"{shown} is not supported in {mode} mode "
                         f"(supported in: {_accepting(name)})")
    for name in sorted(row.requires):
        if name in _KWARGS:
            if options is not None and opts.get(name) is None:
                raise ValueError(f"mode {mode!r} requires {name}")
        elif cols is not None and name not in cols:
            raise ValueError(f"mode {mode!r} requires a {name} column")
    # cross-field rules
    if cols is not None:
        if {"filter_text", "allow_docids"} <= cols:
            raise ValueError("pass either filter_text or allow_docids, not both")
        if "weights" in cols and "terms" not in cols:
            raise ValueError("weights requires a terms column (the weighted "
                             "pre-analyzed terms)")
        if "allow_docids" in cols and opts.get("allow_docids") is not None:
            raise ValueError(
                "pass either the global allow_docids kwarg or the per-query "
                "allow_docids column, not both")
    if opts.get("where") is not None and opts.get("allow_docids") is not None:
        raise ValueError("pass either where or allow_docids, not both")
    operator = opts.get("operator", "or")
    if operator not in ("or", "and"):
        raise ValueError(f"operator must be 'or' or 'and', got {operator!r}")
    msm = opts.get("min_should_match")
    if msm is not None:
        if operator == "and":
            raise ValueError(
                "min_should_match is redundant with operator='and' (OpenSearch "
                "ignores msm under operator:and; pick one)")
        if int(msm) < 1:
            raise ValueError("min_should_match must be >= 1")
    if opts.get("msm_script") is not None:
        _compile_int_script(opts["msm_script"])  # fails fast on bad syntax
    similarity = opts.get("similarity", "bm25")
    if similarity != "bm25":
        from remote_vector_index_builder_ray.functions.bm25 import (
            SIMILARITIES,
            compile_sim_script,
        )

        if similarity.startswith("scripted:"):
            compile_sim_script(similarity[len("scripted:"):])
        elif similarity not in SIMILARITIES:
            raise ValueError(
                f"unknown similarity {similarity!r}; supported: "
                f"{list(SIMILARITIES)} or 'scripted:<expr>'")
    return row


K_MAX = 2**31 - 1  # the largest k: the query contract's k column is int32


def capped_k(k: int) -> np.int32:
    """An oversampled k (2k, k + 1) as the k column's int32, saturated at
    K_MAX rather than wrapped or overflowed."""
    return np.int32(min(k, K_MAX))


def check_k(ks) -> None:
    """Raise ValueError unless every per-query ``k`` is null (meaning 10)
    or a whole number in [0, K_MAX] (a k column holding a null reads as
    float)."""
    for k in ks:
        if k is not None and (isinstance(k, bool)
                              or not isinstance(k, (int, float))
                              or not 0 <= k <= K_MAX or k != int(k)):
            raise ValueError(f"k must be an integer in [0, {K_MAX}], got {k!r}")


class _Query:
    """One query row, parsed: everything a scorer reads. Optional inputs
    default to "absent" (no cursor, no mask, slop 0, span_end 1, ...)."""

    __slots__ = ("qid", "terms", "k", "offsets", "groups", "docids", "after",
                 "deny", "allow", "demote", "slicing", "weights", "slop",
                 "gaps", "end", "exclude", "little")

    def __init__(self, qid: int, terms: list[str], k: int):
        self.qid, self.terms, self.k = qid, terms, k
        self.offsets = self.groups = self.docids = None
        self.after = self.deny = self.allow = self.demote = None
        self.slicing = self.weights = self.exclude = self.little = None
        self.slop = self.gaps = 0
        self.end = 1


class _TermPostings:
    """One term's merged segment rows (all shards, shard==docid order).

    Holds numpy views over the Arrow block metadata and memoryview slices of
    the binary payload buffers — constructed zero-copy by
    ``BM25Searcher._load_terms`` (no ``to_pylist`` row conversion)."""

    SUPERBLOCK = 64  # blocks per lazily-decoded cache unit (~8k postings)

    __slots__ = ("first", "last", "count", "maxtn", "docb", "tfb", "dlb", "df", "cf",
                 "_decoded", "_tn", "_sb")

    def __init__(self, first, last, count, maxtn, docb, tfb, dlb, df, cf):
        self.first = first
        self.last = last
        self.count = count
        self.maxtn = maxtn
        self.docb = docb
        self.tfb = tfb
        self.dlb = dlb
        self.df = int(df)
        self.cf = int(cf)
        self._decoded = None
        self._tn = None
        self._sb: dict[int, tuple] = {}

    def decode_block_range(self, bs: int, be: int):
        """Decoded (docids, tfs, dls) covering at least blocks [bs, be).

        Lazily decodes SUPERBLOCK-aligned spans (one batched varint pass per
        span, cached) — a pruned query never touches the rest of the list."""
        if self._decoded is not None:  # full decode already cached
            return self._decoded
        SB = self.SUPERBLOCK
        lo_sb, hi_sb = bs // SB, (be - 1) // SB + 1
        parts = []
        for s in range(lo_sb, hi_sb):
            got = self._sb.get(s)
            if got is None:
                b0, b1 = s * SB, min((s + 1) * SB, self.n_blocks)
                got = decode_posting_run(
                    self.first[b0:b1], self.count[b0:b1],
                    self.docb[b0:b1], self.tfb[b0:b1], self.dlb[b0:b1],
                    self.last[b0:b1],
                )
                self._sb[s] = got
            parts.append(got)
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )

    def decode_all(self):
        # memoized: hot terms (stopwords) are queried by many queries per batch
        if self._decoded is None:
            self._decoded = decode_posting_run(
                self.first, self.count, self.docb, self.tfb, self.dlb, self.last
            )
        return self._decoded

    def tfnorms(self, avgdl: float, k1: float, b: float) -> np.ndarray:
        if self._tn is None:
            _, tfs, dls = self.decode_all()
            self._tn = tfnorm(tfs, dls, avgdl, k1, b)
        return self._tn

    @property
    def n_blocks(self) -> int:
        return len(self.count)


class _StatsBucketReader:
    """One bucket parquet file with its footer parsed once and per-row-group
    (term, docid) statistics cached — row-group selection replaces the
    re-open + full-filter cost of ``pq.read_table(path, filters=...)``
    (~50 ms per call at 313 row groups, repeated per batch per bucket).

    Bucket files are written sorted by (term, docid)
    (stages/merge.merge_positions_bucket), so per-term row-group runs are
    contiguous and ``term_max`` is non-decreasing — a searchsorted finds
    each term's first candidate row group.

    Exception: when a skewed bucket exceeded the merge ``byte_budget``,
    merge_bucket_files / merge_positions_bucket appended term-hash
    sub-splits to the same file and the term sort is only per-split —
    ``term_max`` is NOT file-globally monotone. ``__init__`` detects that
    (``tsorted``) and ``select`` falls back to a vectorized linear scan of
    the row-group stats (still pruned, just not binary-searched); a term
    never spans splits, so per-term reads stay exact either way."""

    __slots__ = ("pf", "tmin", "tmax", "dmin", "dmax", "ok", "has_docid",
                 "tsorted")

    def __init__(self, fs_mod, path: str):
        import pyarrow.parquet as pq

        self.pf = pq.ParquetFile(fs_mod.open_input(path))
        md = self.pf.metadata
        idx = {md.schema.column(i).name: i for i in range(md.num_columns)}
        n = md.num_row_groups
        tmin, tmax = [], []
        dmin = np.empty(n, np.int64)
        dmax = np.empty(n, np.int64)
        self.ok = "term" in idx
        # docid stats are optional: positions buckets have a scalar docid
        # column (docid-pruned selection), postings buckets do not
        self.has_docid = "docid" in idx
        if self.ok:
            ti = idx["term"]
            di = idx["docid"] if self.has_docid else -1
            for g in range(n):
                rg = md.row_group(g)
                ts = rg.column(ti).statistics
                if ts is None or ts.min is None:
                    self.ok = False  # stats absent: caller falls back
                    break
                tmin.append(ts.min)
                tmax.append(ts.max)
                if self.has_docid:
                    ds = rg.column(di).statistics
                    if ds is None or ds.min is None:
                        self.has_docid = False
                    else:
                        dmin[g], dmax[g] = ds.min, ds.max
        if self.ok:
            self.tmin = np.asarray(tmin, dtype=object)
            self.tmax = np.asarray(tmax, dtype=object)
            self.dmin, self.dmax = dmin, dmax
            # multi-split (skew-guard) buckets relax the file-global term
            # sort to per-split order; searchsorted would then silently
            # miss row groups, so detect and scan linearly instead. BOTH
            # bounds must be non-decreasing: with only tmax monotone, a
            # later split's wide row group (small tmin) hides behind the
            # `tmin[g] > t` early break and its postings silently drop;
            # tmin AND tmax monotone makes the scan-until-tmin-exceeds walk
            # exact for interval stabbing regardless of physical layout.
            self.tsorted = bool(
                np.all(self.tmax[:-1] <= self.tmax[1:])
                and np.all(self.tmin[:-1] <= self.tmin[1:])
            ) if len(self.tmax) > 1 else True

    def select(self, terms: list[str], needed: dict | None = None) -> list[int]:
        """Row groups whose (term, docid) statistics intersect any wanted
        term (and, when ``needed`` maps that term to a sorted docid array,
        its needed docids). Conservative at term-boundary row groups."""
        rgs: set[int] = set()
        n = len(self.tmax)
        use_nd = needed is not None and self.has_docid
        for t in terms:
            nd = needed.get(t) if use_nd else None
            if self.tsorted:
                cand = range(int(np.searchsorted(self.tmax, t, side="left")), n)
            else:
                # multi-split bucket: per-split term order only — scan all
                # row groups whose [tmin, tmax] covers t (vectorized mask)
                cand = np.nonzero((self.tmin <= t) & (self.tmax >= t))[0]
            for g in cand:
                g = int(g)
                if self.tsorted and self.tmin[g] > t:
                    break
                if nd is None:
                    rgs.add(g)
                else:
                    i = int(np.searchsorted(nd, self.dmin[g]))
                    j = int(np.searchsorted(nd, self.dmax[g], side="right"))
                    if j > i:
                        rgs.add(g)
        return sorted(rgs)

    def read(self, terms: list[str], needed: dict | None = None,
             docid_filter=None):
        """The rows for ``terms`` (optionally docid-pruned), or None when the
        selection is empty. Row groups are stat-selected, then rows filtered
        exactly (``is_in``) — the same rows ``pq.read_table`` with the
        equivalent filters returns."""
        rgs = self.select(terms, needed)
        if not rgs:
            return None
        tbl = self.pf.read_row_groups(rgs)
        mask = pc.is_in(tbl["term"], value_set=pa.array(terms, type=pa.string()))
        if docid_filter is not None and self.has_docid:
            mask = pc.and_kleene(
                mask,
                pc.is_in(tbl["docid"],
                         value_set=pa.array(docid_filter, type=pa.int64())),
            )
        tbl = tbl.filter(mask)
        return tbl if tbl.num_rows else None


class BM25Searcher:
    """Top-k searcher over one index: ``__init__`` opens the index (stats,
    analyzer, term cache) and ``__call__`` answers one query batch. Hosted
    by ``query_service``'s warm pool actors, which every search runs on."""

    def __init__(self, index_dir: str, mode: str = "bmw", allow_ref=None,
                 cache_terms: int = 8192, operator: str = "or",
                 min_should_match: int | None = None,
                 tie_breaker: float = 0.0,
                 collapse_round6: bool = False,
                 collapse_inner: int = 0,
                 negative_boost: float = 0.5,
                 unit_idf: bool = False,
                 span_pre: int = 1, span_post: int = 1,
                 msm_script: str | None = None,
                 similarity: str = "bm25",
                 pit_gens: int | None = None,
                 stats_override: tuple | None = None,
                 df_override: dict | None = None):
        # the mode's row; its callers have validated the request on the
        # driver, so this raises only for a direct construction
        self._row = validate(mode, options=dict(
            operator=operator, min_should_match=min_should_match,
            tie_breaker=tie_breaker, collapse_round6=collapse_round6,
            collapse_inner=collapse_inner, negative_boost=negative_boost,
            unit_idf=unit_idf, span_pre=span_pre, span_post=span_post,
            msm_script=msm_script, similarity=similarity,
            stats_override=stats_override, df_override=df_override))
        # all index state resolves through the state.fs object-store layer:
        # the actor may run on any node; index_dir may be s3:// / mock://
        from remote_vector_index_builder_ray.state import fs as _fs
        from remote_vector_index_builder_ray.state.manifest import load_base_stats

        self._fs = _fs
        # crash-consistent with the postings: prefers the stats record
        # committed INSIDE postings/ by compact_index's atomic swap
        st = load_base_stats(index_dir)
        self.k1 = float(st["k1"])
        self.b = float(st["b"])
        # query analysis uses the INDEX's analyzer (stats.json) so query
        # terms agree with the indexed terms (config.AnalyzerConfig)
        a = st.get("analyzer")
        if a:
            from remote_vector_index_builder_ray.config import AnalyzerConfig

            self._analyzer = AnalyzerConfig(
                stopwords=tuple(a.get("stopwords", ())),
                min_token_len=int(a.get("min_token_len", 1)),
                max_token_len=int(a.get("max_token_len", 1 << 30)),
                stemmer=str(a.get("stemmer", "")),
            )
        else:
            self._analyzer = None
        self.mode = mode
        self.cache_terms = cache_terms
        # operator="and" (OpenSearch match operator:and): a doc must contain
        # EVERY query term; scores of qualifying docs are unchanged (the BM25
        # sum over the query terms is the same sum).
        self.operator = operator
        # minimum_should_match (OpenSearch match minimum_should_match): a doc
        # must contain at least n of the query's DISTINCT terms; qualifying
        # docs' scores are unchanged. operator="and" is the n == n_terms
        # special case (Lucene: msm above the clause count matches nothing,
        # and an absent term is still a clause — it just never matches).
        self.msm = None if min_should_match is None else int(min_should_match)
        self.tie_breaker = float(tie_breaker)  # mode="dismax" only
        self.collapse_round6 = bool(collapse_round6)  # mode="collapse" only
        self.collapse_inner = int(collapse_inner)  # collapse inner_hits
        self.negative_boost = float(negative_boost)  # boosting query only
        # unit_idf (exhaustive mode only): score with idf == 1.0 so a
        # SINGLE-term query returns the raw per-doc tf saturation — the
        # building block cross_fields multi_match re-weights with a BLENDED
        # idf on the combine side (pipelines/query.search_cross_fields)
        self.unit_idf = bool(unit_idf)
        # alternative similarity module (OpenSearch index `similarity`
        # setting): swaps the per-(term, doc) contribution formula
        # (functions/bm25.sim_contrib). Exhaustive mode only — stored block
        # maxes are BM25 upper bounds and don't bound other similarities.
        # OpenSearch `similarity: {type: scripted}` (Lucene
        # ScriptedSimilarity): the expression after the prefix is the
        # per-(term, doc) contribution script — compiled ONCE per actor,
        # evaluated vectorized per term
        if similarity.startswith("scripted:"):
            from remote_vector_index_builder_ray.functions.bm25 import compile_sim_script

            self._sim_fn = compile_sim_script(similarity[len("scripted:"):])
        else:
            self._sim_fn = None
        self.similarity = similarity
        # span_not exclusion window (occurrences of the exclude span within
        # [p - pre, p + post] of an include occurrence kill it)
        self.span_pre = int(span_pre)
        self.span_post = int(span_post)
        # terms_set mode: per-doc required-match count from a sandboxed
        # integer script over v = the doc's length (OpenSearch terms_set
        # minimum_should_match_script; compiled ONCE per actor, never eval'd
        # per batch)
        self._msm_fn = (
            _compile_int_script(msm_script) if msm_script is not None else None
        )
        man = _fs.read_json(_fs.join(index_dir, "manifest.json"))
        # Global corpus stats: the base stats plus every LIVE generation
        # (pipelines/incremental.append_index); scoring with global (N, avgdl)
        # makes multi-generation results equal a from-scratch build.
        # skip generations the postings set already folded in, even if the
        # manifest has not flagged them compacted yet (the stats record in
        # postings/ commits atomically with the postings; the manifest update
        # trails it — state.manifest.load_base_stats)
        folded = set(st.get("compacted_gens", ()))
        gens = [
            g for g in man.get("generations", [])
            if not g.get("compacted") and g["dir"] not in folded
        ]
        # point-in-time view (OpenSearch PIT): pin the first `pit_gens`
        # generations — docs appended after the PIT are invisible and the
        # scoring stats (N, total_len, avgdl) freeze at that state, so PIT
        # results equal the index as it stood. Deletes are NOT pinned
        # (documented divergence: tombstones apply live; a PIT over an
        # un-deleted index is exact).
        if pit_gens is not None:
            if pit_gens < 0 or pit_gens > len(gens):
                raise ValueError(
                    f"pit_gens={pit_gens} out of range (0..{len(gens)} live "
                    "generations)"
                )
            gens = gens[:pit_gens]
        N, total_len = int(st["N"]), int(st["total_len"])
        for g in gens:
            N += int(g["n_docs"])
            total_len += int(g["total_len"])
        # dfs_query_then_fetch federation (pipelines/query.multi_index_search
        # dfs=True): score THIS index's postings with GLOBAL corpus stats —
        # (N, total_len) replaced wholesale, per-term df replaced from the
        # blended dictionary. Exhaustive mode only (stored block maxes bound
        # the LOCAL idf/avgdl, not the overridden ones).
        if stats_override is not None:
            N, total_len = int(stats_override[0]), int(stats_override[1])
        self._df_override = dict(df_override) if df_override else None
        self.N = N
        self.total_len = total_len  # LM similarities: p(t|C) = cf / total_len
        self.avgdl = total_len / N if N else 0.0
        # Postings sources in docid (generation) order. Per source:
        # (postings_dir, num_buckets, present-file set, maxtn scale). The
        # scale corrects stored block maxes (computed with the generation's
        # LOCAL avgdl) up to a safe bound at the global avgdl: tfnorm is
        # increasing in avgdl and tfnorm(a2)/tfnorm(a1) <= a2/a1, so
        # max(1, avgdl_global/avgdl_local) keeps pruning exact-safe
        # (pipelines/incremental.py module docstring has the derivation).
        self.postings_dir = _fs.join(index_dir, "postings")
        # the in-postings stats record may carry a num_buckets override
        # (pipelines/incremental.rebucket_index commits the new bucket count
        # in the SAME rename as the resharded postings); prefer it so a
        # crash between the swap and the manifest update can't misaddress
        self.num_buckets = int(st.get("num_buckets", man["num_buckets"]))
        self._sources: list[tuple[str, int, set, float]] = []

        def _add_source(pdir: str, nb: int, local_avgdl: float) -> None:
            # one LIST of the postings dir (loaded once per actor) replaces a
            # per-term existence stat against the object store
            present = {n for n in _fs.listdir(pdir) if n.endswith(".parquet")}
            scale = max(1.0, self.avgdl / local_avgdl) if local_avgdl > 0 else 1.0
            self._sources.append((pdir, int(nb), present, scale))

        _add_source(self.postings_dir, self.num_buckets, float(st["avgdl"]))
        for g in gens:
            gdir = _fs.join(index_dir, g["dir"])
            gst = _fs.read_json(_fs.join(gdir, "stats.json"))
            _add_source(_fs.join(gdir, "postings"), int(g["num_buckets"]), float(gst["avgdl"]))
        self._present = self._sources[0][2]  # back-compat (single-source view)
        self._scales = np.array([s[3] for s in self._sources], dtype=np.float64)
        self._cache: dict[str, _TermPostings | None] = {}
        # Live tombstones (pipelines/delete): loaded once per actor as a
        # sorted int64 array; every scorer filters its candidates so deleted
        # docs never surface. N/avgdl deliberately still count them (Lucene
        # numDocs-vs-maxDoc semantics) until compact_index expunges.
        from remote_vector_index_builder_ray.pipelines.delete import load_tombstones

        self._tomb = load_tombstones(index_dir, man)
        # Positional index sources (BuildConfig.positions): resolved at init
        # in the positional modes, so a missing positional index fails fast;
        # other modes never read them.
        self._index_dir = index_dir
        self._gen_dirs = [_fs.join(index_dir, g["dir"]) for g in gens]
        self._pos_sources: list[tuple[str, int, set]] | None = None
        self._pos_cache: dict[str, tuple | None] = {}
        # terms whose _pos_cache entry is a batch-local PRUNED view (valid
        # only for the batch whose candidates produced it) — dropped at the
        # next pruned load (see _load_positions_pruned)
        self._pos_pruned: set[str] = set()
        # per-bucket readers with parsed footers + row-group statistics
        self._pos_pf: dict[str, _StatsBucketReader] = {}
        if self._row.positions:
            self._resolve_pos_sources()
        # Optional filtered search (pipelines/query.search(where=...)): a
        # SORTED int64 docid allow-list, ray.put once on the driver and
        # fetched once per actor (zero-copy from the object store). Filter
        # context semantics (OpenSearch bool.filter): candidates outside the
        # set are dropped, scoring stats are NOT changed.
        self._allow = None
        if allow_ref is not None:
            import ray as _ray

            self._allow = _ray.get(allow_ref)

    def _drop_tombstoned(self, docids: np.ndarray, scores: np.ndarray):
        """Apply the tombstone set and (if any) the filter allow-list."""
        if len(docids) == 0:
            return docids, scores
        from remote_vector_index_builder_ray.stages.merge import isin_sorted

        keep = None
        if len(self._tomb):
            keep = ~isin_sorted(docids, self._tomb)
        if self._allow is not None:
            a = isin_sorted(docids, self._allow)
            keep = a if keep is None else keep & a
        if keep is None:
            return docids, scores
        return docids[keep], scores[keep]

    # -- postings lookup ------------------------------------------------------
    def _term_bucket(self, term: str) -> int:
        import zlib

        return zlib.crc32(term.encode()) % self.num_buckets

    def _candidate_files(self, terms: list[str]) -> list[str]:
        """Deterministic file addressing: a term lives ONLY in its hash
        bucket's file (per source); within the file, small term-sorted row
        groups give parquet predicate pushdown."""
        import zlib

        out = []
        for pdir, nb, present, _ in self._sources:
            for bkt in sorted({zlib.crc32(t.encode()) % nb for t in terms}):
                name = f"bucket-{bkt:05d}.parquet"
                if name in present:
                    out.append(self._fs.join(pdir, name))
        return out

    @staticmethod
    def _binary_views(col: pa.ChunkedArray | pa.ListArray) -> tuple[np.ndarray, memoryview, np.ndarray]:
        """(flat element offsets, payload buffer, per-row list offsets) of a
        list<binary> column — zero-copy views over the Arrow buffers."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        row_off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = col.flatten()
        bufs = flat.buffers()
        o = flat.offset  # offsets buffer holds absolute positions from index o
        elem_off = np.frombuffer(
            bufs[1], dtype=np.int32, count=o + len(flat) + 1
        )[o:].astype(np.int64)
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        return elem_off, data, row_off

    def _load_terms(self, terms: list[str]) -> None:
        """Read the missing terms' segment rows and build ``_TermPostings``
        directly from the Arrow buffers (block metadata as numpy views, block
        payloads as memoryview slices) — no per-row Python dict conversion."""
        missing = [t for t in terms if t not in self._cache]
        if not missing:
            return
        import zlib

        multi = len(self._sources) > 1
        tabs = []
        for gi, (pdir, nb, present, _) in enumerate(self._sources):
            by_bucket: dict[int, list[str]] = {}
            for t in missing:
                by_bucket.setdefault(zlib.crc32(t.encode()) % nb, []).append(t)
            for bkt, bterms in sorted(by_bucket.items()):
                name = f"bucket-{bkt:05d}.parquet"
                if name not in present:
                    continue
                path = self._fs.join(pdir, name)
                rd = self._pos_bucket_reader(path)
                if rd.ok:
                    t = rd.read(bterms)
                    if t is None:
                        continue
                else:  # statistics absent: the plain filtered read
                    t = self._fs.read_table(path, filters=[("term", "in", bterms)])
                    if t.num_rows == 0:
                        continue
                if multi:
                    t = t.append_column(
                        "gen", pa.array(np.full(t.num_rows, gi, dtype=np.int32))
                    )
                tabs.append(t)
        if len(self._cache) + len(missing) > self.cache_terms:
            # evict, but never drop a term of the CURRENT request: a cleared
            # entry would read back as None (= "term absent") and silently
            # zero its BM25 contribution for this batch
            keep = {t: self._cache[t] for t in terms if t in self._cache}
            self._cache.clear()
            self._cache.update(keep)
        for t in missing:
            self._cache[t] = None
        if not tabs:
            return
        tt = pa.concat_tables(tabs, promote_options="default")
        if tt.num_rows == 0:
            return
        # rows sorted by (term[, gen], shard): generations hold disjoint
        # ascending docid ranges, so this IS docid order per term
        sort_keys = [("term", "ascending")]
        if multi:
            sort_keys.append(("gen", "ascending"))
        sort_keys.append(("shard", "ascending"))
        tt = tt.sort_by(sort_keys).combine_chunks()
        row_terms = tt["term"].to_pylist()
        df_s = tt["df_shard"].to_numpy(zero_copy_only=False)
        cf_s = tt["cf_shard"].to_numpy(zero_copy_only=False)

        def _list_views(name: str, dtype):
            col = tt[name].combine_chunks()
            ro = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            vals = col.flatten().to_numpy(zero_copy_only=False).astype(dtype, copy=False)
            return ro, vals

        fo, fv = _list_views("first_docids", np.int64)
        lo_, lv = _list_views("last_docids", np.int64)
        co, cv = _list_views("counts", np.int64)
        mo, mv = _list_views("max_tfnorm", np.float64)
        if multi and (self._scales != 1.0).any():
            # correct each generation's stored block maxes up to the safe
            # bound at the GLOBAL avgdl (see __init__ / incremental.py)
            gen_rows = tt["gen"].to_numpy(zero_copy_only=False)
            mv = mv * np.repeat(self._scales[gen_rows], np.diff(mo))
        d_eo, d_buf, d_ro = self._binary_views(tt["docid_bytes"])
        t_eo, t_buf, t_ro = self._binary_views(tt["tf_bytes"])
        l_eo, l_buf, l_ro = self._binary_views(tt["dl_bytes"])

        i = 0
        n = tt.num_rows
        while i < n:
            j = i
            while j < n and row_terms[j] == row_terms[i]:
                j += 1
            docb = [d_buf[d_eo[e]:d_eo[e + 1]] for e in range(d_ro[i], d_ro[j])]
            tfb = [t_buf[t_eo[e]:t_eo[e + 1]] for e in range(t_ro[i], t_ro[j])]
            dlb = [l_buf[l_eo[e]:l_eo[e + 1]] for e in range(l_ro[i], l_ro[j])]
            self._cache[row_terms[i]] = _TermPostings(
                fv[fo[i]:fo[j]], lv[lo_[i]:lo_[j]], cv[co[i]:co[j]], mv[mo[i]:mo[j]],
                docb, tfb, dlb, df_s[i:j].sum(), cf_s[i:j].sum(),
            )
            i = j

    # -- positional postings (mode="phrase") ----------------------------------
    def _pos_bucket_reader(self, path: str):
        """Cached per-bucket reader: the parquet footer parses ONCE per actor
        (profiled ~50 ms per ``read_table`` call at 313 row groups — pure
        footer + filter overhead repeated every batch) and per-row-group
        (term, docid) statistics drive row-group selection thereafter."""
        rd = self._pos_pf.get(path)
        if rd is None:
            if len(self._pos_pf) >= 512:
                # bound open file handles (many-generation indexes x buckets):
                # drop the cache wholesale — footers re-parse on demand
                self._pos_pf.clear()
            rd = _StatsBucketReader(self._fs, path)
            self._pos_pf[path] = rd
        return rd

    def _resolve_pos_sources(self) -> list[tuple[str, int, set]]:
        if self._pos_sources is None:
            srcs = []
            for d in [self._index_dir] + self._gen_dirs:
                pdir = self._fs.join(d, "positions")
                if self._fs.exists(pdir):
                    present = {n for n in self._fs.listdir(pdir) if n.endswith(".parquet")}
                    # prefer the dir's own bucket-count record (rebucket_index
                    # commits it in the SAME rename as the resharded files) —
                    # a crash between the positions and postings swaps can
                    # never misaddress position buckets
                    meta = self._fs.join(pdir, "posmeta.json")
                    nb = (int(self._fs.read_json(meta)["num_buckets"])
                          if self._fs.exists(meta) else self.num_buckets)
                    srcs.append((pdir, nb, present))
            if not srcs:
                from remote_vector_index_builder_ray.config import EngineError

                raise EngineError(
                    f"index at {self._index_dir} has no positional data; "
                    "build with BuildConfig(positions=True) to enable phrase search"
                )
            self._pos_sources = srcs
        return self._pos_sources

    # positional pruning (phrase / span_near): per-term needed-docid sets
    # above this size fall back to the full-term load (their parquet `in`
    # filter would cost more than the rows it saves)
    POS_PRUNE_CAP = 8192
    # total pruned-read docid-filter budget per batch (expression size bound)
    POS_PRUNE_UNION_CAP = 131072

    def _phrase_needed(self, per_query_terms) -> dict:
        """Per-term candidate-docid unions for positional pruning.

        A phrase/span_near match requires EVERY query term in the doc, so a
        query's candidate set is the intersection of its terms' posting
        docids — already resident in the term cache after ``_load_terms``.
        ``needed[t]`` is the union of the candidate sets of the queries that
        use ``t``: loading only those docs' positional rows is exact (the
        scorers' own candidate intersection reproduces precisely the same
        docs), and for the common rare+common term mix it shrinks a
        100k-row stopword positional read to a few hundred rows."""
        acc: dict[str, list] = {}
        for terms in per_query_terms:
            uterms = sorted(set(terms))
            if not uterms or any(self._cache.get(t) is None for t in uterms):
                continue  # a missing term: the query matches nothing
            cand = None
            for t in sorted(uterms, key=lambda t: self._cache[t].df):
                d = self._cache[t].decode_all()[0]
                cand = d if cand is None else np.intersect1d(
                    cand, d, assume_unique=True
                )
                if cand.size == 0:
                    break
            if cand is None or cand.size == 0:
                continue
            for t in uterms:
                acc.setdefault(t, []).append(cand)
        return {
            t: (parts[0] if len(parts) == 1
                else np.unique(np.concatenate(parts)))
            for t, parts in acc.items()
        }

    def _load_positions_pruned(self, terms: list[str], needed: dict) -> None:
        """Positional loads restricted to each term's needed-docid set.

        Terms with no candidates anywhere are skipped (scorers early-out on
        the candidate intersection); terms whose needed set exceeds
        ``POS_PRUNE_CAP`` — stopword-pair queries — take the full-term load
        (persistent cache). Pruned entries are BATCH-LOCAL: they are views
        valid only for this batch's queries, tracked in ``_pos_pruned`` and
        dropped at the next batch so a later query can never mistake a
        pruned entry for the term's full positional list."""
        for t in self._pos_pruned:
            self._pos_cache.pop(t, None)
        self._pos_pruned = set()
        big, small = [], []
        for t in terms:
            nd = needed.get(t)
            if nd is None:
                continue
            (big if len(nd) > self.POS_PRUNE_CAP else small).append(t)
        # keep the total docid-filter size bounded: overflow terms degrade
        # to the full-term load (correct either way)
        small.sort(key=lambda t: len(needed[t]))
        total = 0
        for i, t in enumerate(small):
            total += len(needed[t])
            if total > self.POS_PRUNE_UNION_CAP:
                big.extend(small[i:])
                small = small[:i]
                break
        # eviction inside EITHER load must retain every term of THIS batch
        # (a two-call load with a call-local keep-set would evict call 1's
        # big terms while loading call 2's small ones — silent empty phrase
        # results), so the whole batch's term set rides along as `retain`
        batch_terms = set(terms)
        if big:
            self._load_positions(big, retain=batch_terms)
        # a full entry already resident covers any pruned need
        small = [t for t in small if t not in self._pos_cache]
        if not small:
            return
        union = np.unique(np.concatenate([needed[t] for t in small]))
        self._load_positions(small, needed=needed, docid_filter=union,
                             retain=batch_terms)
        self._pos_pruned = set(small)

    def _load_positions(self, terms: list[str], needed: dict | None = None,
                        docid_filter=None, retain: set | None = None) -> None:
        """Per term: (docid_per_position, position, cand_docids, cand_dls) —
        flat numpy views over the term-filtered positional rows of the term's
        hash bucket (every source, docid-ascending).

        Reads go through per-actor cached ``_StatsBucketReader``s: footer
        parsed once, then per-row-group (term, docid) statistics select the
        handful of row groups holding the wanted terms. ``needed`` (term →
        sorted docid array) additionally prunes a term's row groups to those
        intersecting its candidates, and ``docid_filter`` (their sorted
        union) exact-filters the rows — the pruned-load path
        (see ``_load_positions_pruned``)."""
        missing = [t for t in terms if t not in self._pos_cache]
        if not missing:
            return
        import zlib

        tabs = []
        for pdir, nb, present in self._resolve_pos_sources():
            by_bucket: dict[int, list[str]] = {}
            for t in missing:
                by_bucket.setdefault(zlib.crc32(t.encode()) % nb, []).append(t)
            for bkt, bterms in sorted(by_bucket.items()):
                name = f"bucket-{bkt:05d}.parquet"
                if name not in present:
                    continue
                path = self._fs.join(pdir, name)
                rd = self._pos_bucket_reader(path)
                if rd.ok:
                    t = rd.read(bterms, needed, docid_filter)
                else:  # statistics absent: the plain filtered read
                    flt = [("term", "in", bterms)]
                    if docid_filter is not None:
                        flt.append(("docid", "in", docid_filter.tolist()))
                    t = self._fs.read_table(path, filters=flt)
                    t = t if t.num_rows else None
                if t is not None:
                    tabs.append(t)
        if len(self._pos_cache) + len(missing) > self.cache_terms:
            # retain current-REQUEST terms across eviction (see _load_terms):
            # `retain` carries the whole batch's term set when this load is
            # one leg of a multi-call pruned load (_load_positions_pruned)
            hold = set(terms) | (retain or set())
            keep = {t: self._pos_cache[t] for t in hold if t in self._pos_cache}
            self._pos_cache.clear()
            self._pos_cache.update(keep)
        for t in missing:
            self._pos_cache[t] = None
        if not tabs:
            return
        tt = pa.concat_tables(tabs, promote_options="default")
        tt = tt.sort_by([("term", "ascending"), ("docid", "ascending")]).combine_chunks()
        # group rows per term via dictionary codes — no Python string
        # comparisons over (possibly millions of) rows
        td = tt["term"].combine_chunks().dictionary_encode()
        if isinstance(td, pa.ChunkedArray):
            td = td.combine_chunks()
        codes = td.indices.to_numpy(zero_copy_only=False)
        vocab = td.dictionary.to_pylist()
        docid = tt["docid"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl = tt["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos_col = tt["positions"].combine_chunks()
        counts = pc.list_value_length(pos_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos_flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        row_off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        n = tt.num_rows
        starts = np.concatenate([[0], np.flatnonzero(codes[1:] != codes[:-1]) + 1, [n]])
        for gi in range(len(starts) - 1):
            i, j = int(starts[gi]), int(starts[gi + 1])
            self._pos_cache[vocab[codes[i]]] = (
                np.repeat(docid[i:j], counts[i:j]),
                pos_flat[row_off[i]:row_off[j]],
                docid[i:j],
                dl[i:j],
            )

    # docid * 2^21 + position packs both into one int64 key for the phrase
    # intersection; doc_len must stay below 2^21 (a transcript turn is tiny)
    _POS_PACK = np.int64(1) << np.int64(21)

    def _score_phrase(self, q: _Query):
        """Exact phrase match (Lucene match_phrase): docs where the terms
        occur consecutively, scored ``sum(idf(term_i)) * tfnorm(phrase_tf)``
        — the Lucene PhraseQuery formula (summed term idfs, phrase frequency
        through the BM25 tf saturation). Phrase occurrences are found with a
        vectorized shifted-key intersection: term i at phrase offset
        ``offsets[i]`` contributes keys (docid, pos - offsets[i]); a phrase
        occurrence at base position p is a key present in every term's set.

        ``offsets`` defaults to 0..n-1 (adjacent terms). Under a filtering
        analyzer the query side passes the PRE-filter token indices
        (``analyze_text_positions``), so a stopword inside the phrase demands
        the same position gap the index recorded — Lucene's
        position-increment behavior. A positive ``slop`` is the sloppy phrase
        (``_score_phrase_slop``).
        """
        if q.slop > 0:
            return self._score_phrase_slop(q)
        terms, k, offsets = q.terms, q.k, q.offsets
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms:
            return empty
        if offsets is None:
            offsets = list(range(len(terms)))
        else:
            # anchor at the first kept term: a leading filtered-out stopword
            # must not forbid a match at the start of a doc (Lucene matches
            # on CONSISTENT relative offsets, not absolute query positions)
            offsets = [o - offsets[0] for o in offsets]
        uterms = sorted(set(terms))
        if any(self._cache.get(t) is None for t in uterms):
            return empty  # a phrase term absent from the corpus: no match
        idf_sum = 0.0
        for t in terms:  # phrase order, duplicates counted per occurrence
            idf_sum += _idf(self.N, self._cache[t].df)
        if any(self._pos_cache.get(t) is None for t in uterms):
            return empty
        from remote_vector_index_builder_ray.stages.merge import isin_sorted

        # candidate docs = docs containing every term — intersected rarest-
        # first (df-ascending), then each term's position array is pre-
        # filtered to the candidates before the (much larger) key intersect
        cand_docs = None
        for t in sorted(uterms, key=lambda t: len(self._pos_cache[t][2])):
            cdoc = self._pos_cache[t][2]
            cand_docs = cdoc if cand_docs is None else np.intersect1d(
                cand_docs, cdoc, assume_unique=True
            )
            if cand_docs.size == 0:
                return empty
        K = self._POS_PACK
        sets = []
        for t, off in zip(terms, offsets):
            d, p, cdoc, _ = self._pos_cache[t]
            if len(cand_docs) < len(cdoc):
                m = isin_sorted(d, cand_docs)
                d, p = d[m], p[m]
            if off:
                m = p >= off
                kk = d[m] * K + (p[m] - off)
            else:
                kk = d * K + p
            sets.append(kk)
        sets.sort(key=len)  # intersection is order-independent: smallest first
        keys = sets[0]
        for kk in sets[1:]:
            keys = np.intersect1d(keys, kk, assume_unique=True)
            if keys.size == 0:
                return empty
        docs = keys // K
        cand, ptf = np.unique(docs, return_counts=True)
        _, _, cdoc, cdl = self._pos_cache[terms[0]]
        dl = cdl[np.searchsorted(cdoc, cand)]
        scores = idf_sum * tfnorm(
            ptf.astype(np.float64), dl.astype(np.float64), self.avgdl, self.k1, self.b
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _chain_stf(self, terms: list[str], offsets: list[int], slop: int):
        """Core of the sloppy matchers: greedy in-order chains over the
        packed positional arrays. Returns (unique matched docids, per-doc
        sloppy frequency = Σ 1/(1+gap)) or None for no match. Callers must
        have loaded terms+positions and checked every term is present."""
        from remote_vector_index_builder_ray.stages.merge import isin_sorted

        cand_docs = None
        for t in sorted(set(terms), key=lambda t: len(self._pos_cache[t][2])):
            cdoc = self._pos_cache[t][2]
            cand_docs = cdoc if cand_docs is None else np.intersect1d(
                cand_docs, cdoc, assume_unique=True
            )
            if cand_docs.size == 0:
                return None
        K = self._POS_PACK
        packed = []
        for t in terms:
            d, p, cdoc, _ = self._pos_cache[t]
            if len(cand_docs) < len(cdoc):
                m = isin_sorted(d, cand_docs)
                d, p = d[m], p[m]
            if len(d) == 0:
                return None
            packed.append((d, p, d * K + p))
        d0, p0, cur_key = packed[0]
        valid = np.ones(len(cur_key), dtype=bool)
        amin = (p0 - offsets[0]).astype(np.int64)
        amax = amin.copy()
        for (d, p, kk), off in zip(packed[1:], offsets[1:]):
            idx = np.searchsorted(kk, cur_key, side="right")
            ok = idx < len(kk)
            idx_c = np.minimum(idx, len(kk) - 1)
            same_doc = d[idx_c] == d0
            step_ok = ok & same_doc
            valid &= step_ok
            cur_key = np.where(valid, kk[idx_c], cur_key)
            a = p[idx_c] - off
            amin = np.where(valid, np.minimum(amin, a), amin)
            amax = np.where(valid, np.maximum(amax, a), amax)
        gap = amax - amin
        matched = valid & (gap <= slop)
        if not matched.any():
            return None
        mdocs = d0[matched]
        weights = 1.0 / (1.0 + gap[matched].astype(np.float64))
        cand, inv = np.unique(mdocs, return_inverse=True)
        stf = np.bincount(inv, weights=weights, minlength=len(cand))
        return cand, stf

    def _nearest_stf(self, terms: list[str], offsets: list[int], slop: int):
        """OUT-OF-ORDER-tolerant sloppy matcher (Lucene match_phrase slop
        semantics): anchor on each occurrence of the FIRST phrase term; every
        other term contributes the occurrence whose ADJUSTED position
        (p - expected offset) is nearest the anchor (tie: the earlier
        position). gap = max(adjusted) - min(adjusted) over the chosen
        occurrences; a match needs gap <= slop and weighs 1/(1+gap)
        (SloppyPhraseMatcher.sloppyWeight). A transposed pair — query
        "york new" over "... new york ..." — has adjusted distance 2, so it
        matches at slop >= 2: exactly Lucene's transposition cost, which the
        round-2 in-order chain silently missed. Vectorized like
        ``_chain_stf``: one searchsorted per later term over packed
        (docid, adjusted) keys; all anchors advance at once. Requires
        DISTINCT terms (callers route repeated-term phrases to the in-order
        chain, which cannot reuse one position for two slots). Returns
        (unique matched docids, per-doc sloppy freq) or None."""
        from remote_vector_index_builder_ray.stages.merge import isin_sorted

        cand_docs = None
        for t in sorted(set(terms), key=lambda t: len(self._pos_cache[t][2])):
            cdoc = self._pos_cache[t][2]
            cand_docs = cdoc if cand_docs is None else np.intersect1d(
                cand_docs, cdoc, assume_unique=True
            )
            if cand_docs.size == 0:
                return None
        bias = int(max(offsets))
        KB = self._POS_PACK + bias  # adjusted values fit in [0, KB)
        packed = []
        for t, off in zip(terms, offsets):
            d, p, cdoc, _ = self._pos_cache[t]
            if len(cand_docs) < len(cdoc):
                m = isin_sorted(d, cand_docs)
                d, p = d[m], p[m]
            if len(d) == 0:
                return None
            a = p.astype(np.int64) - int(off)
            packed.append((d, a, d * KB + (a + bias)))
        d0, a0, anchor_key = packed[0]
        valid = np.ones(len(anchor_key), dtype=bool)
        amin = a0.copy()
        amax = a0.copy()
        for d, a, kk in packed[1:]:
            idx = np.searchsorted(kk, anchor_key)  # side=left: kk[idx-1] < key <= kk[idx]
            li = np.maximum(idx - 1, 0)
            ri = np.minimum(idx, len(kk) - 1)
            lv = (idx > 0) & (d[li] == d0)
            rv = (idx < len(kk)) & (d[ri] == d0)
            la, ra = a[li], a[ri]
            ldist = a0 - la   # > 0 (strictly left of the anchor key)
            rdist = ra - a0   # >= 0
            use_left = lv & (~rv | (ldist <= rdist))  # tie -> earlier position
            chosen = np.where(use_left, la, ra)
            valid &= lv | rv
            amin = np.where(valid, np.minimum(amin, chosen), amin)
            amax = np.where(valid, np.maximum(amax, chosen), amax)
        gap = amax - amin
        matched = valid & (gap <= slop)
        if not matched.any():
            return None
        mdocs = d0[matched]
        weights = 1.0 / (1.0 + gap[matched].astype(np.float64))
        cand, inv = np.unique(mdocs, return_inverse=True)
        stf = np.bincount(inv, weights=weights, minlength=len(cand))
        return cand, stf

    def _score_phrase_slop(self, q: _Query):
        """Sloppy phrase (OpenSearch match_phrase with ``slop``), Lucene
        transposition-tolerant: for DISTINCT phrase terms the nearest-anchor
        matcher (``_nearest_stf``) accepts out-of-order alignments whose
        adjusted-position spread fits the slop budget — "york new"~2 matches
        "new york", the round-3 fix for the engine's one silent divergence
        from OpenSearch. Each anchor's match contributes Lucene's sloppy
        weight 1/(1+gap) to the doc's phrase frequency, which runs through
        the BM25 saturation with summed term idfs exactly as the exact
        matcher. Phrases with a REPEATED term keep the ordered greedy chain
        (``_chain_stf`` — the nearest rule could bind one document position
        to two phrase slots, which Lucene forbids). ``_score_phrase`` routes
        a positive slop here; slop <= 0 is the exact match."""
        terms, k, slop, offsets = q.terms, q.k, q.slop, q.offsets
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms:
            return empty
        if offsets is None:
            offsets = list(range(len(terms)))
        else:
            offsets = [o - offsets[0] for o in offsets]
        uterms = sorted(set(terms))
        if any(self._cache.get(t) is None for t in uterms):
            return empty
        idf_sum = 0.0
        for t in terms:
            idf_sum += _idf(self.N, self._cache[t].df)
        if any(self._pos_cache.get(t) is None for t in uterms):
            return empty
        if len(set(terms)) == len(terms):
            res = self._nearest_stf(terms, offsets, slop)
        else:
            res = self._chain_stf(terms, offsets, slop)
        if res is None:
            return empty
        cand, stf = res
        _, _, cdoc, cdl = self._pos_cache[terms[0]]
        dl = cdl[np.searchsorted(cdoc, cand)]
        scores = idf_sum * tfnorm(
            stf, dl.astype(np.float64), self.avgdl, self.k1, self.b
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _score_span_near(self, q: _Query):
        """Lucene/OpenSearch span_near with in_order=false for a two-term
        span: the doc frequency of proximity matches in EITHER direction —
        sloppy_freq = chain(a→b, slop) + chain(b→a, slop), each direction
        the same greedy in-order matcher as ``_score_phrase_slop`` with
        adjacent expected offsets (0, 1) and sloppy weight 1/(1+gap); the
        two per-doc direction sums add once (the SQL twin adds its two
        comprehension legs in the same order). Identical terms degenerate
        to the single forward direction (counting both would double every
        pair). Scored as the span query's summed-idf BM25 saturation."""
        terms, k, slop = q.terms, q.k, q.slop
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if len(terms) != 2:
            return empty
        uterms = sorted(set(terms))
        if any(self._cache.get(t) is None for t in uterms):
            return empty
        idf_sum = 0.0
        for t in terms:
            idf_sum += _idf(self.N, self._cache[t].df)
        if any(self._pos_cache.get(t) is None for t in uterms):
            return empty
        a, b = terms
        legs = [self._chain_stf([a, b], [0, 1], slop)]
        if a != b:
            legs.append(self._chain_stf([b, a], [0, 1], slop))
        legs = [r for r in legs if r is not None]
        if not legs:
            return empty
        alldocs = np.concatenate([r[0] for r in legs])
        allstf = np.concatenate([r[1] for r in legs])
        cand, inv = np.unique(alldocs, return_inverse=True)
        stf = np.zeros(len(cand), dtype=np.float64)
        np.add.at(stf, inv, allstf)  # forward leg first, then backward
        _, _, cdoc, cdl = self._pos_cache[terms[0]]
        dl = cdl[np.searchsorted(cdoc, cand)]
        scores = idf_sum * tfnorm(
            stf, dl.astype(np.float64), self.avgdl, self.k1, self.b
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _score_span_first(self, q: _Query):
        """Lucene/OpenSearch span_first over a single-term inner span: a doc
        matches when the term occurs at a position strictly below ``end``.
        Lucene's SpanScorer accumulates sloppyFreq(matchWidth) per matching
        span and a one-term span has width 0, so freq = the count of
        qualifying positions; the doc scores idf * tfnorm(freq, dl) exactly
        like a phrase/span query (stages/search._score_span_near)."""
        terms, k, end = q.terms, q.k, q.end
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if len(terms) != 1:
            return empty
        t = terms[0]
        if self._cache.get(t) is None or self._pos_cache.get(t) is None:
            return empty
        dpp, pos, cdoc, cdl = self._pos_cache[t]
        m = pos < end
        if not m.any():
            return empty
        cand, stf = np.unique(dpp[m], return_counts=True)
        dl = cdl[np.searchsorted(cdoc, cand)]
        idf = _idf(self.N, self._cache[t].df)
        scores = idf * tfnorm(
            stf.astype(np.float64), dl.astype(np.float64),
            self.avgdl, self.k1, self.b,
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _score_span_or(self, q: _Query):
        """Lucene/OpenSearch span_or over single-term inner spans: the union
        of the clauses' spans. Single-term spans never overlap, so per doc
        freq = the sum of the matching clauses' term frequencies — postings
        only, no positional reads. Scored as the span query's summed-idf
        BM25 saturation (the same SpanScorer shape as ``_score_span_near``);
        clauses absent from the index contribute nothing (SpanOrQuery drops
        empty clauses), and the idf sums over present clauses only."""
        terms, k = q.terms, q.k
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        idf_sum = 0.0
        parts = []
        for t in sorted(set(terms)):
            tp = self._cache.get(t)
            if tp is None:
                continue
            idf_sum += _idf(self.N, tp.df)
            parts.append(tp.decode_all())
        if not parts:
            return empty
        alldocs = np.concatenate([p[0] for p in parts])
        alltf = np.concatenate([p[1] for p in parts])
        alldl = np.concatenate([p[2] for p in parts])
        cand, inv = np.unique(alldocs, return_inverse=True)
        stf = np.zeros(len(cand), dtype=np.float64)
        np.add.at(stf, inv, alltf.astype(np.float64))
        dl = np.zeros(len(cand), dtype=np.float64)
        dl[inv] = alldl  # every clause stores the same per-doc length
        scores = idf_sum * tfnorm(stf, dl, self.avgdl, self.k1, self.b)
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _score_span_not(self, q: _Query):
        """Lucene/OpenSearch span_not(include, exclude, pre, post) with
        single-term include/exclude spans: an occurrence of ``include`` at
        position p survives unless ``exclude`` occurs within
        [p - pre, p + post] in the same doc; freq = surviving-occurrence
        count, scored idf * tfnorm(freq, dl) (width-0 SpanScorer, as
        ``_score_span_first``). A missing exclude term excludes nothing —
        span_not degenerates to the inner span. Vectorized via the packed
        (docid << 21 | position) key space (``_POS_PACK`` invariant), one
        searchsorted pair per occurrence."""
        terms, k, exclude = q.terms, q.k, q.exclude
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if len(terms) != 1:
            return empty
        t = terms[0]
        if self._cache.get(t) is None or self._pos_cache.get(t) is None:
            return empty
        dpp, pos, cdoc, cdl = self._pos_cache[t]
        keep = np.ones(len(dpp), dtype=bool)
        if exclude is not None and self._pos_cache.get(exclude) is not None:
            dppb, posb, _, _ = self._pos_cache[exclude]
            K = self._POS_PACK
            keyb = dppb * K + posb  # docid-major, position-minor: sorted
            lo = np.searchsorted(keyb, dpp * K + np.maximum(pos - self.span_pre, 0))
            hi = np.searchsorted(
                keyb, dpp * K + np.minimum(pos + self.span_post, K - 1),
                side="right",
            )
            keep = hi <= lo  # no exclude occurrence inside the window
        if not keep.any():
            return empty
        cand, stf = np.unique(dpp[keep], return_counts=True)
        dl = cdl[np.searchsorted(cdoc, cand)]
        idf = _idf(self.N, self._cache[t].df)
        scores = idf * tfnorm(
            stf.astype(np.float64), dl.astype(np.float64),
            self.avgdl, self.k1, self.b,
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _deny_set(self, exclude_terms: list[str]) -> np.ndarray:
        """bool.must_not: the sorted union of the excluded terms' posting
        docids (per query — unlike tombstones/filters, which are per-actor).
        Scale note: excluding a stopword makes this corpus-sized, exactly as
        a Lucene must_not on a stopword walks that full posting list."""
        parts = []
        for t in exclude_terms:
            tp = self._cache.get(t)
            if tp is not None:
                docids, _, _ = tp.decode_all()
                parts.append(docids)
        if not parts:
            return np.empty(0, np.int64)
        return np.unique(np.concatenate(parts))

    @staticmethod
    def _after_mask(docids: np.ndarray, scores: np.ndarray, after) -> np.ndarray:
        """search_after cursor (Lucene searchAfter under the engine's
        (score desc, docid asc) sort): keep docs STRICTLY after the cursor —
        lower score, or equal score with a higher docid."""
        cs, cd = after
        return (scores < cs) | ((scores == cs) & (docids > cd))

    def _need(self, terms: list[str]) -> int:
        """Required distinct-matched-term count for a doc to qualify:
        len(terms) under operator='and', min_should_match if set, else 1."""
        if self.operator == "and":
            return len(terms)
        return self.msm or 1

    def _score_intervals(self, q: _Query):
        """OpenSearch ``intervals`` query, ``match`` rule with
        ``ordered=true, max_gaps=N`` over a two-term source: an interval is
        an occurrence of the SECOND term at position p2 with an occurrence
        of the first term at p1 < p2 and gap p2 - p1 - 1 <= max_gaps; each
        p2 anchors at most one interval (the Lucene minimal-interval
        convention — intervals sharing an end position collapse). freq =
        interval count per doc, scored (Σ idf) * tfnorm(freq, dl) like the
        other positional queries. Vectorized via the packed
        (docid << 21 | position) key space, one searchsorted pair per t2
        occurrence (the ``_score_span_not`` machinery with the polarity
        flipped and an asymmetric, ordered window)."""
        terms, k, max_gaps = q.terms, q.k, q.gaps
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if len(terms) < 2:
            return empty  # an interval needs both endpoints
        t1, t2 = terms[0], terms[1]  # two-term source (extras ignored)
        if (self._cache.get(t1) is None or self._pos_cache.get(t1) is None
                or self._cache.get(t2) is None or self._pos_cache.get(t2) is None):
            return empty
        dpp1, pos1, _, _ = self._pos_cache[t1]
        dpp2, pos2, cdoc2, cdl2 = self._pos_cache[t2]
        K = self._POS_PACK
        key1 = dpp1 * K + pos1  # docid-major, position-minor: sorted
        lo = np.searchsorted(key1, dpp2 * K + np.maximum(pos2 - max_gaps - 1, 0))
        hi = np.searchsorted(key1, dpp2 * K + (pos2 - 1), side="right")
        keep = hi > lo  # some t1 occurrence inside the ordered window
        if not keep.any():
            return empty
        cand, stf = np.unique(dpp2[keep], return_counts=True)
        dl = cdl2[np.searchsorted(cdoc2, cand)]
        idf_sum = _idf(self.N, self._cache[t1].df) + _idf(self.N, self._cache[t2].df)
        scores = idf_sum * tfnorm(
            stf.astype(np.float64), dl.astype(np.float64),
            self.avgdl, self.k1, self.b,
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _big_spans(self, t1: str, t2: str, slop: int):
        """Minimal ordered two-term spans for span_containing/span_within:
        for each occurrence of ``t2`` at position p2 with some occurrence of
        ``t1`` at p1 < p2 and gap p2 - p1 - 1 <= slop, the span
        [p1*, p2] where p1* is the CLOSEST preceding qualifying t1 — one
        span per end position, the Lucene minimal-interval convention
        (``_score_intervals``). Returns (doc, start, end, cdoc2, cdl2)
        arrays sorted docid-major / end-minor, or None when either term is
        absent or no window qualifies. Tokens beyond the first two are
        ignored — the same two-term-source convention as
        ``_score_intervals`` (documented, not an error)."""
        if (self._cache.get(t1) is None or self._pos_cache.get(t1) is None
                or self._cache.get(t2) is None or self._pos_cache.get(t2) is None):
            return None
        dpp1, pos1, _, _ = self._pos_cache[t1]
        dpp2, pos2, cdoc2, cdl2 = self._pos_cache[t2]
        K = self._POS_PACK
        key1 = dpp1 * K + pos1  # docid-major, position-minor: sorted
        lo = np.searchsorted(key1, dpp2 * K + np.maximum(pos2 - slop - 1, 0))
        hi = np.searchsorted(key1, dpp2 * K + (pos2 - 1), side="right")
        valid = hi > lo
        if not valid.any():
            return None
        return (dpp2[valid], pos1[hi[valid] - 1], pos2[valid], cdoc2, cdl2)

    def _score_span_containing(self, q: _Query):
        """Lucene/OpenSearch span_containing(big, little): big spans (the
        minimal ordered two-term windows of ``_big_spans``) that contain an
        occurrence of the single-term ``little`` span, i.e. start <= p3 <=
        end. freq = qualifying big spans per doc, scored
        (idf(t1) + idf(t2)) * tfnorm(freq, dl) — the little clause acts as
        a filter (Lucene's two-phase containment check), contributing
        match constraints but no similarity weight. Vectorized: one
        searchsorted pair per big span over the little term's packed
        (docid << 21 | position) keys."""
        terms, k, little, slop = q.terms, q.k, q.little, q.slop
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if len(terms) < 2 or little is None:
            return empty
        t1, t2 = terms[0], terms[1]
        if self._pos_cache.get(little) is None:
            return empty
        big = self._big_spans(t1, t2, slop)
        if big is None:
            return empty
        doc, s, e, cdoc2, cdl2 = big
        dpp3, pos3, _, _ = self._pos_cache[little]
        K = self._POS_PACK
        key3 = dpp3 * K + pos3
        lo3 = np.searchsorted(key3, doc * K + s)
        hi3 = np.searchsorted(key3, doc * K + e, side="right")
        keep = hi3 > lo3  # some little occurrence inside [s, e]
        if not keep.any():
            return empty
        cand, stf = np.unique(doc[keep], return_counts=True)
        dl = cdl2[np.searchsorted(cdoc2, cand)]
        idf_sum = _idf(self.N, self._cache[t1].df) + _idf(self.N, self._cache[t2].df)
        scores = idf_sum * tfnorm(
            stf.astype(np.float64), dl.astype(np.float64),
            self.avgdl, self.k1, self.b,
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _score_span_within(self, q: _Query):
        """Lucene/OpenSearch span_within(little, big): occurrences of the
        single-term ``little`` span contained in SOME big span (the minimal
        ordered two-term windows of ``_big_spans``). freq = contained
        occurrences per doc, scored idf(little) * tfnorm(freq, dl) — the
        enclosing big clause is the filter (the mirror of
        ``_score_span_containing``). Vectorized containment: big spans are
        docid-major / end-minor sorted, so a per-doc SUFFIX-min over packed
        (docid << 21 | start) keys answers "is there a span with end >= p3
        and start <= p3" with one searchsorted per little occurrence —
        later docs' packed starts exceed (docid + 1) << 21 and can never
        shadow the current doc's minimum."""
        terms, k, little, slop = q.terms, q.k, q.little, q.slop
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if len(terms) < 2 or little is None:
            return empty
        t1, t2 = terms[0], terms[1]
        if (self._cache.get(little) is None
                or self._pos_cache.get(little) is None):
            return empty
        big = self._big_spans(t1, t2, slop)
        if big is None:
            return empty
        doc, s, e, _, _ = big
        dpp3, pos3, cdoc3, cdl3 = self._pos_cache[little]
        K = self._POS_PACK
        packed_e = doc * K + e  # sorted: doc-major, end-minor
        suff_min_s = np.minimum.accumulate((doc * K + s)[::-1])[::-1]
        key3 = dpp3 * K + pos3
        i = np.searchsorted(packed_e, key3)  # first span with end >= p3
        ok = i < len(packed_e)
        ok[ok] = suff_min_s[i[ok]] <= key3[ok]  # some start <= p3 (same doc)
        if not ok.any():
            return empty
        cand, stf = np.unique(dpp3[ok], return_counts=True)
        dl = cdl3[np.searchsorted(cdoc3, cand)]
        idf = _idf(self.N, self._cache[little].df)
        scores = idf * tfnorm(
            stf.astype(np.float64), dl.astype(np.float64),
            self.avgdl, self.k1, self.b,
        )
        cand, scores = self._drop_tombstoned(cand, scores)
        sel = topk_order(scores, cand, k)
        return cand[sel], scores[sel]

    def _score_terms_set(self, q: _Query):
        """OpenSearch ``terms_set`` query (Lucene CoveringQuery): a doc
        matches when it contains at least ``required(doc)`` of the query's
        distinct terms, where the required count comes from the per-actor
        ``msm_script`` over v = the doc's length (OpenSearch's
        minimum_should_match_script; a field-driven per-doc threshold,
        unlike the per-query scalar ``min_should_match``). Matching docs
        score the BM25 sum of ALL their matching clauses, accumulated
        term-ascending like the exhaustive scorer. A required count above
        the query's present-term count matches nothing for that doc; below
        1 it clamps to 1 (CoveringQuery's minimumNumberMatch floor)."""
        terms, k, deny = q.terms, q.k, q.deny
        doc_parts, contrib_parts, dl_parts = [], [], []
        for t in sorted(set(terms)):
            tp = self._cache.get(t)
            if tp is None:
                continue
            w = _idf(self.N, tp.df)
            docids, _, dl = tp.decode_all()
            doc_parts.append(docids)
            dl_parts.append(dl)
            contrib_parts.append(w * tp.tfnorms(self.avgdl, self.k1, self.b))
        if not doc_parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        all_doc = np.concatenate(doc_parts)
        uniq, inv = np.unique(all_doc, return_inverse=True)
        scores = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(scores, inv, np.concatenate(contrib_parts))
        hits = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(hits, inv, 1)
        dl_u = np.zeros(len(uniq), dtype=np.int64)
        dl_u[inv] = np.concatenate(dl_parts)  # same doc -> same dl
        required = np.maximum(self._msm_fn(dl_u), 1)
        keep = hits >= required
        uniq, scores = uniq[keep], scores[keep]
        uniq, scores = self._drop_tombstoned(uniq, scores)
        if deny is not None and len(deny):
            from remote_vector_index_builder_ray.stages.merge import isin_sorted

            m = ~isin_sorted(uniq, deny)
            uniq, scores = uniq[m], scores[m]
        sel = topk_order(scores, uniq, k)
        return uniq[sel], scores[sel]

    def _score_constant(self, q: _Query):
        """Constant-score union (Lucene MultiTermQuery CONSTANT_SCORE
        rewrite; OpenSearch terms/prefix/wildcard queries): every doc
        containing ANY of the terms scores 1.0; the engine's (score desc,
        docid asc) total order makes the top-k the k smallest matching
        docids. Only the docid streams are decoded."""
        terms, k, after, deny, allow = q.terms, q.k, q.after, q.deny, q.allow
        slicing = q.slicing
        doc_parts = []
        for t in terms:
            tp = self._cache.get(t)
            if tp is not None:
                docids, _, _ = tp.decode_all()
                doc_parts.append(docids)
        if not doc_parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        uniq = np.unique(np.concatenate(doc_parts))
        uniq, _ = self._drop_tombstoned(uniq, np.zeros(len(uniq)))
        if deny is not None and len(deny):
            from remote_vector_index_builder_ray.stages.merge import isin_sorted

            uniq = uniq[~isin_sorted(uniq, deny)]
        uniq, _ = self._apply_allow(uniq, np.ones(len(uniq)), allow)
        if slicing is not None:
            sid, smax = slicing  # sliced scroll — see _score_exhaustive
            uniq = uniq[(uniq % smax) == sid]
        if after is not None:
            uniq = uniq[self._after_mask(uniq, np.ones(len(uniq)), after)]
        uniq = uniq[:k]
        return uniq, np.ones(len(uniq), dtype=np.float64)

    def _explain(self, q: _Query):
        """Per-term score breakdown for the given docs (the Lucene explain
        analog): one row per (doc, matching term) with tf, df and the term's
        BM25 contribution — contributions sum (term-ascending, the engine's
        accumulation order) to the search score exactly."""
        parts = [(np.empty(0, np.int64), np.empty(0, object),
                  np.empty(0, np.int64), np.empty(0, np.int64),
                  np.empty(0, np.float64))]
        sel = np.sort(np.asarray(q.docids or [], dtype=np.int64))
        for t in q.terms:  # ascending term order == accumulation order
            tp = self._cache.get(t)
            if tp is None or len(sel) == 0:
                continue
            w = _idf(self.N, tp.df)
            d, tf, dl = tp.decode_all()
            idx = np.clip(np.searchsorted(d, sel), 0, len(d) - 1)
            mask = d[idx] == sel
            if not mask.any():
                continue
            ii = idx[mask]
            contrib = w * tfnorm(
                tf[ii].astype(np.float64), dl[ii].astype(np.float64),
                self.avgdl, self.k1, self.b,
            )
            n = len(ii)
            parts.append((sel[mask], np.full(n, t, dtype=object), tf[ii],
                          np.full(n, tp.df, dtype=np.int64), contrib))
        return tuple(map(np.concatenate, zip(*parts)))

    def _conv_starts(self) -> np.ndarray:
        """Sorted first-docids of every conversation (base + generations):
        docid -> conversation is a searchsorted over this array, because
        docids are dense in (conv_id, turn_idx) order (stages/docids). At
        12M turns this is ~16 MB per actor; at 10^12 turns the conv map
        would ride the docmeta probe pattern instead (pipelines/aggs)."""
        if getattr(self, "_conv_off", None) is None:
            offs = []
            for d in [self._index_dir] + self._gen_dirs:
                p = self._fs.join(d, "conv_offsets.parquet")
                if self._fs.exists(p):
                    t = self._fs.read_table(p, columns=["offset"])
                    offs.append(
                        t["offset"].to_numpy(zero_copy_only=False).astype(np.int64)
                    )
                    continue
                # sharded checkpoint (stages/docids.persist_sharded_offsets):
                # one file per conv-range block
                sd = self._fs.join(d, "conv_offsets")
                if self._fs.exists(sd):
                    for rel in sorted(self._fs.listdir(sd)):
                        if rel.endswith(".parquet"):
                            t = self._fs.read_table(
                                self._fs.join(sd, rel), columns=["offset"]
                            )
                            offs.append(
                                t["offset"].to_numpy(zero_copy_only=False).astype(np.int64)
                            )
            if not offs:
                from remote_vector_index_builder_ray.config import EngineError

                raise EngineError(
                    "collapse requires the dense-docid conv_offsets artifact "
                    "(BuildConfig(docid_mode='dense'))"
                )
            self._conv_off = np.sort(np.concatenate(offs))
        return self._conv_off

    def _score_collapse(self, q: _Query):
        """Field collapsing on the conversation (OpenSearch collapse): the
        top-k CONVERSATIONS by their best-scoring turn; one hit (the best
        turn) per conversation. Needs every match's score, so it rides the
        exhaustive scorer. ``collapse_round6`` orders by 6-decimal-rounded
        scores — the driver's cross-engine float policy — instead of raw
        float64.

        ``collapse_inner`` > 0 is OpenSearch collapse ``inner_hits``: each of
        the top-k conversations returns its best ``inner`` turns (score desc,
        docid asc within the conversation), flattened conversation-major —
        rank then numbers the flattened rows."""
        k, round6, inner = q.k, self.collapse_round6, self.collapse_inner
        docids, scores = self._score_exhaustive(_Query(q.qid, q.terms, 1 << 62))
        if len(docids) == 0:
            return docids, scores
        cmp = np.round(scores, 6) if round6 else scores
        order = np.lexsort((docids, -cmp))
        d, s = docids[order], scores[order]
        conv = np.searchsorted(self._conv_starts(), d, side="right") - 1
        first = np.sort(np.unique(conv, return_index=True)[1])[:k]
        if inner <= 0:
            return d[first], s[first]
        # conv-rank order == leader position order
        m = np.concatenate([np.flatnonzero(conv == conv[lead])[:inner]
                            for lead in first])
        return d[m], s[m]

    def _score_blended(self, q: _Query):
        """Lucene SynonymQuery blended scoring: each synonym group scores as
        ONE pseudo-term with df = max over the group's members and per-doc
        tf = sum of the members' tfs (dl is a doc property, shared). Groups
        accumulate in ascending (lexicographic group) order in float64, the
        engine's determinism convention."""
        groups, k = q.groups, q.k
        doc_parts, contrib_parts = [], []
        for group in sorted(tuple(sorted(set(g))) for g in groups):
            members = [
                self._cache[t] for t in group if self._cache.get(t) is not None
            ]
            if not members:
                continue
            w = _idf(self.N, max(tp.df for tp in members))
            ds, tfs, dls = [], [], []
            for tp in members:
                d, tf, dl = tp.decode_all()
                ds.append(d)
                tfs.append(tf)
                dls.append(dl)
            alld = np.concatenate(ds)
            uniq, inv = np.unique(alld, return_inverse=True)
            tf_sum = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(tf_sum, inv, np.concatenate(tfs))
            dl_u = np.zeros(len(uniq), dtype=np.int64)
            dl_u[inv] = np.concatenate(dls)  # same doc -> same dl
            doc_parts.append(uniq)
            contrib_parts.append(
                w * tfnorm(
                    tf_sum.astype(np.float64), dl_u.astype(np.float64),
                    self.avgdl, self.k1, self.b,
                )
            )
        if not doc_parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        all_doc = np.concatenate(doc_parts)
        all_con = np.concatenate(contrib_parts)
        uniq, inv = np.unique(all_doc, return_inverse=True)
        scores = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(scores, inv, all_con)  # group-major ascending order
        uniq, scores = self._drop_tombstoned(uniq, scores)
        sel = topk_order(scores, uniq, k)
        return uniq[sel], scores[sel]

    def _score_dismax(self, q: _Query):
        """Lucene DisjunctionMaxQuery over the query's term queries: a doc
        scores max(term contributions) + tie_breaker * (sum - max) — the
        best single term dominates instead of term contributions adding up.
        tie_breaker=0 is the classic dis_max; tie_breaker=1 equals the OR
        sum. max is order-independent; the residual sum accumulates
        term-ascending as everywhere else."""
        terms, k = q.terms, q.k
        doc_parts, contrib_parts = [], []
        for t in terms:
            tp = self._cache.get(t)
            if tp is None:
                continue
            w = _idf(self.N, tp.df)
            docids, _, _ = tp.decode_all()
            doc_parts.append(docids)
            contrib_parts.append(w * tp.tfnorms(self.avgdl, self.k1, self.b))
        if not doc_parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        all_doc = np.concatenate(doc_parts)
        all_con = np.concatenate(contrib_parts)
        uniq, inv = np.unique(all_doc, return_inverse=True)
        smax = np.full(len(uniq), -np.inf)
        np.maximum.at(smax, inv, all_con)
        scores = smax
        if self.tie_breaker != 0.0:
            ssum = np.zeros(len(uniq), dtype=np.float64)
            np.add.at(ssum, inv, all_con)
            scores = smax + self.tie_breaker * (ssum - smax)
        uniq, scores = self._drop_tombstoned(uniq, scores)
        sel = topk_order(scores, uniq, k)
        return uniq[sel], scores[sel]

    # -- scoring --------------------------------------------------------------
    @staticmethod
    def _apply_allow(uniq: np.ndarray, scores: np.ndarray, allow):
        """Per-query ALLOW set (bool.filter on the indexed field,
        ``filter_text``): keep only candidates in the sorted set. An EMPTY
        set (every filter term absent from the index) matches nothing —
        distinct from ``allow is None`` (no filter)."""
        if allow is None or len(uniq) == 0:
            return uniq, scores
        if len(allow) == 0:
            return uniq[:0], scores[:0]
        from remote_vector_index_builder_ray.stages.merge import isin_sorted

        keep = isin_sorted(uniq, allow)
        return uniq[keep], scores[keep]

    def _score_exhaustive(self, q: _Query):
        terms, k, after, deny, allow = q.terms, q.k, q.after, q.deny, q.allow
        demote, slicing, weights = q.demote, q.slicing, q.weights
        need = self._need(terms)
        if need > 1:
            n_present = sum(1 for t in terms if self._cache.get(t) is not None)
            if need > n_present:  # covers msm > n_terms and absent AND terms
                return np.empty(0, np.int64), np.empty(0, np.float64)
        doc_parts, contrib_parts = [], []
        for t in terms:  # ascending term order fixes float addition order
            tp = self._cache.get(t)
            if tp is None:
                continue
            if self.similarity != "bm25":
                from remote_vector_index_builder_ray.functions.bm25 import sim_contrib

                docids, tfs, dls = tp.decode_all()
                if self._sim_fn is not None:
                    contrib = self._sim_fn(tfs, dls, tp.df, tp.cf,
                                           self.N, self.total_len)
                else:
                    contrib = sim_contrib(self.similarity, tfs, dls, tp.df,
                                          tp.cf, self.N, self.total_len)
                if weights is not None:
                    contrib = contrib * float(weights.get(t, 1.0))
                doc_parts.append(docids)
                contrib_parts.append(contrib)
                continue
            df_t = (self._df_override.get(t, tp.df)
                    if self._df_override is not None else tp.df)
            w = 1.0 if self.unit_idf else _idf(self.N, df_t)
            if weights is not None:
                # per-term query boost (OpenSearch query_string term^boost):
                # the clause's contribution is multiplied by its boost
                w *= float(weights.get(t, 1.0))
            docids, _, _ = tp.decode_all()
            doc_parts.append(docids)
            contrib_parts.append(w * tp.tfnorms(self.avgdl, self.k1, self.b))
        if not doc_parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        all_doc = np.concatenate(doc_parts)
        all_con = np.concatenate(contrib_parts)
        uniq, inv = np.unique(all_doc, return_inverse=True)
        scores = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(scores, inv, all_con)  # sequential, term-major == oracle order
        if need > 1 and len(doc_parts) > 1:
            # a doc appears once per term list: its multiplicity IS its
            # distinct-term count; require at least `need` terms present
            hits = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(hits, inv, 1)
            full = hits >= need
            uniq, scores = uniq[full], scores[full]
        uniq, scores = self._drop_tombstoned(uniq, scores)
        if deny is not None and len(deny):
            from remote_vector_index_builder_ray.stages.merge import isin_sorted

            keep = ~isin_sorted(uniq, deny)
            uniq, scores = uniq[keep], scores[keep]
        uniq, scores = self._apply_allow(uniq, scores, allow)
        if slicing is not None:
            # sliced scroll (OpenSearch slice{id,max}): this slice keeps the
            # docs with docid % max == id — a disjoint, exhaustive partition
            # of the match set (OpenSearch slices on a hash of _id; docids
            # are this engine's _id). Scores are unchanged; applied before
            # top-k, so each slice ranks its own partition completely.
            sid, smax = slicing
            keep = (uniq % smax) == sid
            uniq, scores = uniq[keep], scores[keep]
        if demote is not None:
            # Lucene BoostingQuery: docs matching the negative query keep
            # matching but their score is multiplied by negative_boost.
            # Applied across ALL positive matches before top-k (a demoted
            # doc can fall out and let lower docs in) — which is why this
            # runs in the exhaustive scorer: demotion invalidates the
            # block-max upper bounds bmw prunes with.
            neg_set, factor = demote
            if len(neg_set):
                from remote_vector_index_builder_ray.stages.merge import isin_sorted

                hit = isin_sorted(uniq, neg_set)
                scores = np.where(hit, scores * factor, scores)
        if after is not None:
            keep = self._after_mask(uniq, scores, after)
            uniq, scores = uniq[keep], scores[keep]
        sel = topk_order(scores, uniq, k)
        return uniq[sel], scores[sel]

    def _score_bmw(self, q: _Query):
        """Vectorized block-max pruning ("bmw", the default).

        The doc space splits into docid-range chunks with a precomputed
        per-chunk upper bound (sum over terms of the max block-max of the
        blocks overlapping the chunk). Chunks are processed in DESCENDING
        bound order: the k-heap threshold fills from the most promising
        chunks first, and the moment the next bound cannot beat the running
        k-th score the loop ends — every remaining chunk is provably worse
        (bounds are sorted). Surviving chunks score exactly (same
        term-ascending float64 accumulation as the oracle), and chunk order
        does not affect scores (docs are chunk-local) or the top-k
        ((score desc, docid asc) selection is order-independent), so results
        stay bit-identical to the exhaustive scorer. The docid-order walk of
        round 1 pruned poorly on mixed stopword+rare queries (threshold
        filled too late; measured 17% SLOWER than exhaustive at sf0.1) —
        best-first turns those into a handful of scored chunks + one break.
        """
        terms, k, after, deny, allow = q.terms, q.k, q.after, q.deny, q.allow
        need = self._need(terms)
        if need > 1:
            n_present = sum(1 for t in terms if self._cache.get(t) is not None)
            if need > n_present:
                return np.empty(0, np.int64), np.empty(0, np.float64)
        tinfo = []
        for t in terms:  # ascending term order
            tp = self._cache.get(t)
            if tp is None:
                continue
            w = _idf(self.N, tp.df)
            tinfo.append((tp, w, w * tp.maxtn))
        if not tinfo:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        max_doc = max(int(tp.last[-1]) for tp, _, _ in tinfo)
        C = max(16384, (max_doc + 4095) // 4096)  # <= ~4096 chunks
        nchunks = max_doc // C + 1
        # per-chunk upper bounds, one vectorized pass per term: block i
        # (docids [first, last]) contributes its bound to chunks
        # first//C .. last//C (blocks are ~100x smaller than chunks, so the
        # multi-chunk spill loop touches only boundary blocks)
        ub = np.zeros(nchunks, dtype=np.float64)
        for tp, _, bub in tinfo:
            ub_t = np.zeros(nchunks, dtype=np.float64)
            c_lo = tp.first // C
            c_hi = tp.last // C
            np.maximum.at(ub_t, c_lo, bub)
            for i in np.flatnonzero(c_hi > c_lo):
                ub_t[c_lo[i]:c_hi[i] + 1] = np.maximum(
                    ub_t[c_lo[i]:c_hi[i] + 1], bub[i]
                )
            ub += ub_t
        order = np.argsort(-ub, kind="stable")
        top_docs = np.empty(0, np.int64)
        top_scores = np.empty(0, np.float64)
        threshold = -np.inf
        for c in order:
            if ub[c] <= 0.0:
                break  # no postings in this chunk, nor any later (sorted)
            if len(top_docs) == k and ub[c] <= threshold:
                break  # sorted desc: every remaining chunk is worse
            lo, hi = int(c) * C, (int(c) + 1) * C
            # surviving chunk: decode ONLY the overlapping block ranges
            parts_d, parts_c = [], []
            for tp, w, _ in tinfo:
                bs = int(np.searchsorted(tp.last, lo))
                be = int(np.searchsorted(tp.first, hi, side="left"))
                if bs >= be:
                    continue
                docids, tfs, dls = tp.decode_block_range(bs, be)
                s = int(np.searchsorted(docids, lo))
                e = int(np.searchsorted(docids, hi))
                if s < e:
                    parts_d.append(docids[s:e])
                    parts_c.append(w * tfnorm(tfs[s:e], dls[s:e], self.avgdl, self.k1, self.b))
            if not parts_d:
                continue
            alld = np.concatenate(parts_d)
            allc = np.concatenate(parts_c)
            uniq, inv = np.unique(alld, return_inverse=True)
            sc = np.zeros(len(uniq), dtype=np.float64)
            np.add.at(sc, inv, allc)  # term-major order == oracle order
            if need > 1 and len(tinfo) > 1:
                # docid ranges are chunk-local, so a doc's every term
                # contribution lands in THIS chunk: multiplicity == term count
                hits = np.zeros(len(uniq), dtype=np.int64)
                np.add.at(hits, inv, 1)
                full = hits >= need
                uniq, sc = uniq[full], sc[full]
            uniq, sc = self._drop_tombstoned(uniq, sc)
            if deny is not None and len(deny):
                from remote_vector_index_builder_ray.stages.merge import isin_sorted

                keep = ~isin_sorted(uniq, deny)
                uniq, sc = uniq[keep], sc[keep]
            uniq, sc = self._apply_allow(uniq, sc, allow)
            if after is not None:
                keep = self._after_mask(uniq, sc, after)
                uniq, sc = uniq[keep], sc[keep]
            top_docs = np.concatenate([top_docs, uniq])
            top_scores = np.concatenate([top_scores, sc])
            sel = topk_order(top_scores, top_docs, k)
            top_docs, top_scores = top_docs[sel], top_scores[sel]
            if len(top_docs) == k:
                threshold = float(top_scores[-1])
        return top_docs, top_scores

    # -- batch entry ----------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        """Score every query of ``batch`` into the mode's result table:
        parse, score, ``_assemble``. A query with k=0 is not scored.

        Scorer contract: a scorer maps one ``_Query`` to numpy arrays, one
        per schema column after ``query_id`` (and ``rank``, if the schema
        has it), in result order; nothing re-sorts."""
        row = validate(self.mode, batch.column_names)
        score = getattr(self, row.scorer)
        qs = [q for q in self._parse(batch, row) if q.k]
        return self._assemble(qs, [score(q) for q in qs], row)

    @staticmethod
    def _assemble(qs: list[_Query], hits: list, row: Mode) -> pa.Table:
        """The result table of the scored queries ``qs``, built per
        column, not per row: ``query_id`` repeats each id over its hit
        count, ``rank`` counts from 1 within each query, every other
        column is one concatenation of the scorers' ``hits``."""
        lens = np.fromiter((len(h[0]) for h in hits), np.int64, len(hits))
        cols = [np.repeat(np.fromiter((q.qid for q in qs), np.int64, len(qs)), lens)]
        if "rank" in row.schema.names:
            cols.append(np.arange(1, lens.sum() + 1)
                        - np.repeat(np.cumsum(lens) - lens, lens))
        # an empty object array converts to any Arrow type (an empty batch)
        cols += [np.concatenate([h[i] for h in hits] or [np.empty(0, object)])
                 for i in range(len(row.schema) - len(cols))]
        return pa.Table.from_arrays(
            [pa.array(c, type=f.type) for c, f in zip(cols, row.schema)],
            schema=row.schema,
        )

    def _parse(self, batch: pa.Table, row: Mode) -> list[_Query]:
        """One ``_Query`` per row of ``batch``, with every optional column
        present read into it (``validate`` has checked them against the
        mode's row); loads the postings and positions the batch touches."""
        an = self._analyzer
        cols = set(batch.column_names)

        def col(name: str) -> list:
            return batch[name].to_pylist()

        def bags(texts: list) -> list[list[str]]:
            return [sorted(set(analyze_text(t or "", an))) for t in texts]

        n = batch.num_rows
        offsets = groups = [None] * n
        if "groups" in cols:
            # synonym groups (list<list<string>> column): each group scores
            # as one pseudo-term (SynonymQuery; pipelines/expand.search_synonyms)
            groups = [[list(g or []) for g in (gs or [])] for gs in col("groups")]
            terms = [sorted({t for g in gs for t in g}) for gs in groups]
        elif "terms" in cols:
            # pre-analyzed term lists (pipelines/expand: terms / prefix /
            # wildcard / fuzzy queries) — exact terms, no tokenization
            terms = [list(lst or []) if row.offsets else sorted(set(lst or []))
                     for lst in col("terms")]
        elif row.ordered:
            # phrase/span/interval semantics: token ORDER matters, duplicates
            # kept; under a filtering analyzer the pre-filter token indices
            # ride along so the phrase matcher demands the index's position
            # gaps
            from remote_vector_index_builder_ray.functions.tokenizer import (
                analyze_text_positions,
            )

            analyzed = [analyze_text_positions(t or "", an) for t in col("text")]
            terms = [a[0] for a in analyzed]
            offsets = [a[1] for a in analyzed]
        else:
            terms = bags(col("text"))
        ks = col("k") if "k" in cols else [10] * n
        qs = [_Query(int(qid), t, int(k) if k is not None else 10)
              for qid, t, k in zip(col("query_id"), terms, ks)]
        for q, off, gs in zip(qs, offsets, groups):
            q.offsets, q.groups = off, gs
        if "explain_docids" in cols:
            for q, sel in zip(qs, col("explain_docids")):
                q.docids = sel
        # single-term spans: span_not's exclude span (its occurrences void
        # nearby include spans) and span_containing/span_within's little
        # span (tested for containment against the big two-term span)
        for name, attr in (("span_exclude", "exclude"), ("span_little", "little")):
            if name in cols:
                for q, t in zip(qs, col(name)):
                    toks = analyze_text(t or "", an)
                    setattr(q, attr, toks[0] if toks else None)
        all_terms = sorted(
            {t for q in qs for t in q.terms}
            | {t for q in qs for t in (q.exclude, q.little) if t is not None}
        )
        if all_terms:
            self._load_terms(all_terms)
            if row.positions == "pruned":
                # phrase/span_near require EVERY term in a matching doc, so
                # positional loads prune to the per-query candidate unions —
                # a stopword's 100k-row positional read becomes a few
                # hundred rows when paired with a rare term
                self._load_positions_pruned(
                    all_terms, self._phrase_needed([q.terms for q in qs])
                )
            elif row.positions:
                self._load_positions(all_terms)

        def posting_sets(name: str) -> list:
            # the sorted posting-docid union of each row's analyzed terms
            # (None for an empty row); the main query terms ride along in
            # the load so a cache eviction cannot drop postings the scorer
            # needs
            lists = bags(col(name))
            load = {t for lst in lists for t in lst}
            if load:
                self._load_terms(sorted(set(all_terms) | load))
            return [self._deny_set(lst) if lst else None for lst in lists]

        # search_after cursor: docs STRICTLY after (score, docid) in the
        # engine's (score desc, docid asc) order; a null cursor = first page
        if _AFTER <= cols:
            for q, sc, d in zip(qs, col("after_score"), col("after_docid")):
                q.after = None if sc is None else (float(sc), int(d))
        # bool.must_not: docs holding any excluded term drop
        if "exclude_text" in cols:
            for q, deny in zip(qs, posting_sets("exclude_text")):
                q.deny = deny
        # bool.filter on the INDEXED field — OpenSearch filter-context
        # semantics (candidates outside the set drop, scores unchanged). A
        # filter whose terms are all absent from the index matches nothing.
        if "filter_text" in cols:
            for q, allow in zip(qs, posting_sets("filter_text")):
                q.allow = allow
        if "allow_docids" in cols:
            # EXPLICIT per-query docid allow-list, same application as
            # filter_text. An EMPTY list matches nothing; a null entry
            # leaves that query unrestricted (search_terminate_after's
            # second pass)
            for q, lst in zip(qs, col("allow_docids")):
                q.allow = (None if lst is None
                           else np.sort(np.asarray(lst, dtype=np.int64)))
        # boosting query: docs matching the negative query keep matching,
        # score *= negative_boost
        if "negative_text" in cols:
            for q, neg in zip(qs, posting_sets("negative_text")):
                q.demote = None if neg is None else (neg, self.negative_boost)
        if "slop" in cols:
            for q, v in zip(qs, col("slop")):
                q.slop = int(v or 0)
        if "max_gaps" in cols:
            for q, v in zip(qs, col("max_gaps")):
                q.gaps = int(v) if v is not None else 0
        if "span_end" in cols:  # positions strictly below span_end qualify
            for q, v in zip(qs, col("span_end")):
                q.end = int(v) if v is not None else 1
        # sliced scroll: this slice keeps docid % slice_max == slice_id
        if _SLICE <= cols:
            for q, i, m in zip(qs, col("slice_id"), col("slice_max")):
                q.slicing = None if i is None or m is None else (int(i), int(m))
        if "weights" in cols:
            # per-term query boosts (OpenSearch query_string term^boost): a
            # list<double> column aligned element-wise with `terms`
            for q, lst, ws in zip(qs, col("terms"), col("weights")):
                q.weights = dict(zip(lst or [], ws or [])) or None
        return qs
