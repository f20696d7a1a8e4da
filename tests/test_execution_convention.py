"""The execution convention for Ray Data maps: every map in ``pipelines/``,
``stages/`` and ``extras/`` is a stateless task (a plain function given
``fn_args``). No map keeps an actor pool; the only searcher actors are the
warm ``QueryService`` pools. The searcher assembles its result tables as
columns, never row by row."""

import ast
import inspect
import pathlib
import textwrap

import remote_vector_index_builder_ray as pkg
from remote_vector_index_builder_ray.pipelines import aggs, query
from remote_vector_index_builder_ray.stages.search import BM25Searcher

ROOT = pathlib.Path(pkg.__file__).parent
TOKENS = ("concurrency=", "fn_constructor_args")


def test_no_map_keeps_an_actor_pool():
    found = [f"{path.relative_to(ROOT)}:{i}: {line.strip()}"
             for sub in ("pipelines", "stages", "extras")
             for path in sorted((ROOT / sub).glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if any(t in line for t in TOKENS)]
    assert found == []


def test_docmeta_probes_are_functions():
    """Every docmeta probe is an update function over the one semi-join
    (``aggs._pairs``): no class in ``pipelines/`` is a batch callable, and
    the per-query match-set views are gone from the package."""
    callables, views = [], []
    for path in sorted(ROOT.rglob("*.py")):
        text = path.read_text()
        rel = path.relative_to(ROOT)
        if rel.parts[0] == "pipelines":
            callables += [f"{rel}:{i}" for i, line in enumerate(text.splitlines(), 1)
                          if "def __call__(self, batch" in line]
        views += [f"{rel}: {t}" for t in ("for_batch", "_ShardedScored") if t in text]
    assert callables == []
    assert views == []


def test_probes_plan_no_docmeta_read():
    """A docmeta probe runs one task per file over the columns the
    ``QueryService`` owner pins: the probe path plans no Ray Data read and
    maps no batches. The query-side modules read docmeta only that way
    (``QueryService.map_docmeta``): none of them plans a Ray Data read,
    and ``_fetch_doc_lens`` is folded into ``hydrate``'s lookup."""
    found = [f"{name}: {t}"
             for name in ("_probe_ds", "_probe_partials", "_probe_refs")
             for t in ("read_parquet", "map_batches")
             if t in inspect.getsource(getattr(aggs, name))]
    found += [f"pipelines/{mod}.py: ray.data.read_parquet"
              for mod in ("query", "aggs", "join")
              if "data.read_parquet" in (ROOT / "pipelines" / f"{mod}.py").read_text()]
    assert found == []
    assert not hasattr(query, "_fetch_doc_lens")


def test_search_results_assemble_as_columns():
    """The searcher builds its result columns from numpy arrays: the batch
    entry, its column assembly and the scorers that build multi-row hits
    call no ``.tolist()`` and no ``.extend(``, so the per-row path cannot
    come back."""
    found = []
    for name in ("__call__", "_assemble", "_explain", "_score_collapse"):
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(BM25Searcher, name))))
        found += [f"{name}:{node.lineno}: .{node.func.attr}()"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("tolist", "extend")]
    assert found == []


def test_match_sets_are_packed_in_the_actors():
    """The searcher actors pack the match sets (``QueryService.run`` with
    ``pack``): the agg-side match-set production wraps no result in a
    Dataset, runs no search call and puts no piece, and the per-block pack
    task is gone."""
    found = [f"{name}: {t}"
             for name in ("_sharded_matches", "match_count")
             for t in ("from_arrow_refs", "to_arrow_refs", "search(", "ray.put")
             if t in inspect.getsource(getattr(aggs, name))]
    assert found == []
    assert not hasattr(aggs, "_pack_block")
