"""The execution convention for Ray Data maps: every map in ``pipelines/``
and ``stages/`` is a stateless task (a plain function given ``fn_args``).
The one actor pool is ``search()``'s Dataset-path ``BM25Searcher`` pool,
whose searchers keep a warm term cache across batches."""

import ast
import pathlib

import remote_vector_index_builder_ray as pkg

ROOT = pathlib.Path(pkg.__file__).parent
TOKENS = ("concurrency=", "fn_constructor_args")


def _enclosing(tree: ast.Module, line: int) -> str | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.lineno <= line <= node.end_lineno:
            return node.name
    return None


def _actor_pool_lines() -> list[tuple[str, str, str]]:
    found = []
    for sub in ("pipelines", "stages"):
        for path in sorted((ROOT / sub).glob("*.py")):
            src = path.read_text()
            tree = ast.parse(src)
            for i, line in enumerate(src.splitlines(), 1):
                if any(t in line for t in TOKENS):
                    found.append((f"{sub}/{path.name}", _enclosing(tree, i),
                                  line.strip()))
    return found


def test_only_search_keeps_an_actor_pool():
    found = _actor_pool_lines()
    allowed = [f for f in found if f[:2] == ("pipelines/query.py", "search")]
    assert [f[2].split("=")[0] for f in allowed] == ["fn_constructor_args",
                                                     "concurrency"]
    assert [f for f in found if f not in allowed] == []
