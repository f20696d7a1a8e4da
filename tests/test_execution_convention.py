"""The execution convention for Ray Data maps: every map in ``pipelines/``,
``stages/`` and ``extras/`` is a stateless task (a plain function given
``fn_args``). No map keeps an actor pool; the only searcher actors are the
warm ``QueryService`` pools."""

import pathlib

import remote_vector_index_builder_ray as pkg

ROOT = pathlib.Path(pkg.__file__).parent
TOKENS = ("concurrency=", "fn_constructor_args")


def test_no_map_keeps_an_actor_pool():
    found = [f"{path.relative_to(ROOT)}:{i}: {line.strip()}"
             for sub in ("pipelines", "stages", "extras")
             for path in sorted((ROOT / sub).glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if any(t in line for t in TOKENS)]
    assert found == []
