"""HTTP façade over BuildService: route/status-code parity with the
reference's FastAPI surface (build 200/400/429/507, status 200/404, jobs,
heart_beat), driven over a real socket with urllib."""

import json
import urllib.error
import urllib.request

import pytest

from remote_vector_index_builder_ray.http_api import serve_background
from remote_vector_index_builder_ray.service import BuildService


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req) as r:
        return r.status, json.loads(r.read())


def _get(url: str):
    with urllib.request.urlopen(url) as r:
        return r.status, json.loads(r.read())


@pytest.fixture(scope="module")
def api(smoke_fixture, tmp_path_factory):
    service = BuildService(max_workers=2, max_jobs=4)
    server, base = serve_background(service)
    yield base, smoke_fixture, tmp_path_factory.mktemp("httpidx")
    server.shutdown()
    service.shutdown()


def test_build_status_jobs_heartbeat(api):
    base, fx, idx_root = api
    code, hb = _get(base + "/_heart_beat")
    assert code == 200 and hb["alive"] is True

    code, out = _post(base + "/_build", {
        "input_paths": fx["transcripts"], "index_dir": str(idx_root / "i1"),
    })
    assert code == 200
    job_id = out["job_id"]

    # poll to completion (tiny fixture builds in seconds)
    import time

    for _ in range(120):
        code, st = _get(base + f"/_status/{job_id}")
        assert code == 200
        if st["status"] != "RUNNING":
            break
        time.sleep(1)
    assert st["status"] == "COMPLETED", st

    code, jobs = _get(base + "/_jobs")
    assert code == 200 and any(j["job_id"] == job_id for j in jobs)

    # idempotent resubmit returns the same job id
    code, again = _post(base + "/_build", {
        "input_paths": fx["transcripts"], "index_dir": str(idx_root / "i1"),
    })
    assert code == 200 and again["job_id"] == job_id


def test_error_codes(api):
    base, fx, idx_root = api
    # 400: validation (missing fields / unknown fields)
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_build", {"index_dir": "x"})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_build", {
            "input_paths": fx["transcripts"], "index_dir": "x", "bogus": 1,
        })
    assert ei.value.code == 400
    # 429: same index dir & inputs, different scoring params -> collision
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_build", {
            "input_paths": fx["transcripts"], "index_dir": str(idx_root / "i1"),
            "k1": 2.0,
        })
    assert ei.value.code == 429
    # 404: unknown job / unknown route
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(base + "/_status/nope")
    assert ei.value.code == 404


def test_delete_by_query_route_match_everything(api, monkeypatch):
    """POST /_delete_by_query drives the DISTRIBUTED sharded-tombstone path:
    a match-EVERYTHING delete (a term in every doc would be the worst case;
    here: every matching doc of a common term) succeeds while the driver is
    forbidden from materializing the match set — the capacity story for a
    stopword delete over 10^12 turns."""
    import numpy as np
    import pandas as pd
    import ray.data

    import remote_vector_index_builder_ray.pipelines.aggs as am
    from remote_vector_index_builder_ray import BuildConfig, build_index, search

    base, fx, idx_root = api
    idx = str(idx_root / "dbq_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))

    # 400s: missing / unknown fields
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_delete_by_query", {"index_dir": idx})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_delete_by_query",
              {"index_dir": idx, "text": "x", "bogus": 1})
    assert ei.value.code == 400

    def _boom(*a, **k):
        raise AssertionError("driver-side match-set materialization")

    monkeypatch.setattr(am, "_match_sets", _boom)
    monkeypatch.setattr(ray.data.Dataset, "to_pandas", _boom)
    code, out = _post(base + "/_delete_by_query", {"index_dir": idx, "text": "the"})
    monkeypatch.undo()
    assert code == 200 and out["deleted"] > 0
    q = pd.DataFrame({"query_id": np.array([0], dtype=np.int64),
                      "text": ["the"], "k": np.array([100], dtype=np.int32)})
    assert search(idx, q, mode="exhaustive").count() == 0


def test_update_by_query_route(api, tmp_path_factory):
    import numpy as np
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index, search
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    base, fx, idx_root = api
    idx = str(idx_root / "ubq_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    df = pd.concat([pd.read_parquet(p) for p in fx["transcripts"]])
    term = tokenize_text(df["text"].iloc[5])[0]
    out_dir = str(tmp_path_factory.mktemp("ubq_api_out"))
    code, out = _post(base + "/_update_by_query", {
        "index_dir": idx, "query_text": term, "out_dir": out_dir,
        "append_text": " zzapiupd",
    })
    assert code == 200 and out["updated"] > 0 and "manifest" not in out
    q = pd.DataFrame({"query_id": np.array([0], dtype=np.int64),
                      "text": ["zzapiupd"],
                      "k": np.array([10000], dtype=np.int32)})
    assert search(idx, q, mode="exhaustive").count() == out["updated"]


def test_search_route_warm_pool(api):
    """POST /_search serves from the warm QueryService pool: parity with the
    pipeline path, 400s on malformed bodies, and repeated requests reuse the
    same pool (no per-request actor churn)."""
    import numpy as np
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index, search

    base, fx, idx_root = api
    idx = str(idx_root / "srch_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))

    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx, "queries": [], "bogus": 1})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx, "queries": [{"text": "x"}]})
    assert ei.value.code == 400

    df = pd.concat([pd.read_parquet(p) for p in fx["transcripts"]])
    word = str(df["text"].iloc[3]).split()[0].lower()
    payload = {"index_dir": idx,
               "queries": [{"query_id": 0, "text": word, "k": 5},
                           {"query_id": 1, "text": "zz_absent", "k": 5}]}
    code, out = _post(base + "/_search", payload)
    assert code == 200 and out["total"] == len(out["rows"])
    q = pd.DataFrame({"query_id": np.array([0, 1], dtype=np.int64),
                      "text": [word, "zz_absent"],
                      "k": np.array([5, 5], dtype=np.int32)})
    exp = (search(idx, q, mode="bmw").to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))
    got = pd.DataFrame(out["rows"])
    assert got["docid"].tolist() == exp["docid"].tolist()
    assert np.allclose(got["score"].to_numpy(), exp["score"].to_numpy())
    # second request: served by the SAME warm pool (one pool, one key)
    code, out2 = _post(base + "/_search", payload)
    assert code == 200 and out2 == out


def test_search_route_error_codes(api):
    """Request-level faults return 400 JSON errors, not dropped connections:
    nonexistent index_dir, unknown mode, phrase mode on a positionless
    index."""
    base, fx, idx_root = api
    idx = str(idx_root / "srch_api")  # built by test_search_route_warm_pool
    from remote_vector_index_builder_ray import BuildConfig, build_index

    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    qs = [{"query_id": 0, "text": "the", "k": 3}]
    for payload in (
        {"index_dir": str(idx_root / "no_such_index"), "queries": qs},
        {"index_dir": idx, "queries": qs, "mode": "phrases"},  # typo'd mode
        {"index_dir": idx, "queries": qs, "mode": "phrase"},   # no positions
    ):
        with pytest.raises(urllib.error.HTTPError) as ei:
            _post(base + "/_search", payload)
        assert ei.value.code == 400, payload
        assert "error" in json.loads(ei.value.read())
    # the server is still alive and serving after the faults
    code, out = _post(base + "/_search", {"index_dir": idx, "queries": qs})
    assert code == 200 and out["total"] >= 0


def test_search_route_k_range(api):
    """A k outside [0, 2**31-1] is a 400 naming k: a negative k used to
    return almost the whole match set, and 2**40 overflowed the int32 cast
    into a 500. k=0 is a 200 with no rows in every served scorer."""
    from remote_vector_index_builder_ray import BuildConfig, build_index

    base, fx, idx_root = api
    idx = str(idx_root / "srch_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    for mode in ("bmw", "constant", "exhaustive", "dismax"):
        for k in (-1, -5, 2**40):
            with pytest.raises(urllib.error.HTTPError) as ei:
                _post(base + "/_search", {"index_dir": idx, "mode": mode,
                                          "queries": [{"query_id": 0,
                                                       "text": "the", "k": k}]})
            assert ei.value.code == 400, (mode, k)
            assert "k must be an integer" in json.loads(ei.value.read())["error"]
        code, out = _post(base + "/_search", {
            "index_dir": idx, "mode": mode,
            "queries": [{"query_id": 0, "text": "the", "k": 0}]})
        assert code == 200 and out == {"rows": [], "total": 0}, mode


def test_search_route_span_modes(api):
    """/_search carries the positional per-query options (slop, span_exclude,
    span_little) through to the warm pool, matching the batch path, and 400s
    the silent-success holes: span_containing/span_within without a
    span_little column would return 0 rows for every query with a 200."""
    import numpy as np
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index, search

    base, fx, idx_root = api
    idx = str(idx_root / "srch_span")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2, positions=True))

    # pick a real in-corpus trigram so the span queries can actually match
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    df = pd.concat([pd.read_parquet(p) for p in fx["transcripts"]])
    t1 = t2 = little = None
    for txt in df["text"]:
        toks = tokenize_text(str(txt))
        if len(toks) >= 3 and len({toks[0], toks[1], toks[2]}) == 3:
            t1, little, t2 = toks[0], toks[1], toks[2]
            break
    assert t1 is not None

    # 400: span_containing / span_within without span_little (every query
    # would return 0 rows — the silent-success hole)
    qs_plain = [{"query_id": 0, "text": f"{t1} {t2}", "k": 10, "slop": 2}]
    for mode in ("span_containing", "span_within"):
        with pytest.raises(urllib.error.HTTPError) as ei:
            _post(base + "/_search",
                  {"index_dir": idx, "queries": qs_plain, "mode": mode})
        assert ei.value.code == 400, mode
        assert "span_little" in json.loads(ei.value.read())["error"]

    # 400: unknown per-query field
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx, "queries": [
            {"query_id": 0, "text": "x", "filter": "nope"}]})
    assert ei.value.code == 400

    # span_containing WITH span_little: parity with the batch path
    payload = {"index_dir": idx, "mode": "span_containing", "queries": [
        {"query_id": 0, "text": f"{t1} {t2}", "k": 50, "slop": 2,
         "span_little": little}]}
    code, out = _post(base + "/_search", payload)
    assert code == 200
    q = pd.DataFrame({
        "query_id": np.array([0], dtype=np.int64),
        "text": [f"{t1} {t2}"], "k": np.array([50], dtype=np.int32),
        "slop": np.array([2], dtype=np.int32), "span_little": [little],
    })
    exp = (search(idx, q, mode="span_containing").to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))
    got = pd.DataFrame(out["rows"], columns=["query_id", "rank", "docid",
                                             "score"])
    assert got["docid"].tolist() == exp["docid"].tolist()
    assert len(exp) > 0  # the trigram guarantees a hit at slop=2
    if len(exp):
        assert np.allclose(got["score"].to_numpy(), exp["score"].to_numpy())

    # span_not WITH span_exclude: parity with the batch path (and exclude
    # actually bites: excluding the little term next to t1 removes/keeps
    # docs exactly as the batch engine says)
    payload = {"index_dir": idx, "mode": "span_not", "queries": [
        {"query_id": 0, "text": t1, "k": 2000, "span_exclude": little}]}
    code, out = _post(base + "/_search", payload)
    assert code == 200
    q = pd.DataFrame({
        "query_id": np.array([0], dtype=np.int64), "text": [t1],
        "k": np.array([2000], dtype=np.int32), "span_exclude": [little],
    })
    exp = (search(idx, q, mode="span_not").to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))
    got = pd.DataFrame(out["rows"], columns=["query_id", "rank", "docid",
                                             "score"])
    assert got["docid"].tolist() == exp["docid"].tolist()

    # phrase with per-query slop: mixed slop/no-slop rows in one request
    payload = {"index_dir": idx, "mode": "phrase", "queries": [
        {"query_id": 0, "text": f"{t1} {t2}", "k": 50, "slop": 2},
        {"query_id": 1, "text": f"{t1} {little}", "k": 50}]}
    code, out = _post(base + "/_search", payload)
    assert code == 200
    q = pd.DataFrame({
        "query_id": np.array([0, 1], dtype=np.int64),
        "text": [f"{t1} {t2}", f"{t1} {little}"],
        "k": np.array([50, 50], dtype=np.int32),
        "slop": np.array([2, 0], dtype=np.int32),
    })
    exp = (search(idx, q, mode="phrase").to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))
    got = pd.DataFrame(out["rows"], columns=["query_id", "rank", "docid",
                                             "score"])
    assert got["docid"].tolist() == exp["docid"].tolist()


def test_search_route_concurrent_mutate(api):
    """Route-level pool-lifecycle hardening: /_search requests racing a
    committed index mutation (/_delete_by_query) all succeed — the stale warm
    pool drains in-flight requests before its actors die (retire-on-
    fingerprint-change), and post-mutation requests see the tombstones."""
    import threading

    import numpy as np
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    base, fx, idx_root = api
    idx = str(idx_root / "srch_mut")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))

    df = pd.concat([pd.read_parquet(p) for p in fx["transcripts"]])
    term = tokenize_text(str(df["text"].iloc[7]))[0]
    payload = {"index_dir": idx, "queries": [
        {"query_id": 0, "text": term, "k": 2000}]}

    # warm the pool, record the pre-mutation hit count
    code, before = _post(base + "/_search", payload)
    assert code == 200 and before["total"] > 0

    errors: list = []
    results: list = []

    def hammer():
        try:
            for _ in range(6):
                c, o = _post(base + "/_search", payload)
                results.append((c, o["total"]))
        except Exception as ex:  # noqa: BLE001 — collected and asserted below
            errors.append(ex)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    # mutate mid-flight: committed manifest change retires the warm pool
    code, dbq = _post(base + "/_delete_by_query", {"index_dir": idx,
                                                   "text": term})
    assert code == 200 and dbq["deleted"] > 0
    for t in threads:
        t.join()
    assert not errors, errors
    # every request got a 200 and a sane result: either the pre-mutation
    # count (served by the draining pool) or the post-mutation count
    totals = {t for c, t in results}
    assert all(c == 200 for c, _ in results)
    assert totals <= {before["total"], before["total"] - dbq["deleted"], 0}
    # post-mutation request reflects the tombstones via the NEW pool
    code, after = _post(base + "/_search", payload)
    assert code == 200
    assert after["total"] == before["total"] - dbq["deleted"]


def test_msearch_route(api):
    """POST /_msearch: per-leg statuses in one round-trip — leg results match
    /_search leg-by-leg, a failing leg reports its own 400 without dropping
    the batch, malformed envelopes 400 the whole request."""
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index

    base, fx, idx_root = api
    idx = str(idx_root / "msrch_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    df = pd.concat([pd.read_parquet(p) for p in fx["transcripts"]])
    word = str(df["text"].iloc[3]).split()[0].lower()

    # envelope validation
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_msearch", {"index_dir": idx})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_msearch", {"index_dir": idx, "searches": []})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_msearch",
              {"index_dir": idx,
               "searches": [{"queries": [{"query_id": 0, "text": "x"}],
                             "bogus": 1}]})
    assert ei.value.code == 400

    qrows = [{"query_id": 0, "text": word, "k": 5}]
    code, ms = _post(base + "/_msearch", {
        "index_dir": idx,
        "searches": [
            {"queries": qrows},                       # bmw leg
            {"queries": qrows, "mode": "exhaustive"},  # second mode
            {"queries": qrows, "mode": "no_such_mode"},  # failing leg
        ],
    })
    assert code == 200 and len(ms["responses"]) == 3
    ok1, ok2, bad = ms["responses"]
    assert ok1["status"] == 200 and ok2["status"] == 200
    assert bad["status"] == 400 and "error" in bad and "rows" not in bad
    # leg parity with /_search
    code, single = _post(base + "/_search", {"index_dir": idx, "queries": qrows})
    assert code == 200 and ok1["rows"] == single["rows"]
    assert ok1["rows"] and ok2["rows"]


def test_field_caps_route(api):
    """POST /_field_caps: capabilities come from the docmeta Parquet footer
    — text is searchable-not-aggregatable, metadata fields typed keyword/
    integer/long/date; the fields filter subsets; bad index_dir 400s."""
    from remote_vector_index_builder_ray import BuildConfig, build_index

    base, fx, idx_root = api
    idx = str(idx_root / "caps_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    code, out = _post(base + "/_field_caps", {"index_dir": idx})
    assert code == 200 and out["indices"] == [idx]
    caps = out["fields"]
    assert caps["text"] == {"type": "text", "searchable": True,
                            "aggregatable": False}
    assert caps["conv_id"]["type"] == "keyword"
    assert caps["turn_idx"]["type"] == "integer"
    assert caps["docid"]["type"] == "long"
    assert caps["ts"]["type"] == "date"
    code, sub = _post(base + "/_field_caps",
                      {"index_dir": idx, "fields": ["text", "nope"]})
    assert code == 200 and set(sub["fields"]) == {"text"}
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_field_caps", {"index_dir": str(idx_root / "absent")})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_field_caps", {"index_dir": idx, "fields": "text"})
    assert ei.value.code == 400


def test_analyze_count_validate_cat_routes(api):
    """The four admin/introspection routes: POST /_analyze (index analyzer
    token stream with positions), POST /_count (distributed exact match
    count), POST /_validate/query (compile-only — 200 with valid true/false),
    GET /_cat/indices (manifest-only doc counts)."""
    import urllib.parse

    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index
    from remote_vector_index_builder_ray.pipelines.aggs import match_count

    base, fx, idx_root = api
    idx = str(idx_root / "admin_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))

    # /_analyze: tokens + positions from the index's analyzer
    code, out = _post(base + "/_analyze",
                      {"index_dir": idx, "text": "The Quick model_v2 fox"})
    assert code == 200
    toks = [t["token"] for t in out["tokens"]]
    assert toks == ["the", "quick", "model_v2", "fox"]
    assert [t["position"] for t in out["tokens"]] == [0, 1, 2, 3]
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_analyze", {"index_dir": idx})
    assert ei.value.code == 400

    # /_count: equals the library match_count for the same text
    text = "the play went"
    code, out = _post(base + "/_count", {"index_dir": idx, "text": text})
    assert code == 200
    want = match_count(idx, pd.DataFrame({"query_id": [0], "text": [text]}))
    assert out["count"] == int(want["total_hits"].iloc[0]) > 0
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_count", {"index_dir": idx, "text": text, "bogus": 1})
    assert ei.value.code == 400

    # /_validate/query: valid request -> valid true; unknown mode / bad
    # query_string grammar / span mode without span_little -> 200 + false
    qrows = [{"query_id": 0, "text": "model training", "k": 5}]
    code, out = _post(base + "/_validate/query",
                      {"index_dir": idx, "queries": qrows})
    assert code == 200 and out == {"valid": True}
    code, out = _post(base + "/_validate/query",
                      {"index_dir": idx, "queries": qrows, "mode": "nope"})
    assert code == 200 and out["valid"] is False and "unknown mode" in out["error"]
    code, out = _post(base + "/_validate/query",
                      {"index_dir": idx, "queries": qrows,
                       "mode": "span_containing"})
    assert code == 200 and out["valid"] is False and "span_little" in out["error"]
    code, out = _post(base + "/_validate/query",
                      {"index_dir": str(idx_root / "absent"),
                       "queries": qrows})
    assert code == 200 and out["valid"] is False
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_validate/query", {"queries": qrows})
    assert ei.value.code == 400

    # /_cat/indices: docs.count from the manifest, no data scan
    code, rows = _get(base + "/_cat/indices?index_dir="
                      + urllib.parse.quote(idx, safe=""))
    assert code == 200 and len(rows) == 1
    assert rows[0]["index"] == idx and rows[0]["docs.count"] == 2000
    assert rows[0]["docs.deleted"] == 0
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(base + "/_cat/indices")
    assert ei.value.code == 400


def test_ingest_simulate_route(api):
    """POST /_ingest/pipeline/_simulate: the processor chain runs over the
    inline docs; compile errors 400 before anything runs."""
    base, fx, idx_root = api
    code, out = _post(base + "/_ingest/pipeline/_simulate", {
        "processors": [
            {"lowercase": {"field": "text"}},
            {"gsub": {"field": "text", "pattern": "[0-9]+",
                      "replacement": "#"}},
            {"set": {"field": "pipeline", "value": "v1"}},
        ],
        "docs": [{"text": "Hello 42 World"}, {"text": "A1B2"}],
    })
    assert code == 200
    assert out["docs"] == [{"text": "hello # world", "pipeline": "v1"},
                           {"text": "a#b#", "pipeline": "v1"}]
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_ingest/pipeline/_simulate", {
            "processors": [{"explode": {"field": "text"}}],
            "docs": [{"text": "x"}],
        })
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_ingest/pipeline/_simulate",
              {"processors": [], "docs": []})
    assert ei.value.code == 400


def test_forcemerge_aliases_rollover_render_routes(api):
    """The four lifecycle routes: /_aliases (filtered alias), /_rollover
    (policy + ingest + flush, counts-only payload), /_forcemerge (compact),
    /_render/template (mustache render; unresolved param 400s)."""
    from remote_vector_index_builder_ray import BuildConfig, build_index

    import pandas as pd

    base, fx, idx_root = api
    idx = str(idx_root / "lifecycle_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    # a dense two-conversation batch for the rollover ingest
    batch = pd.DataFrame({
        "conv_id": ["conv-roll-a"] * 2 + ["conv-roll-b"] * 2,
        "turn_idx": pd.array([0, 1, 0, 1], dtype="int32"),
        "role": ["user", "assistant"] * 2,
        "text": ["the play went well", "he went away",
                 "play it again", "went home"],
        "ts": pd.to_datetime(["2025-01-01"] * 4).astype("datetime64[us]"),
        "tool": [""] * 4,
    })
    batch_path = str(idx_root / "roll_batch.parquet")
    batch.to_parquet(batch_path)

    # alias
    code, out = _post(base + "/_aliases", {
        "index_dir": idx, "alias": "user_turns",
        "where": [["role", "==", "user"]]})
    assert code == 200 and out["alias"] == "user_turns"

    # rollover: policy, ingest below threshold, flush seals
    code, out = _post(base + "/_rollover", {"index_dir": idx,
                                            "max_docs": 10**9})
    assert code == 200 and out["pending_batches"] == 0
    code, out = _post(base + "/_rollover", {
        "index_dir": idx, "input_paths": [batch_path]})
    assert code == 200 and out["pending_batches"] == 1 \
        and out["pending_rows"] > 0
    code, out = _post(base + "/_rollover", {"index_dir": idx, "flush": True})
    assert code == 200 and out["pending_batches"] == 0 \
        and out["rolled_generations"] == 1

    # forcemerge folds the sealed generation into the base
    code, out = _post(base + "/_forcemerge", {"index_dir": idx})
    assert code == 200
    code, rows = _get(base + "/_cat/indices?index_dir="
                      + __import__("urllib.parse", fromlist=["quote"]).quote(idx, safe=""))
    assert code == 200 and rows[0]["docs.count"] == 2004
    assert rows[0]["segments.count"] == 1

    # render template
    code, out = _post(base + "/_render/template", {
        "template": "{{a}} and {{b}}", "params": {"a": "x", "b": "y"}})
    assert code == 200 and out["template_output"]["query"] == "x and y"
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_render/template",
              {"template": "{{missing}}", "params": {}})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_rollover", {"index_dir": idx})
    assert ei.value.code == 400


def test_cat_indices_counts_live_state(api):
    """GET /_cat/indices counts live state: a delete-by-query shows as
    docs.deleted until a force-merge expunges it, then only as the smaller
    docs.count. The route's path matches exactly."""
    import urllib.parse

    from remote_vector_index_builder_ray import BuildConfig, build_index

    base, fx, idx_root = api
    idx = str(idx_root / "cat_live")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    query = "?index_dir=" + urllib.parse.quote(idx, safe="")
    code, dbq = _post(base + "/_delete_by_query",
                      {"index_dir": idx, "text": "play"})
    assert code == 200 and dbq["deleted"] > 0
    code, rows = _get(base + "/_cat/indices" + query)
    assert code == 200 and rows[0]["docs.deleted"] == dbq["deleted"]
    code, _ = _post(base + "/_forcemerge", {"index_dir": idx})
    assert code == 200
    code, rows = _get(base + "/_cat/indices" + query)
    assert code == 200 and rows[0]["docs.deleted"] == 0
    assert rows[0]["docs.count"] == 2000 - dbq["deleted"]
    assert rows[0]["segments.count"] == 1
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(base + "/_cat/indices_foo" + query)
    assert ei.value.code == 404


def test_search_route_similarity(api):
    """POST /_search with a per-request similarity: the serving-path result
    equals the batch pipeline with the same module; bad names and non-
    exhaustive modes 400."""
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index, search

    base, fx, idx_root = api
    idx = str(idx_root / "sim_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    qrows = [{"query_id": 0, "text": "the play went", "k": 5},
             {"query_id": 1, "text": "he went away", "k": 5}]
    code, out = _post(base + "/_search", {
        "index_dir": idx, "queries": qrows,
        "mode": "exhaustive", "similarity": "ib_ll"})
    assert code == 200 and out["total"] == 10
    qdf = pd.DataFrame(qrows).astype({"query_id": "int64", "k": "int32"})
    want = search(idx, qdf, mode="exhaustive", similarity="ib_ll") \
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    got = pd.DataFrame(out["rows"]).sort_values(["query_id", "rank"]) \
        .reset_index(drop=True)
    assert got["docid"].tolist() == want["docid"].tolist()
    assert got["score"].tolist() == want["score"].tolist()

    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx, "queries": qrows,
                                  "mode": "exhaustive",
                                  "similarity": "nope"})
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx, "queries": qrows,
                                  "mode": "bmw", "similarity": "ib_ll"})
    assert ei.value.code == 400
    # scripted over the wire, validated at the service boundary
    code, out = _post(base + "/_search", {
        "index_dir": idx, "queries": qrows[:1], "mode": "exhaustive",
        "similarity": "scripted:sqrt(tf) / sqrt(dl)"})
    assert code == 200 and out["total"] == 5
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_search", {"index_dir": idx, "queries": qrows[:1],
                                  "mode": "exhaustive",
                                  "similarity": "scripted:__import__"})
    assert ei.value.code == 400


def test_explain_route(api):
    """POST /_explain: per-term breakdown of one (text, docid); the
    contributions sum to the /_search score for the same pair."""
    from remote_vector_index_builder_ray import BuildConfig, build_index

    base, fx, idx_root = api
    idx = str(idx_root / "explain_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    code, res = _post(base + "/_search", {
        "index_dir": idx,
        "queries": [{"query_id": 0, "text": "the play went", "k": 1}]})
    assert code == 200 and res["total"] == 1
    hit = res["rows"][0]
    code, out = _post(base + "/_explain", {
        "index_dir": idx, "text": "the play went", "docid": hit["docid"]})
    assert code == 200 and out["matched"] is True
    assert out["docid"] == hit["docid"]
    assert len(out["details"]) >= 1
    assert abs(out["value"] - hit["score"]) < 2e-6  # round6 per the policy
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_explain", {"index_dir": idx, "text": "x"})
    assert ei.value.code == 400


def test_msearch_template_route(api):
    """POST /_msearch/template: per-leg render + search with per-leg
    statuses; an unresolved placeholder 400s only its own leg."""
    import pandas as pd

    from remote_vector_index_builder_ray import BuildConfig, build_index, search

    base, fx, idx_root = api
    idx = str(idx_root / "mst_api")
    build_index(BuildConfig(input_paths=fx["transcripts"], index_dir=idx,
                            num_partitions=2))
    code, out = _post(base + "/_msearch/template", {
        "index_dir": idx,
        "searches": [
            {"template": "{{a}} play", "params": {"a": "the"}, "k": 3},
            {"template": "{{missing}}", "params": {}},
            {"template": "he {{b}}", "params": {"b": "went"}, "k": 2,
             "mode": "exhaustive"},
        ]})
    assert code == 200 and len(out["responses"]) == 3
    ok0, bad, ok2 = out["responses"]
    assert ok0["status"] == 200 and ok0["total"] == 3
    assert bad["status"] == 400 and "missing" in bad["error"]
    assert ok2["status"] == 200 and ok2["total"] == 2
    # leg 0 equals the batch path over the rendered text
    qdf = pd.DataFrame({"query_id": [0], "text": ["the play"],
                        "k": pd.array([3], dtype="int32")})
    want = search(idx, qdf, mode="bmw").to_pandas()
    got = pd.DataFrame(ok0["rows"])
    assert got["docid"].tolist() == want["docid"].tolist()
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_msearch/template", {"index_dir": idx, "searches": []})
    assert ei.value.code == 400


@pytest.mark.parametrize("route,body", [
    ("/_count", {"text": "hello", "where": 5}),
    ("/_aliases", {"alias": "a", "where": 5}),
    ("/_count", {"text": "hello", "where": [1, 2]}),
    ("/_aliases", {"alias": "a", "where": [1]}),
])
def test_non_iterable_where_is_400(api, route, body):
    """A malformed ``where`` (not a list of filter tuples) is a request
    fault: a JSON 400, never a dropped connection."""
    base, _, idx_root = api
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + route, {"index_dir": str(idx_root / "none"), **body})
    assert ei.value.code == 400
    assert "error" in json.loads(ei.value.read())


@pytest.mark.parametrize("where,column", [
    ([["role", "=", 5]], "role"),
    ([["nosuch", "=", "x"]], "nosuch"),
])
def test_bad_where_on_a_built_index_is_400(api, smoke_index, where, column):
    """A ``where`` that does not bind on the index's docmeta schema (an
    unknown column, or a value of the wrong type) is a 400 naming the
    column: it is checked on the driver, not raised from inside a task."""
    base, _, _ = api
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(base + "/_count", {"index_dir": smoke_index["index_dir"],
                                 "text": "hello", "where": where})
    assert ei.value.code == 400
    assert f"({column} == " in json.loads(ei.value.read())["error"]
