"""Stdlib HTTP wire façade over :class:`BuildService` and the warm
:class:`QueryService` pools: every route is one row of :data:`ROUTES`."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, NamedTuple
from urllib.parse import parse_qs

import numpy as np
import pandas as pd
import pyarrow as pa

from remote_vector_index_builder_ray.config import BM25Config, BuildConfig, EngineError, HashCollisionError
from remote_vector_index_builder_ray.functions.tokenizer import analyze_text_positions, load_analyzer
from remote_vector_index_builder_ray.pipelines.aggs import match_count
from remote_vector_index_builder_ray.pipelines.delete import delete_by_query
from remote_vector_index_builder_ray.pipelines.incremental import (
    _load_completed_manifest,
    _total_docs,
    compact_index,
    create_alias,
    docmeta_schema,
    rollover_config,
    rollover_flush,
    rollover_ingest,
    update_by_query,
)
from remote_vector_index_builder_ray.pipelines.ingest import compile_ingest_pipeline
from remote_vector_index_builder_ray.pipelines.query import (
    explain,
    parse_simple_query_string,
    render_search_template,
)
from remote_vector_index_builder_ray.query_service import default_service
from remote_vector_index_builder_ray.service import BuildService, CapacityError, Job
from remote_vector_index_builder_ray.stages.search import check_k, validate
from remote_vector_index_builder_ray.state.manifest import load_base_stats


class _NotFound(Exception):
    """An unknown route or job."""


# request faults (the reference's 422); pyarrow's ArrowInvalid is a
# ValueError, FileNotFoundError an OSError
_REQUEST_ERRORS = (EngineError, ValueError, KeyError, TypeError, OSError)

# first match wins: HashCollisionError and CapacityError are EngineErrors
_STATUSES = ((_NotFound, 404), (HashCollisionError, 429), (CapacityError, 507),
             (_REQUEST_ERRORS, 400))


def _status_of(ex: Exception) -> int:
    """The HTTP status of a request that raised ``ex`` (the reference's
    exception handlers, ``app/main.py:103-115``)."""
    return next((code for kind, code in _STATUSES if isinstance(ex, kind)), 500)


_JSON_TYPES = {"str": str, "int": int, "number": (int, float), "bool": bool,
               "list": list, "dict": dict}


def _check(fields: dict, obj, what: str = "request body") -> dict:
    """``obj`` without its nulls (JSON null == absent), once it is a JSON
    object carrying every required field of ``fields``, no other field, and
    each field with its declared JSON type. ``fields`` maps a name to a
    ``_JSON_TYPES`` key; a trailing ``?`` marks the name optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    obj = {k: v for k, v in obj.items() if v is not None}
    types = {name.rstrip("?"): kind for name, kind in fields.items()}
    missing = [name for name in fields if not name.endswith("?") and name not in obj]
    if missing:
        raise ValueError(f"{what}: missing required fields: {missing}")
    unknown = sorted(set(obj) - set(types))
    if unknown:  # extra="forbid", like the reference's pydantic models
        raise ValueError(f"{what}: unknown fields: {unknown}")
    for name, value in obj.items():
        kind = types[name]
        # a JSON true is a Python int, but not a JSON number
        if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ValueError(f"{what}: field {name!r} must be a JSON {kind}")
    return obj


def _nonempty(items: list, name: str) -> list:
    if not items:
        raise ValueError(f"{name} must be a non-empty list")
    return items


_QUERY_FIELDS = {"query_id": "int", "text": "str", "k?": "int", "slop?": "int",
                 "span_exclude?": "str", "span_little?": "str"}


def parse_search_queries(rows):
    """Validate + frame the per-query rows of ``/_search``, ``/_msearch``
    legs and ``/_validate/query``. Positional-mode per-query options attach a
    column only when some row carries it — the searcher rejects a slop/span
    column under a non-positional mode, so an unconditional column would 400
    every bmw request."""
    rows = [_check(_QUERY_FIELDS, r, f"queries[{i}]")
            for i, r in enumerate(_nonempty(rows, "queries"))]
    ks = [r.get("k", 10) for r in rows]
    check_k(ks)  # before the int32 cast, which would overflow
    q = pd.DataFrame({
        "query_id": np.array([r["query_id"] for r in rows], dtype=np.int64),
        "text": [r["text"] for r in rows],
        "k": np.array(ks, dtype=np.int32),
    })
    if any("slop" in r for r in rows):
        q["slop"] = np.array([r.get("slop", 0) for r in rows], dtype=np.int32)
    for col in ("span_exclude", "span_little"):
        if any(col in r for r in rows):
            q[col] = [r.get(col) for r in rows]
    return q


def _hits(out: pd.DataFrame) -> dict:
    return {"rows": out.to_dict(orient="records"), "total": len(out)}


def _where(body: dict):
    """The optional ``where`` filter as the (column, op, value) tuples the
    pipelines take."""
    return [tuple(t) for t in body["where"]] if "where" in body else None


def _render(template: str, params: dict) -> str:
    """Mustache substitution; an unresolved placeholder raises (it would
    silently match nothing)."""
    frame = pd.DataFrame({"query_id": [0], "template": [template],
                          "params": [json.dumps(params)]})
    return render_search_template(frame)["text"].iloc[0]


class _Context(NamedTuple):
    service: BuildService
    query_service: object  # QueryService | None

    def queries(self):
        # the process-default owner is resolved per request: it sizes its
        # pools from ray.cluster_resources(), so make_server must not need a
        # Ray session; and the library paths use it too, so /_search and
        # in-process search() calls share one pool per index
        if self.query_service is not None:
            return self.query_service
        return default_service()


def _job_payload(job: Job) -> dict:
    return {
        "job_id": job.job_id,
        "status": job.status,
        "index_dir": job.index_dir,
        "error_message": job.error_message,
        "created_at": job.created_at,
        "finished_at": job.finished_at,
    }


def _status(ctx: _Context, params: dict) -> dict:
    job = ctx.service.status(params["id"])
    if job is None:
        raise _NotFound("job not found")
    return _job_payload(job)


def _cat_indices(ctx: _Context, params: dict) -> list:
    """OpenSearch _cat/indices (JSON format): one row per ``index_dir``
    param, from the manifest alone (never a data scan)."""
    rows = []
    for d in params["index_dir"]:
        man = _load_completed_manifest(d)
        rows.append({
            "index": d,
            "status": "open",
            "docs.count": _total_docs(man)[0],
            # an expunged tombstone's docs already left docs.count
            "docs.deleted": sum(int(t["n"]) for t in man.data.get("tombstones", [])
                                if not t.get("expunged")),
            "segments.count": 1 + sum(not g.get("compacted")
                                      for g in man.data.get("generations", [])),
        })
    return rows


def _build(ctx: _Context, body: dict) -> dict:
    cfg = BuildConfig(
        input_paths=_nonempty(body["input_paths"], "input_paths"),
        index_dir=body["index_dir"],
        bm25=BM25Config(**{k: body[k] for k in ("k1", "b", "block_size", "shard_range")
                           if k in body}),
        dedup=body.get("dedup", False),
        docid_mode=body.get("docid_mode", "dense"),
        num_partitions=body.get("num_partitions"),
    )
    return {"job_id": ctx.service.submit(cfg)}


def _search(ctx: _Context, body: dict) -> dict:
    q = parse_search_queries(body["queries"])
    return _hits(ctx.queries().search(body["index_dir"], q, mode=body.get("mode", "bmw"),
                                      similarity=body.get("similarity", "bm25")))


def _run_legs(ctx: _Context, body: dict, leg_fields: dict, queries_of: Callable) -> dict:
    """OpenSearch _msearch: the leg envelopes are checked up front (a bad
    one fails the request); then each leg's queries are framed and run on
    the shared warm pools with the leg's own status, so a failing leg never
    drops the batch."""
    legs = [_check(leg_fields, leg, f"searches[{i}]")
            for i, leg in enumerate(_nonempty(body["searches"], "searches"))]
    responses = []
    for leg in legs:
        try:
            out = ctx.queries().search(body["index_dir"], queries_of(leg),
                                       mode=leg.get("mode", "bmw"))
            responses.append({**_hits(out), "status": 200})
        except Exception as ex:  # noqa: BLE001 — one leg's fault is its status
            responses.append({"error": str(ex), "status": _status_of(ex)})
    return {"responses": responses}


def _msearch(ctx: _Context, body: dict) -> dict:
    return _run_legs(ctx, body, {"queries": "list", "mode?": "str"},
                     lambda leg: parse_search_queries(leg["queries"]))


def _msearch_template(ctx: _Context, body: dict) -> dict:
    return _run_legs(
        ctx, body, {"template": "str", "params": "dict", "k?": "int", "mode?": "str"},
        lambda leg: parse_search_queries([{
            "query_id": 0, "text": _render(leg["template"], leg["params"]),
            "k": leg.get("k", 10)}]))


# Arrow docmeta dtype -> OpenSearch field_caps (type, searchable,
# aggregatable). `text` is the one analyzed (searchable, not aggregatable)
# field; every stored metadata field filters via `where` pushdown and
# aggregates via the docmeta probes.
def _field_caps(ctx: _Context, body: dict) -> dict:
    index_dir = body["index_dir"]
    schema = docmeta_schema(index_dir)
    caps = {}
    for name, typ in zip(schema.names, schema.types):
        if name == "text":
            caps[name] = {"type": "text", "searchable": True,
                          "aggregatable": False}
        elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
            caps[name] = {"type": "keyword", "searchable": True,
                          "aggregatable": True}
        elif pa.types.is_timestamp(typ):
            caps[name] = {"type": "date", "searchable": True,
                          "aggregatable": True}
        elif pa.types.is_int64(typ):
            caps[name] = {"type": "long", "searchable": True,
                          "aggregatable": True}
        elif pa.types.is_integer(typ):
            caps[name] = {"type": "integer", "searchable": True,
                          "aggregatable": True}
        elif pa.types.is_floating(typ):
            caps[name] = {"type": "double", "searchable": True,
                          "aggregatable": True}
        else:  # opaque payloads (e.g. binary) are stored-only
            caps[name] = {"type": str(typ), "searchable": False,
                          "aggregatable": False}
    if "fields" in body:
        want = set(body["fields"])
        caps = {k: v for k, v in caps.items() if k in want}
    return {"indices": [index_dir], "fields": caps}


def _delete_by_query(ctx: _Context, body: dict) -> dict:
    # the distributed sharded-tombstone path: only counts reach this
    # process, so a match-everything delete is capacity-safe
    return delete_by_query(body["index_dir"], body["text"], where=_where(body))


def _update_by_query(ctx: _Context, body: dict) -> dict:
    out = update_by_query(body["index_dir"], body["query_text"],
                          body.get("append_text", " [updated]"), body["out_dir"],
                          num_partitions=body.get("num_partitions"))
    out.pop("manifest", None)  # wire payload: counts only
    return out


def _analyze(ctx: _Context, body: dict) -> dict:
    # the INDEX's analyzer: the one that built its postings
    toks, pos = analyze_text_positions(body["text"], load_analyzer(body["index_dir"]))
    return {"tokens": [{"token": t, "position": int(p)} for t, p in zip(toks, pos)]}


def _count(ctx: _Context, body: dict) -> dict:
    q = pd.DataFrame({"query_id": [0], "text": [body["text"]]})
    out = match_count(body["index_dir"], q, where=_where(body))
    return {"count": int(out["total_hits"].iloc[0]) if len(out) else 0}


def _explain(ctx: _Context, body: dict) -> dict:
    q = pd.DataFrame({"query_id": [0], "text": [body["text"]]})
    pairs = pd.DataFrame({"query_id": [0], "docid": [body["docid"]]})
    details = [
        {"term": r.term, "tf": int(r.tf), "df": int(r.df), "contribution": float(r.contrib)}
        for r in explain(body["index_dir"], q, pairs).itertuples(index=False)
    ]
    return {"matched": bool(details), "docid": body["docid"],
            "value": float(sum(d["contribution"] for d in details)), "details": details}


def _forcemerge(ctx: _Context, body: dict) -> dict:
    out = compact_index(body["index_dir"])
    return {k: v for k, v in out.items() if isinstance(v, (int, float, str, bool))}


def _aliases(ctx: _Context, body: dict) -> dict:
    return create_alias(body["index_dir"], body["alias"], where=_where(body))


def _rollover(ctx: _Context, body: dict) -> dict:
    idx = body["index_dir"]
    if "max_docs" in body:
        ro = rollover_config(idx, body["max_docs"])
        ro = ro.get("rollover", ro)
    elif body.get("flush"):
        ro = rollover_flush(idx)
    elif "input_paths" in body:
        ro = rollover_ingest(idx, body["input_paths"])
    else:
        raise ValueError("one of max_docs / input_paths / flush required")
    pending = ro.get("pending", [])
    return {  # counts-only wire view of the rollover state
        "max_docs": int(ro["max_docs"]),
        "pending_batches": len(pending),
        "pending_rows": sum(int(b["n_rows"]) for b in pending),
        "rolled_generations": len(ro.get("history", [])),
    }


def _render_template(ctx: _Context, body: dict) -> dict:
    return {"template_output": {"query": _render(body["template"], body["params"])}}


def _simulate(ctx: _Context, body: dict) -> dict:
    docs = body["docs"]
    if not docs or not all(isinstance(d, dict) for d in docs):
        raise ValueError("docs must be a non-empty list of objects")
    # compile errors (unknown processor, missing config) raise before any doc runs
    fn = compile_ingest_pipeline(body["processors"])
    return {"docs": fn(pa.Table.from_pylist(docs)).to_pylist()}


def _validate_query(ctx: _Context, body: dict) -> dict:
    """OpenSearch _validate/query: would the request compile? Checked
    without running it — the queries, a served mode and the columns it
    accepts (stages.search.MODES) or the query-string grammar, and a
    readable stats record. The verdict rides a 200 body, like OpenSearch's."""
    mode = body.get("mode", "bmw")
    try:
        q = parse_search_queries(body["queries"])
        if mode == "query_string":
            for t in q["text"]:
                parse_simple_query_string(t)
        else:
            validate(mode, q.columns, served=True)
        load_base_stats(body["index_dir"])
    except _REQUEST_ERRORS as ex:
        return {"valid": False, "error": str(ex)}
    return {"valid": True}


class Route(NamedTuple):
    fields: dict        # name -> _JSON_TYPES key; "name?" is optional
    handler: Callable   # (ctx, checked body or query params) -> JSON payload


_SEARCH = {"index_dir": "str", "queries": "list", "mode?": "str"}
_WHERE = {"index_dir": "str", "where?": "list"}

# GET routes take the query-string params, each a list of strings;
# /_status/{id} is the one prefix route
ROUTES = {
    ("GET", "/_heart_beat"): Route({}, lambda ctx, _: ctx.service.heart_beat()),
    ("GET", "/_jobs"): Route({}, lambda ctx, _: [_job_payload(j) for j in ctx.service.jobs()]),
    ("GET", "/_status/{id}"): Route({"id": "str"}, _status),
    ("GET", "/_cat/indices"): Route({"index_dir": "list"}, _cat_indices),
    ("POST", "/_build"): Route(
        {"input_paths": "list", "index_dir": "str", "dedup?": "bool", "docid_mode?": "str",
         "num_partitions?": "int", "k1?": "number", "b?": "number", "block_size?": "int",
         "shard_range?": "int"}, _build),
    ("POST", "/_search"): Route({**_SEARCH, "similarity?": "str"}, _search),
    ("POST", "/_msearch"): Route({"index_dir": "str", "searches": "list"}, _msearch),
    ("POST", "/_msearch/template"): Route({"index_dir": "str", "searches": "list"},
                                          _msearch_template),
    ("POST", "/_validate/query"): Route(_SEARCH, _validate_query),
    ("POST", "/_field_caps"): Route({"index_dir": "str", "fields?": "list"}, _field_caps),
    ("POST", "/_delete_by_query"): Route({**_WHERE, "text": "str"}, _delete_by_query),
    ("POST", "/_count"): Route({**_WHERE, "text": "str"}, _count),
    ("POST", "/_aliases"): Route({**_WHERE, "alias": "str"}, _aliases),
    ("POST", "/_update_by_query"): Route(
        {"index_dir": "str", "query_text": "str", "out_dir": "str", "append_text?": "str",
         "num_partitions?": "int"}, _update_by_query),
    ("POST", "/_analyze"): Route({"index_dir": "str", "text": "str"}, _analyze),
    ("POST", "/_explain"): Route({"index_dir": "str", "text": "str", "docid": "int"}, _explain),
    ("POST", "/_forcemerge"): Route({"index_dir": "str"}, _forcemerge),
    ("POST", "/_rollover"): Route(
        {"index_dir": "str", "input_paths?": "list", "max_docs?": "int", "flush?": "bool"},
        _rollover),
    ("POST", "/_render/template"): Route({"template": "str", "params": "dict"},
                                         _render_template),
    ("POST", "/_ingest/pipeline/_simulate"): Route({"processors": "list", "docs": "list"},
                                                   _simulate),
}


def _dispatch(ctx: _Context, method: str, target: str, read_body: Callable) -> tuple[int, bytes]:
    """Serve one request: its status and JSON-encoded payload."""
    try:
        raw = read_body()
        path, _, query = target.partition("?")
        params = {}
        if path.startswith("/_status/"):
            path, params = "/_status/{id}", {"id": path[len("/_status/"):]}
        route = ROUTES.get((method, path))
        if route is None:
            raise _NotFound("unknown route")
        body = {**parse_qs(query), **params} if method == "GET" else json.loads(raw or b"{}")
        return 200, json.dumps(route.handler(ctx, _check(route.fields, body))).encode()
    except Exception as ex:  # noqa: BLE001 — the wire boundary
        return _status_of(ex), json.dumps({"error": str(ex)}).encode()


def make_server(service: BuildService, host: str = "127.0.0.1", port: int = 0,
                query_service=None) -> ThreadingHTTPServer:
    ctx = _Context(service, query_service)

    class Handler(BaseHTTPRequestHandler):
        def _serve(self, method: str) -> None:
            code, data = _dispatch(ctx, method, self.path, lambda: self.rfile.read(
                int(self.headers.get("Content-Length") or 0)))
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args) -> None:  # quiet server
            pass

        def do_GET(self) -> None:
            self._serve("GET")

        def do_POST(self) -> None:
            self._serve("POST")

    return ThreadingHTTPServer((host, port), Handler)


def serve_background(service: BuildService, host: str = "127.0.0.1", port: int = 0):
    """Start the façade on a daemon thread; returns (server, base_url)."""
    server = make_server(service, host, port)
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    return server, f"http://{server.server_address[0]}:{server.server_address[1]}"
