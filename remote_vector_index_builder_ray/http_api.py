"""Thin HTTP wire façade over :class:`BuildService` — parity with the
reference's FastAPI surface (``app/routes/build.py:41-72``,
``app/routes/status.py:13-44``, ``app/routes/get_jobs.py:16-35``,
``app/routes/heart_beat.py:17-28``) on the Python stdlib (no FastAPI in this
environment; per ``USER_GUIDE.md:34-37`` any API server over the core
libraries is a supported deployment shape).

Routes and status codes mirror the reference:

  POST /_build          {"input_paths": [...], "index_dir": "...", ...}
                        -> 200 {"job_id": ...}
                        -> 400 validation error (their 422)
                        -> 429 HashCollisionError
                        -> 507 CapacityError
  GET  /_status/{id}    -> 200 job record | 404
  GET  /_jobs           -> 200 [job records]
  GET  /_heart_beat     -> 200 {"alive": true, ...}
  POST /_delete_by_query {"index_dir": "...", "text": "...", "where"?}
                        -> 200 {"deleted": n, "total_tombstoned": n}
                        (runs the DISTRIBUTED sharded-tombstone path —
                        pipelines/delete.delete_by_query; a match-everything
                        delete never lands a docid on the driver)
  POST /_search {"index_dir": "...", "queries": [{query_id, text, k?, slop?,
                 span_exclude?, span_little?}], "mode"?}
                -> 200 {"rows": [...], "total": n}
                        (served from a WARM persistent searcher pool keyed
                        by the manifest fingerprint — query_service.py)
  POST /_update_by_query {"index_dir": "...", "query_text": "...",
                         "out_dir": "...", "append_text"?}
                        -> 200 {"updated": n, "inserted": n}
  POST /_msearch {"index_dir": "...", "searches": [{"queries": [...],
                 "mode"?}, ...]}
                -> 200 {"responses": [{rows, total, status} |
                        {error, status}, ...]}
                        (OpenSearch _msearch: one wire round-trip, per-leg
                        statuses — a failing leg never drops the batch; all
                        legs share the same warm searcher pools)
  POST /_field_caps {"index_dir": "...", "fields"?: [...]}
                -> 200 {"indices": [...], "fields": {name: {type,
                        searchable, aggregatable}}}
                        (capabilities read from the index's docmeta Parquet
                        schema — one footer read, never a data scan)
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from remote_vector_index_builder_ray.config import BM25Config, BuildConfig, EngineError, HashCollisionError
from remote_vector_index_builder_ray.service import BuildService, CapacityError, Job


def _job_payload(job: Job) -> dict:
    return {
        "job_id": job.job_id,
        "status": job.status,
        "index_dir": job.index_dir,
        "error_message": job.error_message,
        "created_at": job.created_at,
        "finished_at": job.finished_at,
    }


def parse_build_request(body: dict) -> BuildConfig:
    """Validate a build request (typed errors -> HTTP 400, the analog of the
    reference's 422 handler, ``app/main.py:103-115``)."""
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    missing = [k for k in ("input_paths", "index_dir") if k not in body]
    if missing:
        raise ValueError(f"missing required fields: {missing}")
    if not isinstance(body["input_paths"], list) or not body["input_paths"]:
        raise ValueError("input_paths must be a non-empty list")
    bm25_kwargs = {k: body[k] for k in ("k1", "b", "block_size", "shard_range") if k in body}
    allowed = {"input_paths", "index_dir", "dedup", "docid_mode", "num_partitions",
               "k1", "b", "block_size", "shard_range"}
    extra = set(body) - allowed
    if extra:  # extra="forbid", like the reference's pydantic models
        raise ValueError(f"unknown fields: {sorted(extra)}")
    return BuildConfig(
        input_paths=list(body["input_paths"]),
        index_dir=str(body["index_dir"]),
        bm25=BM25Config(**bm25_kwargs),
        dedup=bool(body.get("dedup", False)),
        docid_mode=str(body.get("docid_mode", "dense")),
        num_partitions=body.get("num_partitions"),
    )


_SEARCH_QUERY_FIELDS = {"query_id", "text", "k", "slop", "span_exclude",
                        "span_little"}


def parse_search_queries(rows):
    """Validate + frame the per-query rows shared by ``/_search`` and
    ``/_msearch`` legs (typed errors -> HTTP 400). Positional-mode per-query
    options attach a column only when some row carries it (JSON null ==
    absent) — the searcher rejects a slop/span column under a
    non-positional mode, so an unconditional column would 400 every bmw
    request."""
    import numpy as np
    import pandas as pd

    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, dict) and "query_id" in r
                       and "text" in r for r in rows)):
        raise ValueError(
            "queries must be a non-empty list of "
            "{query_id, text, k?, slop?, span_exclude?, span_little?} objects"
        )
    bad = sorted({k for r in rows for k in r} - _SEARCH_QUERY_FIELDS)
    if bad:
        raise ValueError(f"unknown query fields: {bad}")
    q = pd.DataFrame({
        "query_id": np.array([int(r["query_id"]) for r in rows],
                             dtype=np.int64),
        "text": [str(r["text"]) for r in rows],
        "k": np.array([int(r.get("k", 10)) for r in rows], dtype=np.int32),
    })
    if any(r.get("slop") is not None for r in rows):
        q["slop"] = np.array([int(r.get("slop") or 0) for r in rows],
                             dtype=np.int32)
    if any(r.get("span_exclude") is not None for r in rows):
        q["span_exclude"] = [
            None if r.get("span_exclude") is None
            else str(r["span_exclude"]) for r in rows]
    if any(r.get("span_little") is not None for r in rows):
        q["span_little"] = [
            None if r.get("span_little") is None
            else str(r["span_little"]) for r in rows]
    return q


# Arrow docmeta dtype -> OpenSearch field_caps (type, searchable,
# aggregatable). `text` is the one analyzed (searchable, not aggregatable)
# field; every stored metadata field filters via `where` pushdown and
# aggregates via the docmeta probes.
def _field_caps(index_dir: str, fields=None) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.incremental import (
        docmeta_dirs,
    )
    from remote_vector_index_builder_ray.state import fs

    first = None
    for d in docmeta_dirs(index_dir):
        for rel in fs.listdir(d, recursive=True):
            if rel.endswith(".parquet"):
                first = fs.join(d, rel)
                break
        if first:
            break
    if first is None:
        raise EngineError(f"index at {index_dir} has no docmeta")
    f, p = fs.resolve(first)
    schema = pq.read_schema(p, filesystem=f)
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
    if fields is not None:
        want = {str(x) for x in fields}
        caps = {k: v for k, v in caps.items() if k in want}
    return {"indices": [index_dir], "fields": caps}


def make_server(service: BuildService, host: str = "127.0.0.1", port: int = 0,
                query_service=None) -> ThreadingHTTPServer:
    def _query_service():
        # lazy: the process-default owner sizes its pools from
        # ray.cluster_resources(), so it is resolved on the first /_search
        # (the caller owns the Ray session; make_server itself must not
        # require one). It is the owner the library paths use, so /_search,
        # /_count and in-process search() calls share one pool per index.
        if query_service is not None:
            return query_service
        from remote_vector_index_builder_ray.query_service import (
            default_service,
        )

        return default_service()

    class Handler(BaseHTTPRequestHandler):
        def _send(self, code: int, payload) -> None:
            data = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args) -> None:  # quiet server
            pass

        def do_GET(self) -> None:
            if self.path == "/_heart_beat":
                self._send(200, service.heart_beat())
            elif self.path.startswith("/_cat/indices"):
                # OpenSearch _cat/indices (JSON format): one row per index
                # dir from the ?index_dir= query params — docs.count from
                # the committed stats record + uncompacted generations
                # (manifest reads only; never a data scan)
                from urllib.parse import parse_qs, urlparse

                try:
                    qs = parse_qs(urlparse(self.path).query)
                    dirs = qs.get("index_dir", [])
                    if not dirs:
                        raise ValueError("at least one index_dir query "
                                         "parameter is required")
                    rows = []
                    from remote_vector_index_builder_ray.state import fs as _fs
                    from remote_vector_index_builder_ray.state.manifest import (
                        load_base_stats,
                    )

                    for d in dirs:
                        st = load_base_stats(d)
                        man = _fs.read_json(_fs.join(d, "manifest.json"))
                        n = int(st["N"])
                        gens = man.get("generations", [])
                        for g in gens:
                            if not g.get("compacted"):
                                n += int(g["n_docs"])
                        tomb = man.get("tombstones", [])
                        rows.append({
                            "index": d,
                            "status": "open",
                            "docs.count": n,
                            "docs.deleted": sum(
                                int(t.get("n", 0)) for t in tomb),
                            "segments.count": 1 + len(gens),
                        })
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, rows)
            elif self.path == "/_jobs":
                self._send(200, [_job_payload(j) for j in service.jobs()])
            elif self.path.startswith("/_status/"):
                job = service.status(self.path[len("/_status/"):])
                if job is None:
                    self._send(404, {"error": "job not found"})
                else:
                    self._send(200, _job_payload(job))
            else:
                self._send(404, {"error": "unknown route"})

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            return body

        def do_POST(self) -> None:
            if self.path == "/_search":
                # request-serving path: a WARM persistent searcher pool per
                # (index, manifest fingerprint) — no per-request actor pool
                # spin-up; committed index mutations retire the pool
                # automatically (query_service module docstring)
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "queries") if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "queries", "mode",
                                         "similarity"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    q = parse_search_queries(body["queries"])
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                try:
                    out = _query_service().search(
                        str(body["index_dir"]), q,
                        mode=str(body.get("mode", "bmw")),
                        similarity=str(body.get("similarity", "bm25")))
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    # request-level faults (bad index_dir, positionless
                    # index + phrase mode, unknown mode) -> 400, not a
                    # dropped connection
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, {"rows": out.to_dict(orient="records"),
                                 "total": int(len(out))})
                return
            if self.path == "/_msearch":
                # OpenSearch _msearch: many sub-searches in one round-trip,
                # per-leg statuses (a failing leg never drops the batch);
                # every leg runs on the same warm searcher pools, so a
                # mixed-mode batch warms each (index, mode) pool at most once
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "searches")
                               if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "searches"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    legs = body["searches"]
                    if not isinstance(legs, list) or not legs:
                        raise ValueError("searches must be a non-empty list")
                    parsed = []
                    for leg in legs:
                        if not isinstance(leg, dict) or "queries" not in leg:
                            raise ValueError(
                                "each search must be a {queries, mode?} object"
                            )
                        lex = set(leg) - {"queries", "mode"}
                        if lex:
                            raise ValueError(
                                f"unknown search fields: {sorted(lex)}")
                        parsed.append((str(leg.get("mode", "bmw")),
                                       parse_search_queries(leg["queries"])))
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                responses = []
                for mode, q in parsed:
                    try:
                        out = _query_service().search(
                            str(body["index_dir"]), q, mode=mode)
                        responses.append({
                            "rows": out.to_dict(orient="records"),
                            "total": int(len(out)), "status": 200,
                        })
                    except (EngineError, ValueError, KeyError, TypeError,
                            FileNotFoundError, OSError) as ex:
                        responses.append({"error": str(ex), "status": 400})
                    except Exception as ex:  # noqa: BLE001 — wire boundary
                        responses.append({"error": str(ex), "status": 500})
                self._send(200, {"responses": responses})
                return
            if self.path == "/_msearch/template":
                # OpenSearch _msearch/template: each leg is a (template,
                # params, k) triple — rendered driver-side (unresolved
                # placeholder -> that leg's own 400), then run over the same
                # warm pools with per-leg statuses like /_msearch
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "searches")
                               if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "searches"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    legs = body["searches"]
                    if not isinstance(legs, list) or not legs:
                        raise ValueError("searches must be a non-empty list")
                    for leg in legs:
                        if not isinstance(leg, dict) or not (
                                {"template", "params"} <= set(leg)):
                            raise ValueError(
                                "each search must be a {template, params, "
                                "k?, mode?} object")
                        lex = set(leg) - {"template", "params", "k", "mode"}
                        if lex:
                            raise ValueError(
                                f"unknown search fields: {sorted(lex)}")
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                import pandas as pd

                from remote_vector_index_builder_ray.pipelines.query import (
                    render_search_template,
                )

                responses = []
                for leg in legs:
                    try:
                        frame = pd.DataFrame({
                            "query_id": [0],
                            "template": [str(leg["template"])],
                            "params": [json.dumps(leg["params"])],
                        })
                        text = render_search_template(frame)["text"].iloc[0]
                        q = parse_search_queries([{
                            "query_id": 0, "text": text,
                            "k": int(leg.get("k", 10))}])
                        out = _query_service().search(
                            str(body["index_dir"]), q,
                            mode=str(leg.get("mode", "bmw")))
                        responses.append({
                            "rows": out.to_dict(orient="records"),
                            "total": int(len(out)), "status": 200,
                        })
                    except (EngineError, ValueError, KeyError, TypeError,
                            FileNotFoundError, OSError) as ex:
                        responses.append({"error": str(ex), "status": 400})
                    except Exception as ex:  # noqa: BLE001 — wire boundary
                        responses.append({"error": str(ex), "status": 500})
                self._send(200, {"responses": responses})
                return
            if self.path == "/_field_caps":
                try:
                    body = self._read_body()
                    if "index_dir" not in body:
                        raise ValueError("missing required fields: ['index_dir']")
                    extra = set(body) - {"index_dir", "fields"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    fields = body.get("fields")
                    if fields is not None and not isinstance(fields, list):
                        raise ValueError("fields must be a list of names")
                    out = _field_caps(str(body["index_dir"]), fields)
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError,
                        json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, out)
                return
            if self.path == "/_delete_by_query":
                # synchronous by-query delete on the DISTRIBUTED sharded
                # path (pipelines/delete.delete_by_query): match-set shard
                # pieces stay in the object store; per-shard tasks write the
                # tombstone files — the driver (this handler) only sees
                # counts, so a match-everything delete is capacity-safe
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "text") if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "text", "where"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    where = body.get("where")
                    if where is not None:
                        where = [tuple(t) for t in where]
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                from remote_vector_index_builder_ray.pipelines.delete import (
                    delete_by_query,
                )

                try:
                    out = delete_by_query(
                        str(body["index_dir"]), str(body["text"]), where=where
                    )
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, out)
                return
            if self.path == "/_update_by_query":
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "query_text", "out_dir")
                               if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "query_text", "out_dir",
                                         "append_text", "num_partitions"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                except (ValueError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                from remote_vector_index_builder_ray.pipelines.incremental import (
                    update_by_query,
                )

                try:
                    out = update_by_query(
                        str(body["index_dir"]), str(body["query_text"]),
                        str(body.get("append_text", " [updated]")),
                        str(body["out_dir"]),
                        num_partitions=body.get("num_partitions"),
                    )
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                out.pop("manifest", None)  # wire payload: counts only
                self._send(200, out)
                return
            if self.path == "/_analyze":
                # OpenSearch _analyze: run the INDEX's analyzer (stats.json
                # — the same one that built the postings) over a text and
                # return the token stream with positions; no search runs
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "text") if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "text"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    from remote_vector_index_builder_ray.functions.tokenizer import (
                        analyze_text_positions,
                        load_analyzer,
                    )

                    an = load_analyzer(str(body["index_dir"]))
                    toks, pos = analyze_text_positions(
                        str(body["text"] or ""), an)
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError,
                        json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, {"tokens": [
                    {"token": t, "position": int(p)}
                    for t, p in zip(toks, pos)
                ]})
                return
            if self.path == "/_count":
                # OpenSearch _count: the exact match count of ONE query via
                # the distributed match-set shard counts (aggs.match_count,
                # scored on the shared warm searcher pool) — counts only
                # ever cross the wire
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "text") if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "text", "where"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    where = body.get("where")
                    if where is not None:
                        where = [tuple(t) for t in where]
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                try:
                    import pandas as pd

                    from remote_vector_index_builder_ray.pipelines.aggs import (
                        match_count,
                    )

                    q = pd.DataFrame({"query_id": [0],
                                      "text": [str(body["text"])]})
                    out = match_count(str(body["index_dir"]), q, where=where)
                    n = int(out["total_hits"].iloc[0]) if len(out) else 0
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, {"count": n})
                return
            if self.path == "/_explain":
                # OpenSearch _explain: per-term score breakdown of one
                # (query text, docid) — contributions sum to the search
                # score in term-ascending order (pipelines/query.explain)
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "text", "docid")
                               if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "text", "docid"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    docid = int(body["docid"])
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                try:
                    import pandas as pd

                    from remote_vector_index_builder_ray.pipelines.query import (
                        explain,
                    )

                    q = pd.DataFrame({"query_id": [0],
                                      "text": [str(body["text"])]})
                    pairs = pd.DataFrame({"query_id": [0], "docid": [docid]})
                    ex_df = explain(str(body["index_dir"]), q, pairs)
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                details = [
                    {"term": r.term, "tf": int(r.tf), "df": int(r.df),
                     "contribution": float(r.contrib)}
                    for r in ex_df.itertuples(index=False)
                ]
                self._send(200, {
                    "matched": bool(details),
                    "docid": docid,
                    "value": float(sum(d["contribution"] for d in details)),
                    "details": details,
                })
                return
            if self.path == "/_forcemerge":
                # OpenSearch _forcemerge (max_num_segments=1): expunge
                # tombstones + fold generations via compact_index's atomic
                # postings swap; counts-only wire payload
                try:
                    body = self._read_body()
                    if "index_dir" not in body:
                        raise ValueError("missing required fields: ['index_dir']")
                    extra = set(body) - {"index_dir"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                except (ValueError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                from remote_vector_index_builder_ray.pipelines.incremental import (
                    compact_index,
                )

                try:
                    out = compact_index(str(body["index_dir"]))
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                out.pop("manifest", None)
                self._send(200, {k: v for k, v in out.items()
                                 if isinstance(v, (int, float, str, bool))})
                return
            if self.path == "/_aliases":
                # OpenSearch _aliases (add action): a named filtered view
                # stored in the manifest; re-adding overwrites (PUT-alias)
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "alias") if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "alias", "where"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    where = body.get("where")
                    if where is not None:
                        where = [tuple(t) for t in where]
                except (ValueError, TypeError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                from remote_vector_index_builder_ray.pipelines.incremental import (
                    create_alias,
                )

                try:
                    out = create_alias(str(body["index_dir"]),
                                       str(body["alias"]), where=where)
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, out)
                return
            if self.path == "/_rollover":
                # OpenSearch _rollover / ILM max_docs: admit pending batch
                # REFERENCES and seal a generation when the policy trips;
                # {"flush": true} forces the tail
                try:
                    body = self._read_body()
                    if "index_dir" not in body:
                        raise ValueError("missing required fields: ['index_dir']")
                    extra = set(body) - {"index_dir", "input_paths",
                                         "max_docs", "flush"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                except (ValueError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                from remote_vector_index_builder_ray.pipelines.incremental import (
                    rollover_config,
                    rollover_flush,
                    rollover_ingest,
                )

                try:
                    idx = str(body["index_dir"])
                    if "max_docs" in body:
                        ro = rollover_config(idx, int(body["max_docs"]))
                        ro = ro.get("rollover", ro)
                    elif body.get("flush"):
                        ro = rollover_flush(idx)
                    elif "input_paths" in body:
                        ro = rollover_ingest(idx, list(body["input_paths"]))
                    else:
                        raise ValueError(
                            "one of max_docs / input_paths / flush required")
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                # counts-only wire view of the rollover state
                self._send(200, {
                    "max_docs": int(ro["max_docs"]),
                    "pending_batches": len(ro.get("pending", [])),
                    "pending_rows": sum(int(b["n_rows"])
                                        for b in ro.get("pending", [])),
                    "rolled_generations": len(ro.get("history", [])),
                })
                return
            if self.path == "/_render/template":
                # OpenSearch _render/template: mustache substitution over
                # (template, params) — unresolved placeholders 400 (they
                # would silently match nothing)
                try:
                    body = self._read_body()
                    missing = [k for k in ("template", "params")
                               if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"template", "params"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    import pandas as pd

                    from remote_vector_index_builder_ray.pipelines.query import (
                        render_search_template,
                    )

                    frame = pd.DataFrame({
                        "query_id": [0],
                        "template": [str(body["template"])],
                        "params": [json.dumps(body["params"])],
                    })
                    text = render_search_template(frame)["text"].iloc[0]
                except (EngineError, ValueError, KeyError, TypeError,
                        json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, {"template_output": {"query": text}})
                return
            if self.path == "/_ingest/pipeline/_simulate":
                # OpenSearch _ingest/pipeline/_simulate: run the processor
                # chain over the request's inline docs and return the
                # transformed docs — compile errors (unknown processor,
                # missing config) 400 before anything runs
                import pyarrow as pa

                try:
                    body = self._read_body()
                    missing = [k for k in ("processors", "docs")
                               if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"processors", "docs"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                    docs = body["docs"]
                    if (not isinstance(docs, list) or not docs
                            or not all(isinstance(d, dict) for d in docs)):
                        raise ValueError("docs must be a non-empty list of "
                                         "objects")
                    from remote_vector_index_builder_ray.pipelines.ingest import (
                        compile_ingest_pipeline,
                    )

                    fn = compile_ingest_pipeline(body["processors"])
                    out = fn(pa.Table.from_pylist(docs))
                except (EngineError, ValueError, KeyError, TypeError,
                        pa.lib.ArrowInvalid,
                        json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, {"docs": out.to_pylist()})
                return
            if self.path == "/_validate/query":
                # OpenSearch _validate/query: checks the request would
                # compile WITHOUT running it — schema, a served mode and the
                # columns it accepts and requires (stages.search.MODES), and
                # (mode=query_string) the frozen query-string grammar. Always
                # HTTP 200; the verdict rides the body ({valid, error}) like
                # OpenSearch's
                try:
                    body = self._read_body()
                    missing = [k for k in ("index_dir", "queries") if k not in body]
                    if missing:
                        raise ValueError(f"missing required fields: {missing}")
                    extra = set(body) - {"index_dir", "queries", "mode"}
                    if extra:
                        raise ValueError(f"unknown fields: {sorted(extra)}")
                except (ValueError, json.JSONDecodeError) as ex:
                    self._send(400, {"error": str(ex)})
                    return
                mode = str(body.get("mode", "bmw"))
                try:
                    q = parse_search_queries(body["queries"])
                    if mode == "query_string":
                        from remote_vector_index_builder_ray.pipelines.query import (
                            parse_simple_query_string,
                        )

                        for t in q["text"]:
                            parse_simple_query_string(str(t or ""))
                    else:
                        from remote_vector_index_builder_ray.stages.search import (
                            validate,
                        )

                        validate(mode, q.columns, served=True)
                    # the index must exist and carry a readable stats record
                    from remote_vector_index_builder_ray.state.manifest import (
                        load_base_stats,
                    )

                    load_base_stats(str(body["index_dir"]))
                except (EngineError, ValueError, KeyError, TypeError,
                        FileNotFoundError, OSError) as ex:
                    self._send(200, {"valid": False, "error": str(ex)})
                    return
                except Exception as ex:  # noqa: BLE001 — wire boundary
                    self._send(500, {"error": str(ex)})
                    return
                self._send(200, {"valid": True})
                return
            if self.path != "/_build":
                self._send(404, {"error": "unknown route"})
                return
            try:
                body = self._read_body()
                cfg = parse_build_request(body)
            except (ValueError, json.JSONDecodeError) as ex:
                self._send(400, {"error": str(ex)})
                return
            try:
                job_id = service.submit(cfg)
            except HashCollisionError as ex:
                self._send(429, {"error": str(ex)})
                return
            except CapacityError as ex:
                self._send(507, {"error": str(ex)})
                return
            self._send(200, {"job_id": job_id})

    return ThreadingHTTPServer((host, port), Handler)


def serve_background(service: BuildService, host: str = "127.0.0.1", port: int = 0):
    """Start the façade on a daemon thread; returns (server, base_url)."""
    server = make_server(service, host, port)
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    return server, f"http://{server.server_address[0]}:{server.server_address[1]}"
