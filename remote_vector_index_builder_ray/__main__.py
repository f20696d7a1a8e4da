"""CLI entry points — the ``ray job submit`` driver surface (SURVEY.md 3.4).

    python -m remote_vector_index_builder_ray build  --input <glob...> --index-dir DIR [--dedup] [...]
    python -m remote_vector_index_builder_ray search --index-dir DIR --queries q.parquet --out out.parquet
    python -m remote_vector_index_builder_ray serve [--host H] [--port P]
        (blocking HTTP server for every route in http_api.ROUTES; searches
         ride the warm QueryService pool)

Owns its Ray session (guarded init) — the library itself never calls
ray.init().
"""

from __future__ import annotations

import argparse
import glob
import json
import sys

from remote_vector_index_builder_ray.stages.search import MODES


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="remote_vector_index_builder_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", nargs="+", required=True, help="parquet files or globs")
    b.add_argument("--index-dir", required=True)
    b.add_argument("--num-partitions", type=int, default=None)
    b.add_argument("--dedup", action="store_true")
    b.add_argument("--docid-mode", choices=["dense", "sort"], default="dense")
    b.add_argument("--k1", type=float, default=1.2)
    b.add_argument("--b", type=float, default=0.75)
    b.add_argument("--block-size", type=int, default=128)
    b.add_argument("--shard-range", type=int, default=1 << 23)

    s = sub.add_parser("search")
    s.add_argument("--index-dir", required=True)
    s.add_argument("--queries", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--mode", choices=sorted(MODES), default="bmw")

    v = sub.add_parser("serve")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=8080)
    v.add_argument("--max-workers", type=int, default=2)
    v.add_argument("--max-jobs", type=int, default=64)

    args = p.parse_args(argv)
    _init_ray()

    if args.cmd == "build":
        from remote_vector_index_builder_ray import BuildConfig, build_index
        from remote_vector_index_builder_ray.config import BM25Config

        paths = sorted({f for pat in args.input for f in glob.glob(pat)})
        if not paths:
            print(f"no input files match {args.input}", file=sys.stderr)
            return 2
        cfg = BuildConfig(
            input_paths=paths,
            index_dir=args.index_dir,
            num_partitions=args.num_partitions,
            dedup=args.dedup,
            docid_mode=args.docid_mode,
            bm25=BM25Config(k1=args.k1, b=args.b, block_size=args.block_size,
                            shard_range=args.shard_range),
        )
        man = build_index(cfg)
        print(json.dumps({"job_id": man["job_id"], "status": man["status"],
                          "stats": man["stats"]}))
        return 0

    if args.cmd == "search":
        from remote_vector_index_builder_ray import search

        res = search(args.index_dir, args.queries, mode=args.mode)
        if args.out:
            res.write_parquet(args.out)
            print(json.dumps({"rows": res.count(), "out": args.out}))
        else:
            # json writes each float64 with its round-trip repr: the scores
            # print exactly (to_json would round them to 10 digits)
            print(json.dumps(res.to_pandas().to_dict(orient="records"),
                             separators=(",", ":")))
        return 0

    if args.cmd == "serve":
        from remote_vector_index_builder_ray.http_api import make_server
        from remote_vector_index_builder_ray.service import BuildService

        service = BuildService(max_workers=args.max_workers,
                               max_jobs=args.max_jobs)
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[0], server.server_address[1]
        print(json.dumps({"serving": f"http://{host}:{port}"}), flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            service.shutdown()
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
