"""Local simulation of the driver's correctness gate: runs every queries()
entry against its oracle_sql() twin via DuckDB at sf0.01 and reports
row-count / schema / order-insensitive value-hash matches.

    python scripts/driver_check.py [sf_dir] [--out CORRECTNESS_full.json]

Writes a per-entry JSON record (rows/schema/hash matches — the driver's
CORRECTNESS format) when --out is given, so each round commits a full
102-entry artifact without a judge re-run.
"""

from __future__ import annotations

import hashlib
import sys
import time

sys.path.insert(0, ".")


def value_hash(df) -> str:
    import pandas as pd

    df = df[sorted(df.columns)].sort_values(by=sorted(df.columns)).reset_index(drop=True)
    return hashlib.sha256(
        pd.util.hash_pandas_object(df, index=False).values.tobytes()
    ).hexdigest()[:12]


def main() -> int:
    import duckdb
    import ray

    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    out_path = None
    if "--out" in sys.argv:
        out_path = sys.argv[sys.argv.index("--out") + 1]
        args = [a for a in args if a != out_path]
    sf = args[0] if args else "/root/testdata/sf0.01"
    ray.init(address="local", include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    qs, oq = E.queries(), E.oracle_sql()
    failures = 0
    report: dict[str, dict] = {}
    for name, fn in qs.items():
        t0 = time.time()
        try:
            got = fn(sf)
            if hasattr(got, "to_pandas"):
                got = got.to_pandas()
        except Exception as ex:  # noqa: BLE001
            print(f"{name}: RAY FAIL {type(ex).__name__}: {str(ex)[:160]}")
            report[name] = {"rows_match": False, "schema_match": False,
                            "hash_match": False, "err": f"ray: {ex}"[:200]}
            failures += 1
            continue
        t1 = time.time()
        if name not in oq:
            print(f"{name}: ray {t1 - t0:.1f}s rows {len(got)} (rows-only)")
            report[name] = {"rows_only": True, "spark_rows": int(len(got)),
                            "err": None}
            continue
        try:
            exp = con.sql(oq[name]).df()
        except Exception as ex:  # noqa: BLE001
            print(f"{name}: SQL FAIL {str(ex)[:160]}")
            report[name] = {"rows_match": False, "schema_match": False,
                            "hash_match": False, "err": f"sql: {ex}"[:200]}
            failures += 1
            continue
        rows_ok = len(got) == len(exp)
        schema_ok = sorted(got.columns) == sorted(exp.columns)
        hash_ok = False
        if rows_ok and schema_ok:
            exp2 = exp[sorted(exp.columns)].astype(
                {c: str(got[c].dtype) for c in sorted(got.columns)}
            )
            hash_ok = value_hash(got) == value_hash(exp2)
        ok = rows_ok and schema_ok and hash_ok
        print(f"{name}: ray {t1 - t0:.1f}s sql {time.time() - t1:.1f}s "
              f"rows {len(got)}/{len(exp)} {'MATCH' if ok else 'MISMATCH'}")
        report[name] = {"rows_match": rows_ok, "schema_match": schema_ok,
                        "hash_match": hash_ok, "spark_rows": int(len(got)),
                        "oracle_rows": int(len(exp)), "err": None}
        failures += 0 if ok else 1
    ray.shutdown()
    if out_path:
        import json

        with open(out_path, "w") as f:
            json.dump(report, f, indent=2)
        print("wrote", out_path)
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
