"""Check a subset of driver entries against their oracle SQL twins.

    python scripts/check_one.py entry1 [entry2 ...] [--sf /root/testdata/sf0.01]
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, ".")

from scripts.driver_check import value_hash  # noqa: E402


def main() -> int:
    import duckdb
    import ray

    sf = "/root/testdata/sf0.01"
    skip = set()
    for i, a in enumerate(sys.argv):
        if a == "--sf":
            sf = sys.argv[i + 1]
            skip.add(i + 1)
    args = [a for i, a in enumerate(sys.argv[1:], 1)
            if not a.startswith("--") and i not in skip]
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
    for name in args:
        fn = qs[name]
        t0 = time.time()
        got = fn(sf)
        if hasattr(got, "to_pandas"):
            got = got.to_pandas()
        t1 = time.time()
        if name not in oq:
            print(f"{name}: ray {t1 - t0:.1f}s rows {len(got)} (rows-only)")
            continue
        exp = con.sql(oq[name]).df()
        ok = len(got) == len(exp) and sorted(got.columns) == sorted(exp.columns)
        if ok:
            exp2 = exp[sorted(exp.columns)].astype(
                {c: str(got[c].dtype) for c in sorted(got.columns)}
            )
            ok = value_hash(got) == value_hash(exp2)
        else:
            print("  got cols", sorted(got.columns), "exp cols", sorted(exp.columns))
        print(f"{name}: ray {t1 - t0:.1f}s sql {time.time() - t1:.1f}s "
              f"rows {len(got)}/{len(exp)} {'MATCH' if ok else 'MISMATCH'}")
        if not ok:
            failures += 1
            print("  got head:\n", got.head(8))
            print("  exp head:\n", exp.head(8))
    ray.shutdown()
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
