"""Compare two sets of benchmark runs metric by metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records as ``perfbench/run.py`` appends them to
``.perfbench/results.jsonl``. Runs whose host fingerprints differ are never
compared: the tool refuses and exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(records: list[dict]) -> dict:
    vals = defaultdict(list)
    for r in records:
        key = (r["report"]["workload"], r["report"]["trace"])
        for name, m in r["result"]["metrics"].items():
            vals[key + (name, m["unit"])].append(m["value"])
    return {k: (statistics.median(v), len(v)) for k, v in vals.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    hosts = {json.dumps(r["report"]["host"], sort_keys=True) for r in before + after}
    if len(hosts) != 1:
        print("refusing to compare runs from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2
    b, a = medians(before), medians(after)
    print(f"{'workload':<8} {'metric':<48} {'unit':<12} {'before':>12} {'after':>12} {'change':>8}")
    for key in sorted(set(b) & set(a)):
        (mb, nb), (ma, na) = b[key], a[key]
        change = f"{100 * (ma - mb) / abs(mb):+.1f}%" if mb else "n/a"
        print(f"{key[0]:<8} {key[2]:<48} {key[3]:<12} {mb:>12.4g} {ma:>12.4g} {change:>8}"
              f"  (n={nb}/{na})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
