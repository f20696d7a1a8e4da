"""Spans recorded by the benchmark around its calls into each engine layer.

A span holds its name, start, end, parent span and request id. Spans stay in
memory and are written as JSON lines when the run ends. A layer's self time
is its span's duration minus the part of that interval its child spans cover.

The benchmark drives one operation at a time (a single closed-loop client),
so open spans form one stack even when a child opens on another thread, as
the HTTP server's handler thread does.

Read a trace back with ``python3 perfbench/spans.py <file.jsonl>``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self.request_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        with self._lock:
            self._next_id += 1
            rec = {"id": self._next_id, "name": name,
                   "parent": self._stack[-1]["id"] if self._stack else None,
                   "request_id": self.request_id, "start": time.perf_counter()}
            self._stack.append(rec)
        try:
            yield
        finally:
            with self._lock:
                rec["end"] = time.perf_counter()
                self._stack.remove(rec)
                self.spans.append(rec)

    @contextlib.contextmanager
    def request(self, request_id: int, name: str):
        """A root span that tags every span opened inside it."""
        self.request_id = request_id
        try:
            with self.span(name):
                yield
        finally:
            self.request_id = None

    def wrap(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` with a span-recording wrapper; returns the
        function that restores the original."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*a, **kw):
            with self.span(name):
                return orig(*a, **kw)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                f.write(json.dumps(rec) + "\n")


def read(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name, summed over the spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, edge = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(out)


def summary(spans: list[dict]) -> str:
    count = defaultdict(int)
    total = defaultdict(float)
    for s in spans:
        count[s["name"]] += 1
        total[s["name"]] += s["end"] - s["start"]
    rows = sorted(self_times(spans).items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':<34} {'spans':>6} {'total_s':>10} {'self_s':>10}"]
    lines += [f"{n:<34} {count[n]:>6} {total[n]:>10.3f} {v:>10.3f}" for n, v in rows]
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/spans.py <trace.jsonl>")
    print(summary(read(sys.argv[1])))
