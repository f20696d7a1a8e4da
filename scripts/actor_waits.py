"""Actor-creation waits of one Ray session, read from its GCS log.

    python scripts/actor_waits.py <ray session dir> [--top N]

For every actor the GCS log records "Creating actor" when the creation
request is accepted, and "Finished creating actor. Status: ..." when the
actor's creation task has run (OK) or was cancelled before it could start
(for example an autoscaling pool actor that never got a CPU). The wait is
the time between the two. Prints the count of actors per status, the
longest waits, and the number of OK creations that waited over 10 s.
"""

from __future__ import annotations

import os
import re
import sys
from datetime import datetime

_LINE = re.compile(
    r"^\[(?P<ts>[\d-]+ [\d:,]+) .*?(?P<what>Creating actor|Finished creating actor\. "
    r"Status: (?P<status>\w+)).*?actor_id=(?P<actor>[0-9a-f]+)"
)


def actor_waits(session_dir: str) -> list[tuple[float, str, str]]:
    """(wait seconds, status, actor id) per finished actor creation."""
    created: dict[str, datetime] = {}
    out = []
    with open(os.path.join(session_dir, "logs", "gcs_server.out")) as f:
        for line in f:
            m = _LINE.match(line)
            if m is None:
                continue
            ts = datetime.strptime(m["ts"], "%Y-%m-%d %H:%M:%S,%f")
            if m["what"] == "Creating actor":
                created[m["actor"]] = ts
            elif m["actor"] in created:
                wait = (ts - created.pop(m["actor"])).total_seconds()
                out.append((wait, m["status"], m["actor"]))
    return out


def main() -> int:
    args = sys.argv[1:]
    top = int(args[args.index("--top") + 1]) if "--top" in args else 5
    waits = sorted(actor_waits(args[0]), reverse=True)
    by_status: dict[str, int] = {}
    for _, status, _ in waits:
        by_status[status] = by_status.get(status, 0) + 1
    print("actors per status:", by_status)
    for wait, status, actor in waits[:top]:
        print(f"{wait:8.2f} s  {status:<20} {actor}")
    print("OK creations over 10 s:",
          sum(1 for w, s, _ in waits if s == "OK" and w > 10))
    return 0


if __name__ == "__main__":
    sys.exit(main())
