"""Host facts, the Ray session and process accounting for one benchmark run.

The benchmark runs from the root of a source checkout. Everything it writes
(inputs, indexes, traces, results and the Ray session) lives under
``<root>/.perfbench/``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
PACKAGE = "remote_vector_index_builder_ray"

# Ray puts unix sockets under its temp dir; AF_UNIX paths stop at 107 bytes
# and Ray appends 62-64 bytes (session_<date>_<pid>/sockets/plasma_store).
_RAY_SUFFIX = 72
_PAGE = os.sysconf("SC_PAGE_SIZE")


def schedulable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def source_id() -> str:
    """The git commit when the checkout is a repository, else a digest of the
    package sources (the benchmark also runs from plain source trees)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, PACKAGE)
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return "src-" + h.hexdigest()[:16]


def fingerprint(ray_num_cpus: int) -> dict:
    """Facts two results must share before they may be compared."""
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {
        "os_cpu_count": os.cpu_count(),
        "sched_affinity": schedulable_cpus(),
        "nproc": nproc,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": ray_num_cpus,
        "python": sys.version.split()[0],
    }


def _cpu_ticks() -> tuple[int, int]:
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


class StealMeter:
    """Hypervisor steal as a share of all CPU ticks over an interval."""

    def __init__(self):
        self._t0 = _cpu_ticks()

    def pct(self) -> float:
        s1, t1 = _cpu_ticks()
        return 100.0 * (s1 - self._t0[0]) / max(1, t1 - self._t0[1])


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command field may hold spaces; ppid follows the closing paren
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


class TreeMemory:
    """Peak summed RSS of this process and every process it started (the Ray
    GCS, raylet and workers), sampled from /proc by a background thread."""

    INTERVAL_S = 0.5

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        me = os.getpid()
        self.peak = max(self.peak, sum(_rss_bytes(p) for p in [me] + descendants(me)))

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.sample()

    def __enter__(self) -> "TreeMemory":
        self.sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if not self._stop.is_set():
            self.sample()
            self._stop.set()
            self._thread.join()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def peak_mb(self) -> float:
        return self.peak / (1 << 20)


class RaySession:
    """Starts a local Ray cluster sized to the schedulable CPUs, with its
    session files under ``<run_dir>/ray``, and, on exit, stops it and waits
    until every process it started has ended."""

    OBJECT_STORE_MB = 768

    def __init__(self, run_dir: str):
        self.num_cpus = schedulable_cpus()
        self.temp_dir = os.path.join(run_dir, "ray")
        self._fd: int | None = None

    def _ray_temp_dir(self) -> str:
        """``temp_dir``, or a /proc link to an open descriptor of it when the
        checkout lies too deep for Ray's unix sockets: either way Ray's files
        stay in the checkout, never in the system temp dir."""
        if len(self.temp_dir) + _RAY_SUFFIX <= 107:
            return self.temp_dir
        self._fd = os.open(self.temp_dir, os.O_RDONLY | os.O_DIRECTORY)
        return f"/proc/{os.getpid()}/fd/{self._fd}"

    def __enter__(self) -> "RaySession":
        # Ray workers import the engine from the checkout, as this process does
        paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        import ray
        from ray.data import DataContext

        os.makedirs(self.temp_dir, exist_ok=True)
        ray.init(address="local", num_cpus=self.num_cpus,
                 object_store_memory=self.OBJECT_STORE_MB << 20,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self._ray_temp_dir())
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        return self

    def __exit__(self, *exc) -> None:
        import ray

        # listed before shutdown: workers whose raylet exits first are
        # re-parented away from this process tree
        started = {p: _start_time(p) for p in descendants(os.getpid())}
        ray.shutdown()
        wait_gone(started)
        if self._fd is not None:
            os.close(self._fd)


def _start_time(pid: int) -> int | None:
    """The process's start time in clock ticks (None once it is gone or a
    zombie): with the pid it names one process even if the pid is reused."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else int(fields[19])


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def wait_gone(procs: dict[int, int | None], grace: float = 15.0) -> None:
    """Wait until every listed process (pid -> start time) has ended; SIGKILL
    what outlives ``grace`` seconds, then wait for those too."""
    deadline = time.time() + grace
    killed = False
    while True:
        _reap()
        left = [p for p, t in procs.items() if t is not None and _start_time(p) == t]
        if not left:
            return
        if not killed and time.time() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.05)
