"""Process bookkeeping from /proc: resident memory of the Ray session and
clean-up of every process a run started."""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
CLK_TCK = os.sysconf("SC_CLK_TCK")


def _pids() -> "list[int]":
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _ppid(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return -1


def _ancestors() -> "set[int]":
    out, pid = set(), os.getpid()
    while pid > 1:
        out.add(pid)
        pid = _ppid(pid)
    return out


def session_pids(ray_dir: str) -> "list[int]":
    """The run's harness (``--ray-dir <ray_dir>``), Ray's daemons for the
    session under ``ray_dir`` and every worker those daemons started.
    Never this process or its ancestors."""
    marks = (f"{ray_dir}/session_", f"--ray-dir {ray_dir}")
    skip = _ancestors()
    daemons = {p for p in _pids() if p not in skip and any(k in _cmdline(p) for k in marks)}
    workers = {p for p in _pids() if _ppid(p) in daemons and p not in skip}
    return sorted(daemons | workers)


def worker_pids(ray_dir: str) -> "list[int]":
    """Worker processes (tasks and actors) of the session's raylet."""
    raylets = {p for p in _pids() if f"{ray_dir}/session_" in (c := _cmdline(p)) and "raylet" in c.split(" ", 1)[0]}
    return [p for p in _pids() if _ppid(p) in raylets]


def _cpu_ticks(pids) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
        except (OSError, IndexError, ValueError):
            pass
    return total


def wait_quiet(ray_dir: str, window: float = 0.5, busy: float = 0.1, max_wait: float = 3.0) -> float:
    """Wait until the session's other processes (daemons, workers still
    starting or exiting) use under ``busy`` of a CPU over ``window``
    seconds; on a 1-core box their start-up work would otherwise land in
    the measured loop.  Returns the seconds waited."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < max_wait:
        pids = [p for p in session_pids(ray_dir) if p != os.getpid()]
        before = _cpu_ticks(pids)
        time.sleep(window)
        if (_cpu_ticks(pids) - before) / CLK_TCK < busy * window:
            break
    return time.monotonic() - t0


def pin_session(ray_dir: str, cpus) -> None:
    """Restrict every thread of this process and of the session's daemons
    and workers to ``cpus``; processes and threads they start later
    inherit it."""
    for pid in {os.getpid(), *session_pids(ray_dir)}:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:  # the thread ended meanwhile
                pass


def rss_mb(pids) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1])
        except (OSError, IndexError, ValueError):
            pass
    return total * _PAGE / (1 << 20)


class PeakRss:
    """Samples the resident memory of this process plus the session's
    workers every ``interval`` seconds; ``peak`` is the largest sum."""

    def __init__(self, ray_dir: str, interval: float = 2.0):
        self.ray_dir, self.interval = ray_dir, interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        self.peak = max(self.peak, rss_mb([os.getpid(), *worker_pids(self.ray_dir)]))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()
        return False


def kill_session(ray_dir: str, timeout: float = 20.0) -> None:
    """Stop every process of the Ray session rooted at ``ray_dir`` and wait
    until they are gone."""
    pids = session_pids(ray_dir)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout / 2
        while time.monotonic() < deadline:
            pids = [p for p in pids if _alive(p)]
            if not pids:
                return
            time.sleep(0.1)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
