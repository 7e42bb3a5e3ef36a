"""Per-process CPU time and peak RSS of this benchmark's Ray session, read
from ``/proc`` (Linux only; psutil is not a dependency).

Processes are the driver and its descendants (the Ray node processes it
starts and the workers those start), grouped by process title: Ray names
a worker process ``ray::<ActorClass>`` or ``ray::<task>`` while it runs.
"""

from __future__ import annotations

import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")

GROUPS = ("driver", "frontier_shard", "urlseen_shard", "task_workers",
          "ray_system")
# groups whose peak RSS is summed into the end-to-end peak_rss_mb
RSS_GROUPS = ("driver", "frontier_shard", "urlseen_shard", "task_workers")
# actors Ray Data starts for its own bookkeeping: Ray system, not workers
_RAY_ACTORS = ("ray::_StatsActor", "ray::AutoscalingRequester")


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode(errors="replace")
    except OSError:       # the process exited between listing and reading
        return None


def _stat(pid: int) -> tuple[int, float, int, str] | None:
    """(ppid, utime+stime seconds, start time in ticks, state letter)."""
    s = _read(f"/proc/{pid}/stat")
    if s is None:
        return None
    f = s[s.rindex(")") + 2:].split()
    return int(f[1]), (int(f[11]) + int(f[12])) / _TICK, int(f[19]), f[0]


def _group(pid: int, driver: int) -> str:
    if pid == driver:
        return "driver"
    cmd = (_read(f"/proc/{pid}/cmdline") or "").replace("\0", " ").strip()
    if cmd.startswith("ray::FrontierShard"):
        return "frontier_shard"
    if cmd.startswith("ray::UrlSeenShard"):
        return "urlseen_shard"
    if cmd.startswith("ray::") and not cmd.startswith(_RAY_ACTORS):
        return "task_workers"
    return "ray_system"


def _hwm_kb(pid: int) -> int:
    for line in (_read(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def session_pids(driver: int | None = None) -> set[int]:
    """The driver and all its descendants."""
    driver = driver or os.getpid()
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            st = _stat(int(d))
            if st is not None:
                children.setdefault(st[0], []).append(int(d))
    out, todo = set(), [driver]
    while todo:
        p = todo.pop()
        out.add(p)
        todo.extend(children.get(p, ()))
    return out


def snapshot(driver: int | None = None) -> dict[int, tuple[str, float, int, int]]:
    """pid -> (group, cpu seconds, start ticks, VmHWM kB) for the session."""
    driver = driver or os.getpid()
    out = {}
    for pid in session_pids(driver):
        st = _stat(pid)
        if st is not None:
            out[pid] = (_group(pid, driver), st[1], st[2], _hwm_kb(pid))
    return out


def reset_hwm(pids) -> None:
    """Reset each process's VmHWM to its current RSS, so the next reading
    is the peak of what ran in between."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:   # exited, or not ours to reset
            pass


def cpu_delta(before: dict, after: dict) -> dict[str, float]:
    """CPU seconds each group spent between two snapshots. A process born
    in between counts from its start; one that exited in between is lost."""
    out = dict.fromkeys(GROUPS, 0.0)
    for pid, (group, cpu, start, _) in after.items():
        prev = before.get(pid)
        base = prev[1] if prev is not None and prev[2] == start else 0.0
        out[group] += cpu - base
    return out


def hwm_mb(snap: dict) -> dict[str, float]:
    """Summed peak RSS (VmHWM) per group, in MiB, since the last
    ``reset_hwm`` of each process or its start."""
    out = dict.fromkeys(GROUPS, 0.0)
    for group, _, _, kb in snap.values():
        out[group] += kb / 1024.0
    return out


def reap(pids: dict[int, int], timeout: float = 20.0) -> list[int]:
    """Wait until every process in ``pids`` (pid -> start ticks) has exited;
    SIGKILL what is still alive after ``timeout``. Returns the pids that had
    to be killed."""
    def alive() -> list[int]:
        out = []
        for pid, start in pids.items():
            st = _stat(pid)
            if st is not None and st[2] == start and st[3] != "Z":
                out.append(pid)
        return out

    deadline = time.monotonic() + timeout
    left = alive()
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = alive()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 5.0
    while alive() and time.monotonic() < end:
        time.sleep(0.1)
    return left
