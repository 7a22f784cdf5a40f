"""The machine-noise record and memory sampling, read from ``/proc`` and ``/sys``."""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def llc_bytes() -> int:
    """Size of the highest-level CPU cache of cpu0 (0 when unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as handle:
                level = int(handle.read())
            with open(f"{base}/{entry}/size") as handle:
                text = handle.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def cpu_ticks() -> dict[str, int]:
    """Aggregate ``/proc/stat`` cpu ticks: iowait and steal (zeros when absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return {"iowait": 0, "steal": 0}
    values = [int(v) for v in fields[1:]]
    values += [0] * (8 - len(values))
    return {"iowait": values[4], "steal": values[7]}


def tick_seconds(before: dict[str, int], after: dict[str, int]) -> dict[str, float]:
    hz = os.sysconf("SC_CLK_TCK")
    return {key: (after[key] - before[key]) / hz for key in before}


#: Wall time of one :func:`calibration_unit` on the reference machine (the
#: 2-vCPU Xeon VM of README.md, at a calm moment).  Time metrics are scaled
#: to this speed: a run on a machine that does the unit in twice the time
#: has its times halved.
CALIBRATION_REFERENCE_S = 0.0115

_rng = np.random.default_rng(20261017)
_LARGE = _rng.standard_normal(1_500_000)  # 12 MB: past L2, as the program's sweeps
_SWEPT = np.empty_like(_LARGE)  # preallocated, so a unit allocates no memory
_MASK = np.empty(_LARGE.shape, dtype=bool)
_SMALL = _rng.standard_normal((224, 3))  # one mpc-sim machine's slice
_DIRECTION = np.array([0.3, -0.2, 0.9])


def calibration_unit() -> float:
    """Run a fixed mix of reference work and return its wall seconds.

    The mix stands for what the program's ops do, in about equal parts of
    the unit: interpreted Python, many NumPy calls on small arrays, and one
    sweep of an array larger than L2.  It calls nothing in the program.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(32_000):
        key = i & 127
        table[key] = table.get(key, 0) + i
    hits = 0
    for _ in range(720):
        hits += int(np.count_nonzero(_SMALL @ _DIRECTION > 0.5))
    np.multiply(_LARGE, 1.5, out=_SWEPT)
    np.add(_SWEPT, 0.25, out=_SWEPT)
    np.greater(_SWEPT, 0.5, out=_MASK)
    hits += int(np.count_nonzero(_MASK))
    return time.perf_counter() - start


def _children_cpu_s(pid: int) -> float:
    hz = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in _children(pid):
        try:
            with open(f"/proc/{child}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
        except (OSError, IndexError, ValueError):
            continue
    return total / hz


def _other_cpu_s() -> float:
    """CPU seconds of this process's other threads and of its children so far."""
    return time.process_time() - time.thread_time() + _children_cpu_s(os.getpid())


class Calibration:
    """Calibration units run between ops: how fast the machine ran meanwhile.

    Run in the gaps between ops, the units share the ops' machine: a stolen
    or contended stretch slows both.  :meth:`slowdown` is their mean time
    over the reference time.  CPU the program spends while a unit runs (a
    thread or worker still busy after its op returned) would slow the units
    and so flatter the program; :meth:`background_share` shows it.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.other_cpu_s = 0.0

    def run(self, units: int) -> None:
        for _ in range(units):
            other = _other_cpu_s()
            self.seconds.append(calibration_unit())
            self.other_cpu_s += _other_cpu_s() - other

    def slowdown(self) -> float:
        return statistics.fmean(self.seconds) / CALIBRATION_REFERENCE_S

    def background_share(self) -> float:
        return self.other_cpu_s / sum(self.seconds)


def _pss_kb(pid: int | str) -> int:
    """Proportional set size of a process's anonymous and shared-memory pages.

    Each shared page is split among the processes that map it.  File-backed
    pages (library code) are left out: their share depends on how many other
    processes on the machine map the same files.
    """
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Pss_Anon:", "Pss_Shmem:")):
                    total += int(line.split()[1])
    except (OSError, ValueError):
        pass
    return total


def _children(pid: int) -> list[str]:
    found: list[str] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(handle.read().split())
        except OSError:
            continue
    return found


class MemorySampler:
    """Summed anonymous and shared-memory PSS of this process and its children.

    PSS counts a page shared by several processes (a shared-memory segment
    mapped by the parent and its workers) once in total.  Samples are taken
    on a thread from :meth:`start` on, so memory the benchmark's own set-up
    touched earlier counts only while it stays resident.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="pss-sampler", daemon=True)

    def sample(self) -> None:
        pid = os.getpid()
        total = _pss_kb(pid) + sum(_pss_kb(child) for child in _children(pid))
        self.samples.append((time.perf_counter(), total))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> "MemorySampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (again: no effect) and take one last sample."""
        if not self._stop.is_set():
            self._stop.set()
            self._thread.join()
            self.sample()

    def peak_mb(self) -> float:
        """Peak of the samples taken from :meth:`start` to :meth:`stop`."""
        return max(kb for _, kb in self.samples) / 1024.0
