"""Clocks for the benchmark: load-normalised regions, quartiles, host facts.

The reference box is a shared 2-vCPU VM whose speed drifts by +-20 % for
minutes at a time (identical passes of one simulation: quartile spread
15 %), so a raw wall-clock median cannot hold a 10 % regression bound.
:class:`Calibrator` therefore interleaves a fixed pure-python loop (heap +
float + dict + small objects, the simulator's own instruction mix) with
the measured code -- a ``SIGALRM`` every 100 ms runs one ~18 ms slice --
and a :class:`Region` divides its wall time (calibration excluded) by how
much slower than :data:`CALIB_REF_MS` the slices inside it ran.  Measured
on the same box that brings the quartile spread of run medians from 14 %
to 3 %.  Raw wall time is still reported (``host.wall_raw_s``).
"""

from __future__ import annotations

import contextlib
import heapq
import os
import platform
import resource
import signal
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: one calibration slice on the quiet reference box, in ms; normalised
#: seconds are "seconds on a box whose slice takes this long".
CALIB_REF_MS = 18.0
CALIB_ITERATIONS = 15000
CALIB_INTERVAL_S = 0.1


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


def calibration_slice(n: int = CALIB_ITERATIONS) -> float:
    """The fixed loop; returns its wall time in seconds."""
    heap: list = []
    table: Dict[int, _Obj] = {}
    acc = 0.0
    push, pop = heapq.heappush, heapq.heappop
    started = time.perf_counter()
    for i in range(n):
        obj = _Obj(i * 0.7 % 13.0, i)
        push(heap, (obj.a, i, obj))
        if len(heap) > 512:
            acc += pop(heap)[0]
        table[i & 4095] = obj
    return time.perf_counter() - started


class Region:
    """One measured interval: raw and load-normalised seconds.

    ``concurrent`` says the measured work runs in other processes, which
    keep going while this process calibrates, so slices are not subtracted.
    """

    def __init__(self, calibrator: "Calibrator", concurrent: bool = False) -> None:
        self._cal = calibrator
        self._concurrent = concurrent
        self.elapsed_s = 0.0  # wall time, calibration slices included
        self.quiet_s = 0.0  # wall time outside calibration slices
        self.raw_s = 0.0  # wall time of the measured work alone
        self.calib_ms = 0.0  # mean slice inside the region (0: none ran)
        self.slices = 0

    def __enter__(self) -> "Region":
        self._n0 = len(self._cal.slices_s)
        self._busy0 = self._cal.busy_s
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed_s = time.perf_counter() - self._t0
        mine = self._cal.slices_s[self._n0:]
        self.quiet_s = self.elapsed_s - (self._cal.busy_s - self._busy0)
        self.raw_s = self.elapsed_s if self._concurrent else self.quiet_s
        self.slices = len(mine)
        if mine:
            self.calib_ms = 1e3 * sum(mine) / len(mine)

    @property
    def norm_s(self) -> float:
        """Raw seconds divided by the slow-down of the slices inside.

        A region too short to contain two slices borrows the median of
        every slice the calibrator has run so far.
        """
        calib_ms = self.calib_ms if self.slices >= 2 else self._cal.median_ms()
        return self.raw_s * self._cal.ref_ms / calib_ms if calib_ms else self.raw_s


class Calibrator:
    """Runs :func:`calibration_slice` on an interval timer in this process.

    Forked children inherit the handler but not the timer, and exec'd
    workers inherit neither, so only the generator process calibrates.
    """

    def __init__(self, iterations: int = CALIB_ITERATIONS) -> None:
        self.iterations = iterations
        #: what one slice of this length takes on the quiet reference box.
        self.ref_ms = CALIB_REF_MS * iterations / CALIB_ITERATIONS
        self.slices_s: List[float] = []
        self.busy_s = 0.0  # handler time, to subtract from regions
        self._in_slice = False
        self._previous: Any = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self._in_slice:
            return
        self._in_slice = True
        started = time.perf_counter()
        self.slices_s.append(calibration_slice(self.iterations))
        self.busy_s += time.perf_counter() - started
        self._in_slice = False

    def start(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIB_INTERVAL_S, CALIB_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def region(self, concurrent: bool = False) -> Region:
        return Region(self, concurrent)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """No slices inside: for work whose CPU time is in other processes."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, CALIB_INTERVAL_S, CALIB_INTERVAL_S)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.slices_s) if self.slices_s else 0.0


# ------------------------------------------------------------------ stats


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, as ``statistics.quantiles(n=4)`` has them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ------------------------------------------------------------------- host


def peak_rss_mib(children: bool = False) -> float:
    """``ru_maxrss`` of this process (plus its largest child) in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def filesystem_type(path: str) -> str:
    """The type of the filesystem holding ``path`` (fsync cost depends on it)."""
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(tmpdir: Optional[str] = None) -> Dict[str, Any]:
    """The triple goldens are keyed on, plus what else explains a number."""
    import numpy

    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "load1": os.getloadavg()[0],
        "calib_ref_ms": CALIB_REF_MS,
    }
    if tmpdir is not None:
        env["tmpdir_fstype"] = filesystem_type(tmpdir)
    return env
