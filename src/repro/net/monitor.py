"""Link and flow monitors.

Monitors observe the network without influencing it.  They accumulate the
raw material the analysis layer needs: per-flow byte arrival events (for the
send-rate time series of paper Eq. 2), link drop/forward counts (loss rate,
utilization), and queue-occupancy samples (Figure 14).

Every series is typed columns: ``array('d')`` times beside ``array('q')``
cumulative bytes (per flow) or queue depths, and drops as ``array('d')``
times beside ``array('I')`` codes into the monitor's flow names.  The
per-packet arrival and queue-sample callbacks make two list appends
(time, and packet size or depth), packed into the columns every
:data:`~repro.sim.trace.CHUNK` entries (as :class:`~repro.sim.trace.Tracer`
does; arrival sizes are summed into the cumulative column then); the rare
drops go straight into their arrays.  No per-packet Python object is kept.
Window queries (`throughput_bps`, `rate_series`, `queue_series`) are
``bisect`` slices on the sorted time columns instead of full scans; byte
totals are exact integer sums, and a rate series is binned straight from
the columns with numpy.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import CHUNK, Tracer, pack_into


class LinkMonitor:
    """Tracks a link's departures, drops, and queue occupancy over time."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        tracer: Optional[Tracer] = None,
        sample_queue: bool = True,
    ) -> None:
        self.sim = sim
        self.link = link
        self.tracer = tracer
        self._queue_times = array("d")
        self._queue_depths = array("q")
        self._new_queue_times: List[float] = []
        self._new_queue_depths: List[int] = []
        self._drop_times = array("d")
        self._drop_flows = array("I")  # codes into _flow_names
        self._flow_names: List[str] = []
        self._flow_codes: Dict[str, int] = {}
        self._wrap_queue()
        if sample_queue:
            link.add_queue_sample_hook(self._make_queue_hook())

    def _pack_queue(self) -> None:
        pack_into(self._queue_times, self._new_queue_times)
        pack_into(self._queue_depths, self._new_queue_depths)

    @property
    def drops(self) -> List[Tuple[float, str]]:
        """Drops as ``(time, flow_id)`` pairs, in time order."""
        names = self._flow_names
        return [
            (time, names[code])
            for time, code in zip(self._drop_times, self._drop_flows)
        ]

    def _wrap_queue(self) -> None:
        previous_hook = self.link.queue.drop_hook

        def on_drop(packet: Packet) -> None:
            now = self.sim._now
            flow_id = packet.flow_id
            code = self._flow_codes.get(flow_id)
            if code is None:
                code = self._flow_codes[flow_id] = len(self._flow_names)
                self._flow_names.append(flow_id)
            self._drop_times.append(now)
            self._drop_flows.append(code)
            if self.tracer is not None:
                self.tracer.record(
                    now, "drop", self.link.name, packet.size,
                    meta={"flow": packet.flow_id, "seq": packet.seq},
                )
            if previous_hook is not None:
                previous_hook(packet)

        self.link.queue.drop_hook = on_drop

    def _make_queue_hook(self):
        """A per-sample hook specialized once for this monitor.

        Queue samples fire on every enqueue *and* dequeue of a monitored
        link, so whether a tracer is attached is resolved here instead of
        per packet.
        """
        tracer = self.tracer
        times = self._new_queue_times
        depths_append = self._new_queue_depths.append
        pack = self._pack_queue
        if tracer is None:
            def hook(now: float, depth: int) -> None:
                times.append(now)
                depths_append(depth)
                if len(times) == CHUNK:
                    pack()
            return hook
        record = tracer.record
        name = self.link.name

        def hook(now: float, depth: int) -> None:
            times.append(now)
            depths_append(depth)
            if len(times) == CHUNK:
                pack()
            record(now, "queue", name, depth)
        return hook

    def loss_rate(self) -> float:
        """Fraction of offered packets the queue dropped."""
        offered = self.link.queue.enqueued + self.link.queue.dropped
        if offered == 0:
            return 0.0
        return self.link.queue.dropped / offered

    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the link spent transmitting."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.link.utilization_seconds / duration)

    def queue_series(
        self, t_min: float = 0.0, t_max: Optional[float] = None
    ) -> List[Tuple[float, int]]:
        """Queue-depth samples within a window (bisect-sliced, no scan)."""
        self._pack_queue()
        times = self._queue_times
        lo = bisect_left(times, t_min)
        hi = len(times) if t_max is None else bisect_right(times, t_max)
        return list(zip(times[lo:hi], self._queue_depths[lo:hi]))


class _FlowSeries:
    """Per-flow arrival series: times plus cumulative bytes."""

    __slots__ = ("times", "cum", "new_times", "new_sizes", "total")

    def __init__(self) -> None:
        self.times = array("d")
        self.cum = array("q")  # cum[i] = bytes delivered through arrival i
        self.new_times: List[float] = []
        self.new_sizes: List[int] = []  # summed into cum when packed
        self.total = 0  # bytes delivered through the last packed arrival

    def pack(self) -> "_FlowSeries":
        if self.new_sizes:
            cum = list(accumulate(self.new_sizes, initial=self.total))
            del cum[0]
            self.total = cum[-1]
            pack_into(self.cum, cum)
            pack_into(self.times, self.new_times)
            self.new_sizes.clear()
        return self


class FlowMonitor:
    """Accumulates per-flow arrival events at a measurement point.

    Endpoints call :meth:`on_packet` for every data packet they deliver to
    the application.  :meth:`rate_series` bins a flow's columns into the
    paper's R_tau send-rate time series, :meth:`throughput_bps` answers
    window queries from the cumulative-byte arrays in O(log n), and
    :meth:`arrival_series` rebuilds the time-ordered ``(time, bytes)`` pairs.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self._series: Dict[str, _FlowSeries] = {}

    def on_packet(self, now: float, packet: Packet) -> None:
        """Record the delivery of ``packet`` at time ``now``."""
        flow_id = packet.flow_id
        size = packet.size
        series = self._series.get(flow_id)
        if series is None:
            series = _FlowSeries()
            self._series[flow_id] = series
        times = series.new_times
        times.append(now)
        series.new_sizes.append(size)
        if len(times) == CHUNK:
            series.pack()
        if self.tracer is not None:
            self.tracer.record(now, "recv", flow_id, size)

    # ------------------------------------------------------- derived views

    def arrival_series(self, flow_id: str) -> List[Tuple[float, int]]:
        """One flow's ``(time, bytes)`` pairs ([] for unknown flows)."""
        series = self._series.get(flow_id)
        if series is None:
            return []
        cum = series.pack().cum
        sizes = [cum[0]] if cum else []
        sizes.extend(cum[i] - cum[i - 1] for i in range(1, len(cum)))
        return list(zip(series.times, sizes))

    def rate_series(
        self, flow_id: str, t0: float, t1: float, tau: float
    ) -> np.ndarray:
        """Paper Eq. (2): ``flow_id``'s delivered bytes/second in each of
        the ``floor((t1 - t0) / tau)`` bins of [t0, t1) (zeros for an
        unknown flow).

        Arrivals with ``t0 <= t < t0 + n_bins * tau`` (a bisect slice) go to
        bin ``int((t - t0) / tau)``, clamped to the last: an ulp below the
        window end the quotient can round up to ``n_bins``.  The exact
        integer sizes are summed per bin in arrival order, then divided by
        ``tau``.
        """
        for name, value in (("t0", t0), ("t1", t1), ("tau", tau)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if tau <= 0:
            raise ValueError("tau must be positive")
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        n_bins = int((t1 - t0) / tau)
        if n_bins == 0:
            raise ValueError("window shorter than one timescale bin")
        series = self._series.get(flow_id)
        if series is None:
            return np.zeros(n_bins)
        times = series.pack().times
        lo, hi = bisect_left(times, t0), bisect_left(times, t0 + n_bins * tau)
        # Slices copy, so no numpy view pins the monitor's growing columns.
        cum = np.frombuffer(series.cum[max(lo - 1, 0):hi], dtype=np.int64)
        sizes = np.diff(cum, prepend=0) if lo == 0 else np.diff(cum)
        bins = ((np.frombuffer(times[lo:hi]) - t0) / tau).astype(np.intp)
        np.minimum(bins, n_bins - 1, out=bins)
        return np.bincount(bins, weights=sizes, minlength=n_bins) / tau

    @property
    def bytes_by_flow(self) -> Dict[str, int]:
        return {fid: s.pack().total for fid, s in self._series.items()}

    @property
    def packets_by_flow(self) -> Dict[str, int]:
        return {
            fid: len(s.times) + len(s.new_times)
            for fid, s in self._series.items()
        }

    def throughput_bps(self, flow_id: str, t_min: float, t_max: float) -> float:
        """Average delivered rate for ``flow_id`` over [t_min, t_max]."""
        if t_max <= t_min:
            raise ValueError("need t_max > t_min")
        series = self._series.get(flow_id)
        if series is None:
            return 0.0
        times = series.pack().times
        lo = bisect_left(times, t_min)
        hi = bisect_right(times, t_max)
        if hi <= lo:
            return 0.0
        cum = series.cum
        total = cum[hi - 1] - (cum[lo - 1] if lo else 0)
        return total * 8 / (t_max - t_min)

    def flows(self) -> List[str]:
        return sorted(self._series)
