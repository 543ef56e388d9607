"""Batched TFRC cell kernel: advance N independent cells in lockstep.

A figure sweep is a grid of *independent* same-topology cells differing
only in a few scalars (loss rate, RTT, seed).  The packet-level engine pays
full Python event-loop overhead once per cell; this module instead models
one equation-based TFRC flow per cell -- the paper's control loop (Equation
(1) rate control, Average Loss Interval estimation with history
discounting, slow-start exit seeding via the inverted response function,
feedback/no-feedback timers) over a fluid bottleneck with RED or DropTail
admission -- and advances all N cells one packet per step with numpy
structure-of-arrays state:

* per-cell timers as parallel ``(deadline, generation)`` arrays
  (:class:`TimerLanes`, the :class:`~repro.sim.process.FastTimer` idiom
  across cells);
* send-rate / RTT / loss-estimator state as float64 vectors, the WALI
  interval history as an (N, 8) matrix;
* RED average-queue and uniformization-counter vectors driven by the
  shared decision math in :mod:`repro.net.redmath`;
* block-buffered per-cell RNG lanes (:class:`~repro.sim.rng.DrawLanes`)
  seeded from the same deterministic per-cell derivation the scalar path
  uses.

Two implementations share one semantics:

* :func:`run_cell_scalar` -- the readable per-cell reference, built on the
  repo's canonical pieces (:class:`~repro.core.loss_intervals.\
AverageLossIntervals`, :func:`~repro.core.equations.tcp_response_rate`,
  :func:`~repro.core.equations.invert_response`, the scalar RED helpers).
* :func:`run_cells_vector` -- the lockstep batch kernel.

Results are **bit-identical**: every float is produced by the same IEEE-754
double operations in the same per-cell order.  Only ``+ - * /`` and
``sqrt`` appear (both ``math.sqrt`` and ``np.sqrt`` are correctly
rounded); masked numpy updates evaluate untaken branches and discard them,
which cannot perturb the selected values; zero-weight columns added while
reducing the fixed-width WALI matrix add exact ``0.0`` terms; and numpy
array fills consume the same RNG bit stream as repeated scalar draws.  The
equivalence is property-fuzzed in ``tests/test_vector_kernel.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.equations import (
    invert_response,
    invert_response_vec,
    tcp_response_rate,
    tcp_response_rate_vec,
)
from repro.core.loss_intervals import ALI_DEFAULT_WEIGHTS, AverageLossIntervals
from repro.net.redmath import (
    RedParams,
    red_drop_probability,
    red_drop_probability_vec,
    red_ewma,
    red_ewma_vec,
    red_uniformized,
    red_uniformized_vec,
)
from repro.sim.rng import BlockDraws, DrawLanes, RngRegistry

#: minimum sending rate: one packet per ``t_mbi`` = 64 s (the paper's
#: maximum backoff interval for halving under persistent congestion).
X_FLOOR_PPS = 1.0 / 64.0

#: name of the per-cell RNG stream (derived from the cell seed via the
#: standard :class:`~repro.sim.rng.RngRegistry` name derivation).
CELL_STREAM = "equation-cell"

#: WALI history depth (paper section 3.3, n = 8).
WALI_N = 8

#: block size for the per-cell draw lanes; affects only refill cadence,
#: never values (array fills consume the same bit stream as scalar draws).
DRAW_BLOCK = 256

#: hand the remaining lanes to the scalar loop once fewer than 1/8 of the
#: batch is still active: a lockstep step costs nearly the same however few
#: lanes remain (numpy dispatch dominates), so thin tails are cheaper to
#: finish cell-by-cell.  Purely a performance knob -- results are identical.
TAIL_DIVISOR = 8


@dataclass(frozen=True)
class GridCellParams:
    """Fully-resolved primitives for one equation-grid cell.

    ``rtt``, ``loss_rate`` and ``seed`` are the per-cell axes a batch may
    vary; everything else must be shared across a lockstep batch.
    """

    rtt: float
    loss_rate: float
    seed: int
    duration: float
    bandwidth_bps: float
    packet_size: int
    queue_type: str  # "red" | "droptail"
    buffer_packets: int
    red: Optional[RedParams]
    measure_fraction: float = 2.0 / 3.0
    discounting: bool = True
    trace: bool = False  # scalar-only rate trace (unsupported by the batch kernel)

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if self.buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        if self.queue_type not in ("red", "droptail"):
            raise ValueError(f"unknown queue type {self.queue_type!r}")
        if self.queue_type == "red" and self.red is None:
            raise ValueError("queue_type 'red' requires RedParams")
        if not 0.0 < self.measure_fraction <= 1.0:
            raise ValueError("measure_fraction must be in (0, 1]")

    # Derived scalars.  Defined once so both kernels evaluate the exact
    # same float expressions.

    def capacity_pps(self) -> float:
        """Bottleneck service rate in packets/second."""
        return self.bandwidth_bps / (self.packet_size * 8.0)

    def t_rto(self) -> float:
        """Retransmit-timeout heuristic ``4 * rtt`` (paper section 3.2.1)."""
        return 4.0 * self.rtt

    def measure_start(self) -> float:
        """Start of the measurement window (warm-up excluded)."""
        return self.duration * (1.0 - self.measure_fraction)


#: per-cell axes a lockstep batch may vary; all other params must match.
BATCH_AXES = ("rtt", "loss_rate", "seed")


def batchable(cells: Sequence[GridCellParams]) -> bool:
    """True when ``cells`` may run as one lockstep batch."""
    if not cells:
        return False
    first = cells[0]
    for cell in cells[1:]:
        for name in GridCellParams.__dataclass_fields__:
            if name in BATCH_AXES:
                continue
            if getattr(cell, name) != getattr(first, name):
                return False
    return True


def _cell_stream(seed: int) -> np.random.Generator:
    return RngRegistry(seed).stream(CELL_STREAM)


class TimerLanes:
    """Per-cell single-shot timers as (deadline, generation) arrays.

    The vector form of the :class:`~repro.sim.process.FastTimer` idiom:
    re-arming bumps the generation instead of cancelling.  Generations are
    pure bookkeeping here (there is no shared heap to leave stale entries
    in), but they are reported in results as an equivalence witness that
    the scalar and vector kernels armed every timer in lockstep.
    """

    __slots__ = ("deadline", "generation")

    def __init__(self, deadlines: np.ndarray) -> None:
        self.deadline = np.asarray(deadlines, dtype=np.float64).copy()
        self.generation = np.ones(len(self.deadline), dtype=np.int64)

    def rearm_rows(self, rows: np.ndarray, at: np.ndarray) -> None:
        """Re-arm the lanes at integer indices ``rows`` (row-subset form)."""
        self.deadline[rows] = at
        self.generation[rows] += 1


# --------------------------------------------------------------------------
# Scalar reference kernel
# --------------------------------------------------------------------------


@dataclass
class _CellState:
    """Mutable mid-run snapshot of one cell (the scalar loop's variables).

    The batch kernel hands thin-tail lanes to the scalar loop through this
    struct: both kernels' loops are functions of (params, state, draws,
    estimator) only, which is what makes the handoff bit-exact.
    """

    x: float
    fb_deadline: float
    nf_deadline: float
    slow_start: bool = True
    t_next: float = 0.0
    delivered_since_fb: int = 0
    loss_event_end: float = 0.0
    fb_gen: int = 1
    nf_gen: int = 1
    backlog: float = 0.0
    last_drain: float = 0.0
    red_avg: float = 0.0
    red_count: int = -1
    sent: int = 0
    delivered: int = 0
    delivered_measured: int = 0
    path_drops: int = 0
    forced_drops: int = 0
    early_drops: int = 0
    n_samples: int = 0
    sum_x: float = 0.0
    sum_x2: float = 0.0


def run_cell_scalar(params: GridCellParams) -> Dict[str, Any]:
    """Run one equation-grid cell with plain scalar state (the reference)."""
    rtt = params.rtt
    x0 = 1.0 / rtt  # initial rate: one packet per RTT (paper section 3.2.2)
    st = _CellState(
        x=x0,
        # Timers: feedback every RTT; no-feedback at max(4R, 2 packet times).
        fb_deadline=rtt,
        nf_deadline=max(4.0 * rtt, 2.0 / x0),
    )
    draws = BlockDraws(_cell_stream(params.seed), block=DRAW_BLOCK)
    est = AverageLossIntervals(n=WALI_N, discounting=params.discounting)
    trace: Optional[List[List[float]]] = [] if params.trace else None
    _advance_cell(params, st, draws, est, trace)
    return _result_from_state(params, st, est, trace)


def _advance_cell(
    params: GridCellParams,
    st: _CellState,
    draws: BlockDraws,
    est: AverageLossIntervals,
    trace: Optional[List[List[float]]],
) -> None:
    """Advance one cell from ``st`` until its duration elapses (in place).

    The state round-trips through locals so the hot loop runs at full
    speed; ``st`` is written back before returning.
    """
    rtt = params.rtt
    p_loss = params.loss_rate
    duration = params.duration
    s_bytes = float(params.packet_size)
    cap_pps = params.capacity_pps()
    t_rto = params.t_rto()
    t0 = params.measure_start()
    buffer_pkts = float(params.buffer_packets)
    red = params.red
    is_red = params.queue_type == "red"
    record_trace = trace is not None

    x = st.x
    slow_start = st.slow_start
    t_next = st.t_next
    delivered_since_fb = st.delivered_since_fb
    loss_event_end = st.loss_event_end
    fb_deadline = st.fb_deadline
    fb_gen = st.fb_gen
    nf_deadline = st.nf_deadline
    nf_gen = st.nf_gen
    backlog = st.backlog
    last_drain = st.last_drain
    red_avg = st.red_avg
    red_count = st.red_count
    sent = st.sent
    delivered = st.delivered
    delivered_measured = st.delivered_measured
    path_drops = st.path_drops
    forced_drops = st.forced_drops
    early_drops = st.early_drops
    n_samples = st.n_samples
    sum_x = st.sum_x
    sum_x2 = st.sum_x2

    while t_next < duration:
        # --- timers due before this send fire first, in deadline order
        # (feedback wins ties, matching the vector kernel's priority).
        while True:
            fb_due = fb_deadline <= t_next
            nf_due = nf_deadline <= t_next
            if not (fb_due or nf_due):
                break
            if fb_due and (not nf_due or fb_deadline <= nf_deadline):
                at = fb_deadline
                fb_deadline = fb_deadline + rtt  # drift-free periodic re-arm
                fb_gen += 1
                if delivered_since_fb > 0:
                    # The receiver report itself crosses the lossy path.
                    fb_lost = p_loss > 0.0 and draws.next() < p_loss
                    if not fb_lost:
                        recv_pps = delivered_since_fb / rtt
                        if slow_start:
                            # Slow start: double, capped at twice the rate
                            # the receiver actually saw (section 3.2.3).
                            x = min(2.0 * x, 2.0 * recv_pps)
                        else:
                            p_est = est.loss_event_rate()
                            x_eq = (
                                tcp_response_rate(params.packet_size, rtt, p_est, t_rto)
                                / s_bytes
                            )
                            x = min(x_eq, 2.0 * recv_pps)
                        if x < X_FLOOR_PPS:
                            x = X_FLOOR_PPS
                        delivered_since_fb = 0
                        nf_deadline = at + max(4.0 * rtt, 2.0 / x)
                        nf_gen += 1
                        if at >= t0:
                            n_samples += 1
                            sum_x = sum_x + x
                            sum_x2 = sum_x2 + x * x
                        if record_trace:
                            trace.append([at, x])
            else:
                # No-feedback timer: halve the rate (section 3.2.4).
                at = nf_deadline
                x = x * 0.5
                if x < X_FLOOR_PPS:
                    x = X_FLOOR_PPS
                nf_deadline = at + max(4.0 * rtt, 2.0 / x)
                nf_gen += 1

        # --- send one packet at t_next
        sent += 1
        lost_path = p_loss > 0.0 and draws.next() < p_loss
        lost = False
        if lost_path:
            path_drops += 1
            lost = True
        else:
            # Fluid bottleneck: drain since the last arrival, then admit.
            drained = backlog - (t_next - last_drain) * cap_pps
            backlog = drained if drained > 0.0 else 0.0
            last_drain = t_next
            if is_red:
                assert red is not None
                red_avg = red_ewma(red.weight, red_avg, backlog)
                if backlog >= buffer_pkts:
                    forced_drops += 1
                    red_count = 0
                    lost = True
                else:
                    p_b = red_drop_probability(red, red_avg)
                    if p_b >= 1.0:
                        forced_drops += 1
                        red_count = 0
                        lost = True
                    elif p_b > 0.0:
                        red_count += 1
                        p_a = red_uniformized(p_b, red_count)
                        if draws.next() < p_a:
                            red_count = 0
                            early_drops += 1
                            lost = True
                    else:
                        red_count = -1
            else:
                if backlog >= buffer_pkts:
                    forced_drops += 1
                    lost = True
            if not lost:
                backlog = backlog + 1.0
                delivered += 1
                delivered_since_fb += 1
                if t_next >= t0:
                    delivered_measured += 1
                est.on_packet(1.0)

        # --- loss events: drops within one RTT of the event start belong
        # to the same event (paper section 3.2.1).
        if lost and t_next >= loss_event_end:
            loss_event_end = t_next + rtt
            if slow_start:
                # Slow-start exit (section 3.4.1): halve the rate and seed
                # the history with the interval the equation maps to it.
                slow_start = False
                x = x * 0.5
                p_seed = invert_response(params.packet_size, rtt, x * s_bytes, t_rto)
                est.seed(1.0 / p_seed)
                if x < X_FLOOR_PPS:
                    x = X_FLOOR_PPS
            else:
                est.on_loss_event()

        t_next = t_next + 1.0 / x

    st.x = x
    st.slow_start = slow_start
    st.t_next = t_next
    st.delivered_since_fb = delivered_since_fb
    st.loss_event_end = loss_event_end
    st.fb_deadline = fb_deadline
    st.fb_gen = fb_gen
    st.nf_deadline = nf_deadline
    st.nf_gen = nf_gen
    st.backlog = backlog
    st.last_drain = last_drain
    st.red_avg = red_avg
    st.red_count = red_count
    st.sent = sent
    st.delivered = delivered
    st.delivered_measured = delivered_measured
    st.path_drops = path_drops
    st.forced_drops = forced_drops
    st.early_drops = early_drops
    st.n_samples = n_samples
    st.sum_x = sum_x
    st.sum_x2 = sum_x2


def _result_from_state(
    params: GridCellParams,
    st: _CellState,
    est: AverageLossIntervals,
    trace: Optional[List[List[float]]],
) -> Dict[str, Any]:
    return _build_result(
        params,
        sent=st.sent,
        delivered=st.delivered,
        delivered_measured=st.delivered_measured,
        path_drops=st.path_drops,
        forced_drops=st.forced_drops,
        early_drops=st.early_drops,
        loss_events=est.loss_events,
        loss_event_rate=est.loss_event_rate(),
        avg_loss_interval=est.average_interval(),
        x_final=st.x,
        backlog=st.backlog,
        red_avg=st.red_avg,
        slow_start=st.slow_start,
        n_samples=st.n_samples,
        sum_x=st.sum_x,
        sum_x2=st.sum_x2,
        fb_gen=st.fb_gen,
        nf_gen=st.nf_gen,
        trace=trace,
    )


def _build_result(
    params: GridCellParams,
    *,
    sent: int,
    delivered: int,
    delivered_measured: int,
    path_drops: int,
    forced_drops: int,
    early_drops: int,
    loss_events: int,
    loss_event_rate: float,
    avg_loss_interval: float,
    x_final: float,
    backlog: float,
    red_avg: float,
    slow_start: bool,
    n_samples: int,
    sum_x: float,
    sum_x2: float,
    fb_gen: int,
    nf_gen: int,
    trace: Optional[List[List[float]]],
) -> Dict[str, Any]:
    """Assemble the result dict from raw accumulators.

    Shared by both kernels so the derived metrics (throughput, mean/CoV of
    the sampled send rate) are computed by one code path.
    """
    measure_seconds = params.duration - params.measure_start()
    throughput_bps = (
        delivered_measured * params.packet_size * 8.0 / measure_seconds
    )
    if n_samples > 0:
        mean = sum_x / n_samples
        var = sum_x2 / n_samples - mean * mean
        if var < 0.0:
            var = 0.0
        cov = math.sqrt(var) / mean if mean > 0.0 else 0.0
    else:
        mean = 0.0
        cov = 0.0
    result: Dict[str, Any] = {
        "sent": int(sent),
        "delivered": int(delivered),
        "path_drops": int(path_drops),
        "queue_forced_drops": int(forced_drops),
        "queue_early_drops": int(early_drops),
        "loss_events": int(loss_events),
        "loss_event_rate": float(loss_event_rate),
        "avg_loss_interval": float(avg_loss_interval),
        "throughput_bps": float(throughput_bps),
        "send_rate_mean_pps": float(mean),
        "send_rate_cov": float(cov),
        "x_final_pps": float(x_final),
        "queue_backlog_final": float(backlog),
        "red_avg_final": float(red_avg),
        "slow_start_exited": bool(not slow_start),
        "timer_generations": {"feedback": int(fb_gen), "no_feedback": int(nf_gen)},
    }
    if trace is not None:
        result["rate_trace"] = [[float(t), float(x)] for t, x in trace]
    return result


# --------------------------------------------------------------------------
# Vectorized WALI (Average Loss Interval) state
# --------------------------------------------------------------------------


class _WaliLanes:
    """Average Loss Interval state for N cells as (N, 8) matrices.

    Mirrors :class:`~repro.core.loss_intervals.AverageLossIntervals`
    operation for operation: reductions walk the 8 weight columns in the
    same left-fold order the scalar zip does, with absent columns (zero
    discount, zero interval) contributing exact ``0.0`` terms, so every
    average is bit-identical to the scalar estimator at the same state.
    Products keep the scalar's ``(weight * discount) * value`` association
    (float multiplication commutes but does not associate).

    Division-by-zero artifacts in masked-out lanes are discarded by
    ``np.where``; callers are expected to run under ``np.errstate`` (the
    batch kernel wraps its whole loop in one).
    """

    discount_floor = 0.3

    def __init__(self, n_cells: int, *, discounting: bool):
        self.discounting = discounting
        self.weights = list(ALI_DEFAULT_WEIGHTS)
        self.intervals = np.zeros((n_cells, WALI_N), dtype=np.float64)
        self.discounts = np.zeros((n_cells, WALI_N), dtype=np.float64)
        self.count = np.zeros(n_cells, dtype=np.int64)
        self.s0 = np.zeros(n_cells, dtype=np.float64)
        self.loss_events = np.zeros(n_cells, dtype=np.int64)
        self._cols = np.arange(WALI_N)
        self._w_row = np.asarray(self.weights, dtype=np.float64)[None, :]
        self._w_shift = np.asarray(self.weights[1:], dtype=np.float64)[None, :]
        self._w0 = float(self.weights[0])
        # 1.0 where the column holds a real (closed) interval; maintained on
        # count changes so the discount computation never rebuilds it.
        self._present = np.zeros((n_cells, WALI_N), dtype=np.float64)
        self._first_present = np.zeros(WALI_N, dtype=np.float64)
        self._first_present[0] = 1.0
        # Cached raw (undiscounted) average over present intervals -- the
        # discount base.  It only depends on the closed-interval history, so
        # it is refreshed on history shifts instead of on every query.
        self._raw = np.zeros(n_cells, dtype=np.float64)

    @staticmethod
    def _fold_average(weighted: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Left-fold ``sum(w*v) / sum(w)`` over the 8 columns.

        ``weighted`` holds the per-column ``weight * discount`` products;
        the fold order matches the scalar accumulation exactly.
        """
        terms = weighted * values
        total = terms[:, 0] + terms[:, 1]
        total_weight = weighted[:, 0] + weighted[:, 1]
        for j in range(2, WALI_N):
            total += terms[:, j]
            total_weight += weighted[:, j]
        return np.where(total_weight == 0.0, 0.0, total / total_weight)

    def _discount_for(self, raw: np.ndarray, s0: np.ndarray) -> np.ndarray:
        # ``raw``: the cached undiscounted average for the lanes in question.
        return np.where(
            (raw <= 0.0) | (s0 <= 2.0 * raw),
            1.0,
            np.maximum(self.discount_floor, 2.0 * raw / s0),
        )

    def on_packet(self, mask: np.ndarray) -> None:
        np.add(self.s0, 1.0, out=self.s0, where=mask)

    def on_loss_event_rows(self, rows: np.ndarray) -> None:
        """Close the open interval for the lanes at integer indices ``rows``.

        Works on gathered (k, 8) row copies and scatters the shifted rows
        back: per-step loss events touch a handful of lanes, so this costs
        O(k) instead of O(N) per event.
        """
        intervals = self.intervals[rows]
        discounts = self.discounts[rows]
        s0 = self.s0[rows]
        if self.discounting:
            raw = self._raw[rows]
            # A discount < 1 requires s0 > 2*raw somewhere (lanes with
            # raw <= 0 always discount by exactly 1.0), so skip the whole
            # computation when no lane is in a lull.
            if (s0 > 2.0 * raw).any():
                discount = self._discount_for(raw, s0)
                fold = discount < 1.0
                if fold.any():
                    discounts = np.where(
                        fold[:, None], discounts * discount[:, None], discounts
                    )
        shifted = np.empty_like(intervals)
        shifted[:, 0] = np.maximum(s0, 1.0)
        shifted[:, 1:] = intervals[:, :-1]
        self.intervals[rows] = shifted
        self.discounts[rows, 1:] = discounts[:, :-1]
        self.discounts[rows, 0] = 1.0
        count = np.minimum(self.count[rows] + 1, WALI_N)
        self.count[rows] = count
        self.s0[rows] = 0.0
        self.loss_events[rows] += 1
        present = self._cols[None, :] < count[:, None]
        self._present[rows] = present
        self._raw[rows] = self._fold_average(self._w_row * present, shifted)

    def seed_rows(self, rows: np.ndarray, interval: np.ndarray) -> None:
        """Replace history with one synthetic interval (slow-start exit)."""
        self.intervals[rows] = 0.0
        self.intervals[rows, 0] = interval
        self.discounts[rows] = 0.0
        self.discounts[rows, 0] = 1.0
        self.count[rows] = 1
        self.s0[rows] = 0.0
        self.loss_events[rows] += 1
        self._present[rows] = self._first_present
        # Closed form of the one-entry fold: (w0 * interval) / w0 -- the
        # zero-weight columns contribute exact 0.0 terms, so this equals
        # the full fold bit-for-bit.
        self._raw[rows] = (self._w0 * interval) / self._w0

    def average_interval(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """WALI average for all lanes, or just the lanes in ``rows``."""
        if rows is None:
            intervals = self.intervals
            discounts = self.discounts
            s0 = self.s0
            count = self.count
            raw = self._raw
        else:
            intervals = self.intervals[rows]
            discounts = self.discounts[rows]
            s0 = self.s0[rows]
            count = self.count[rows]
            raw = self._raw[rows]
        if self.discounting and (s0 > 2.0 * raw).any():
            discount = self._discount_for(raw, s0)
            if (discount < 1.0).any():
                # Multiplying by an exact 1.0 is the identity, so applying
                # the discount only when some lane's is < 1 is bit-exact.
                discounts = discounts * discount[:, None]
        # One stacked fold computes s_hat (top half) and s_hat_new (bottom
        # half, with s0 shifted in at the front under discount 1.0 -- column
        # j >= 1 of the shifted history is column j-1 of the current one,
        # re-weighted).  Rows fold independently, so stacking halves the
        # dispatch count without touching any lane's accumulation order.
        k = len(s0)
        weighted = np.empty((2 * k, WALI_N), dtype=np.float64)
        values = np.empty((2 * k, WALI_N), dtype=np.float64)
        weighted[:k] = self._w_row * discounts
        values[:k] = intervals
        weighted[k:, 0] = self._w0
        weighted[k:, 1:] = self._w_shift * discounts[:, :-1]
        values[k:, 0] = s0
        values[k:, 1:] = intervals[:, :-1]
        both = self._fold_average(weighted, values)
        return np.where(count > 0, np.maximum(both[:k], both[k:]), 0.0)

    def loss_event_rate(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        avg = self.average_interval(rows)
        rate = np.minimum(1.0, 1.0 / avg)
        return np.where(avg > 0.0, rate, 0.0)

    def export_lane(self, lane: int) -> AverageLossIntervals:
        """Detach one lane as a scalar estimator (for the tail handoff)."""
        count = int(self.count[lane])
        return AverageLossIntervals.from_state(
            self.intervals[lane, :count].tolist(),
            self.discounts[lane, :count].tolist(),
            float(self.s0[lane]),
            int(self.loss_events[lane]),
            n=WALI_N,
            discounting=self.discounting,
            discount_floor=self.discount_floor,
        )


# --------------------------------------------------------------------------
# Lockstep batch kernel
# --------------------------------------------------------------------------


def run_cells_vector(cells: Sequence[GridCellParams]) -> List[Dict[str, Any]]:
    """Advance N compatible cells in lockstep; one packet per cell per step.

    Cells must agree on everything except ``rtt``, ``loss_rate`` and
    ``seed`` (checked).  Returns one result dict per cell, bit-identical
    to :func:`run_cell_scalar` on the same params
    (``tests/test_vector_kernel.py`` checks this over whole grids).
    """
    if not cells:
        return []
    if not batchable(cells):
        raise ValueError(
            "cells differ in a non-batch axis; only "
            f"{BATCH_AXES} may vary within a lockstep batch"
        )
    shared = cells[0]
    if shared.trace:
        raise ValueError("rate tracing requires the scalar kernel")
    n = len(cells)
    packet_size = shared.packet_size
    s_bytes = float(packet_size)
    duration = shared.duration
    t0 = shared.measure_start()
    buffer_pkts = float(shared.buffer_packets)
    is_red = shared.queue_type == "red"
    red = shared.red

    rtt = np.array([c.rtt for c in cells], dtype=np.float64)
    p_loss = np.array([c.loss_rate for c in cells], dtype=np.float64)
    cap_pps = np.array([c.capacity_pps() for c in cells], dtype=np.float64)
    t_rto = np.array([c.t_rto() for c in cells], dtype=np.float64)
    has_loss = p_loss > 0.0
    # With loss on every path (the common sweep grid) the has_loss masks
    # collapse to identities; hoist the check out of the loop.
    all_lossy = bool(has_loss.all())

    lanes = DrawLanes([_cell_stream(c.seed) for c in cells], block=DRAW_BLOCK)
    wali = _WaliLanes(n, discounting=shared.discounting)

    x = 1.0 / rtt
    slow_start = np.ones(n, dtype=bool)
    t_next = np.zeros(n, dtype=np.float64)
    delivered_since_fb = np.zeros(n, dtype=np.int64)
    loss_event_end = np.zeros(n, dtype=np.float64)
    fb = TimerLanes(rtt)
    nf = TimerLanes(np.maximum(4.0 * rtt, 2.0 / x))
    backlog = np.zeros(n, dtype=np.float64)
    last_drain = np.zeros(n, dtype=np.float64)
    red_avg = np.zeros(n, dtype=np.float64)
    red_count = np.full(n, -1, dtype=np.int64)
    sent = np.zeros(n, dtype=np.int64)
    delivered = np.zeros(n, dtype=np.int64)
    delivered_measured = np.zeros(n, dtype=np.int64)
    path_drops = np.zeros(n, dtype=np.int64)
    forced_drops = np.zeros(n, dtype=np.int64)
    early_drops = np.zeros(n, dtype=np.int64)
    n_samples = np.zeros(n, dtype=np.int64)
    sum_x = np.zeros(n, dtype=np.float64)
    sum_x2 = np.zeros(n, dtype=np.float64)

    # One scratch vector for transient products; every use is consumed by a
    # masked copy/add before the next use.  The whole loop runs under one
    # errstate: masked-out lanes produce inf/nan that np.where / masked
    # assignment discards, and per-call errstate guards are too costly here.
    scratch = np.empty(n, dtype=np.float64)

    active = t_next < duration
    tail_threshold = n // TAIL_DIVISOR
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            n_active = int(np.count_nonzero(active))
            if n_active <= tail_threshold:
                break
            # --- timer phase: fire the earliest due timer per cell, repeat.
            while True:
                fb_due = active & (fb.deadline <= t_next)
                nf_due = active & (nf.deadline <= t_next)
                any_due = fb_due | nf_due
                if not any_due.any():
                    break
                take_fb = fb_due & (~nf_due | (fb.deadline <= nf.deadline))
                # take_fb is a subset of any_due, so xor is set difference.
                take_nf = any_due ^ take_fb

                # Timer firings touch a handful of lanes per step, so both
                # branches gather those rows, update k-vectors, and scatter
                # back -- same float ops on the same values, O(k) not O(N).
                if take_nf.any():
                    rows = np.nonzero(take_nf)[0]
                    at_r = nf.deadline[rows]
                    x_r = np.maximum(x[rows] * 0.5, X_FLOOR_PPS)
                    x[rows] = x_r
                    nf.rearm_rows(
                        rows, at_r + np.maximum(4.0 * rtt[rows], 2.0 / x_r)
                    )

                if take_fb.any():
                    frows = np.nonzero(take_fb)[0]
                    at_f = fb.deadline[frows].copy()
                    fb.deadline[frows] += rtt[frows]  # drift-free periodic
                    fb.generation[frows] += 1
                    fb_sent = take_fb & (delivered_since_fb > 0)
                    fb_lossy = fb_sent if all_lossy else fb_sent & has_loss
                    u_fb = lanes.take(fb_lossy)
                    fb_ok = fb_sent & ~(fb_lossy & (u_fb < p_loss))
                    if fb_ok.any():
                        ok_f = fb_ok[frows]
                        rows = frows[ok_f]
                        at_r = at_f[ok_f]
                        rtt_r = rtt[rows]
                        recv2 = 2.0 * (delivered_since_fb[rows] / rtt_r)
                        ss_r = slow_start[rows]
                        if ss_r.all():
                            new_x = np.minimum(2.0 * x[rows], recv2)
                        else:
                            p_est = wali.loss_event_rate(rows)
                            x_eq = (
                                tcp_response_rate_vec(
                                    packet_size, rtt_r, p_est, t_rto[rows]
                                )
                                / s_bytes
                            )
                            new_x = np.where(
                                ss_r,
                                np.minimum(2.0 * x[rows], recv2),
                                np.minimum(x_eq, recv2),
                            )
                        np.maximum(new_x, X_FLOOR_PPS, out=new_x)
                        x[rows] = new_x
                        delivered_since_fb[rows] = 0
                        nf.rearm_rows(
                            rows, at_r + np.maximum(4.0 * rtt_r, 2.0 / new_x)
                        )
                        sampled = at_r >= t0
                        if sampled.any():
                            srows = rows[sampled]
                            x_s = new_x[sampled]
                            n_samples[srows] += 1
                            sum_x[srows] += x_s
                            sum_x2[srows] += x_s * x_s

            # --- send phase: one packet per active cell at t_next.
            sent += active
            pmask = active if all_lossy else active & has_loss
            u_path = lanes.take(pmask)
            lost_path = pmask & (u_path < p_loss)
            path_drops += lost_path
            # lost_path is a subset of active: xor is set difference.
            arrived = active ^ lost_path

            np.subtract(t_next, last_drain, out=scratch)
            scratch *= cap_pps
            np.subtract(backlog, scratch, out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            np.copyto(backlog, scratch, where=arrived)
            np.copyto(last_drain, t_next, where=arrived)
            if is_red:
                assert red is not None
                np.copyto(
                    red_avg,
                    red_ewma_vec(red.weight, red_avg, backlog),
                    where=arrived,
                )
                overflow = arrived & (backlog >= buffer_pkts)
                p_b = red_drop_probability_vec(red, red_avg)
                hi_p = p_b >= 1.0
                if hi_p.any():
                    forced = overflow | ((arrived ^ overflow) & hi_p)
                else:
                    # Every lane's average sits below the forced zone; only
                    # a physical overflow can force a drop.
                    forced = overflow
                # forced / overflow are subsets of arrived: xor differences.
                not_forced = arrived ^ forced
                pos = p_b > 0.0
                candidate = not_forced & pos
                if candidate.any():
                    np.add(red_count, 1, out=red_count, where=candidate)
                    p_a = red_uniformized_vec(p_b, red_count)
                    u_red = lanes.take(candidate)
                    early = candidate & (u_red < p_a)
                else:
                    early = candidate  # all False
                below = not_forced ^ candidate  # candidate subset of not_forced
                lost_queue = forced | early
                np.copyto(red_count, 0, where=lost_queue)
                np.copyto(red_count, -1, where=below)
                forced_drops += forced
                early_drops += early
            else:
                lost_queue = arrived & (backlog >= buffer_pkts)
                forced_drops += lost_queue

            # lost_queue is a subset of arrived: xor is set difference.
            ok = arrived ^ lost_queue
            np.add(backlog, 1.0, out=backlog, where=ok)
            delivered += ok
            delivered_since_fb += ok
            delivered_measured += ok & (t_next >= t0)
            wali.on_packet(ok)

            # --- loss events
            lost = (lost_path | lost_queue) & (t_next >= loss_event_end)
            if lost.any():
                np.copyto(loss_event_end, t_next + rtt, where=lost)
                ss_exit = lost & slow_start
                if ss_exit.any():
                    # Each lane exits slow start once.  The vector bisection
                    # costs ~80 masked iterations regardless of lane count,
                    # so batch it only when enough lanes exit together;
                    # both forms are bit-identical per element.
                    rows = np.nonzero(ss_exit)[0]
                    x_half = x[rows] * 0.5
                    if len(rows) >= 16:
                        p_seed_vec = invert_response_vec(
                            packet_size,
                            rtt[rows],
                            x_half * s_bytes,
                            t_rto[rows],
                        )
                        interval = 1.0 / p_seed_vec
                    else:
                        interval = np.empty(len(rows), dtype=np.float64)
                        for i, k in enumerate(rows):
                            p_seed = invert_response(
                                packet_size,
                                float(rtt[k]),
                                float(x_half[i]) * s_bytes,
                                float(t_rto[k]),
                            )
                            interval[i] = 1.0 / p_seed
                    wali.seed_rows(rows, interval)
                    slow_start[rows] = False
                    x[rows] = np.maximum(x_half, X_FLOOR_PPS)
                normal = lost ^ ss_exit  # ss_exit is a subset of lost
                if normal.any():
                    wali.on_loss_event_rows(np.nonzero(normal)[0])

            np.divide(1.0, x, out=scratch)
            np.add(t_next, scratch, out=t_next, where=active)
            active &= t_next < duration

        loss_event_rate = wali.loss_event_rate()
        avg_interval = wali.average_interval()

    # --- scalar tail: finish the surviving lanes cell-by-cell, from the
    # exact mid-run state (timers, queue, draw buffers, loss history).
    tail_results: Dict[int, Dict[str, Any]] = {}
    for k in np.nonzero(active)[0]:
        k = int(k)
        st = _CellState(
            x=float(x[k]),
            fb_deadline=float(fb.deadline[k]),
            nf_deadline=float(nf.deadline[k]),
            slow_start=bool(slow_start[k]),
            t_next=float(t_next[k]),
            delivered_since_fb=int(delivered_since_fb[k]),
            loss_event_end=float(loss_event_end[k]),
            fb_gen=int(fb.generation[k]),
            nf_gen=int(nf.generation[k]),
            backlog=float(backlog[k]),
            last_drain=float(last_drain[k]),
            red_avg=float(red_avg[k]),
            red_count=int(red_count[k]),
            sent=int(sent[k]),
            delivered=int(delivered[k]),
            delivered_measured=int(delivered_measured[k]),
            path_drops=int(path_drops[k]),
            forced_drops=int(forced_drops[k]),
            early_drops=int(early_drops[k]),
            n_samples=int(n_samples[k]),
            sum_x=float(sum_x[k]),
            sum_x2=float(sum_x2[k]),
        )
        est = wali.export_lane(k)
        draws = lanes.export_lane(k)
        _advance_cell(cells[k], st, draws, est, None)
        tail_results[k] = _result_from_state(cells[k], st, est, None)

    results = []
    for k, params in enumerate(cells):
        if k in tail_results:
            results.append(tail_results[k])
            continue
        results.append(
            _build_result(
                params,
                sent=int(sent[k]),
                delivered=int(delivered[k]),
                delivered_measured=int(delivered_measured[k]),
                path_drops=int(path_drops[k]),
                forced_drops=int(forced_drops[k]),
                early_drops=int(early_drops[k]),
                loss_events=int(wali.loss_events[k]),
                loss_event_rate=float(loss_event_rate[k]),
                avg_loss_interval=float(avg_interval[k]),
                x_final=float(x[k]),
                backlog=float(backlog[k]),
                red_avg=float(red_avg[k]),
                slow_start=bool(slow_start[k]),
                n_samples=int(n_samples[k]),
                sum_x=float(sum_x[k]),
                sum_x2=float(sum_x2[k]),
                fb_gen=int(fb.generation[k]),
                nf_gen=int(nf.generation[k]),
                trace=None,
            )
        )
    return results
