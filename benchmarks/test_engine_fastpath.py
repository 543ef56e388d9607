"""Engine and link scheduling: forwarding times and bulk seeding.

The link's fused wake chain is checked against the closed-form departure
times of a store-and-forward DropTail hop, and ``Simulator.schedule_batch``
against one-at-a-time ``schedule`` for bulk seeding.  (Absolute per-packet
costs of both are measured by ``bench/``.)
"""

from __future__ import annotations

import os
import time

import pytest

#: Wall-clock ratio assertions are meaningful on a quiet local machine but
#: flaky gates on shared CI runners (GitHub sets ``CI=true``): there the
#: timing tests skip and only the behavioral checks run.
skip_timing_on_ci = pytest.mark.skipif(
    os.environ.get("CI", "").lower() in ("1", "true"),
    reason="wall-clock performance ratios are unreliable on shared CI runners",
)

from repro.net.link import Link
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator


def store_and_forward(arrivals, size, bandwidth_bps, propagation, capacity):
    """Delivery time per arrival on a DropTail hop, None where dropped:
    service starts at ``max(arrival, previous finish)``, takes
    ``size*8/bandwidth`` and delivery follows ``propagation`` later; an
    arrival that finds ``capacity`` packets waiting for service is dropped."""
    tx = size * 8 / bandwidth_bps
    starts, finish, deliveries = [], 0.0, []
    for t in arrivals:
        # ``>=``: the arrivals are scheduled before any link wakeup exists,
        # so at a tie the packet whose service starts at ``t`` still waits.
        if sum(start >= t for start in starts) >= capacity:
            deliveries.append(None)
            continue
        starts.append(max(t, finish))
        finish = starts[-1] + tx
        deliveries.append(finish + propagation)
    return deliveries


class TestLinkFastpath:
    def test_paths_forward_identically(self):
        """30 packets offered at 4x the service rate: the link forwards (and
        drops) exactly what a store-and-forward hop would, at exactly the
        closed-form times."""
        sim = Simulator()
        link = Link(sim, 1e6, 0.05, DropTailQueue(10))
        deliveries = []
        link.connect(lambda p: deliveries.append((sim.now, p.seq)))
        arrivals = [i * 0.001 for i in range(30)]
        for i, at in enumerate(arrivals):
            sim.schedule(
                at,
                lambda i=i: link.send(
                    Packet(
                        flow_id="x", seq=i, size=500, ptype=PacketType.DATA,
                    )
                ),
            )
        sim.run()
        expected = store_and_forward(arrivals, 500, 1e6, 0.05, 10)
        forwarded = [(t, i) for i, t in enumerate(expected) if t is not None]
        assert deliveries == forwarded
        assert 0 < len(forwarded) < len(arrivals), "want forwards and drops"
        assert link.packets_forwarded == len(forwarded)
        assert link.bytes_forwarded == 500 * len(forwarded)
        assert link.queue.dropped == len(arrivals) - len(forwarded)
        assert link.utilization_seconds == pytest.approx(
            len(forwarded) * 500 * 8 / 1e6, abs=1e-12
        )


class TestScheduleBatch:
    @skip_timing_on_ci
    def test_bulk_seeding_not_slower(self):
        """schedule_batch bulk-heapifies; it must beat or match a loop of
        schedule() calls for large seeding bursts."""
        n = 50_000

        def one_by_one() -> float:
            sim = Simulator()
            started = time.perf_counter()
            for i in range(n):
                sim.schedule(i * 1e-6, _noop)
            elapsed = time.perf_counter() - started
            sim.run()
            return elapsed

        def batched() -> float:
            sim = Simulator()
            started = time.perf_counter()
            sim.schedule_batch((i * 1e-6, _noop, ()) for i in range(n))
            elapsed = time.perf_counter() - started
            sim.run()
            return elapsed

        loop_time = min(one_by_one() for _ in range(3))
        batch_time = min(batched() for _ in range(3))
        # Typically ~2x faster; the generous margin keeps this from
        # flaking on noisy shared CI runners.
        assert batch_time <= loop_time * 1.25

    def test_batch_preserves_semantics(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch(
            [(0.2, seen.append, ("b",)), (0.1, seen.append, ("a",))]
        )
        count = sim.schedule_batch([])
        assert count == 0
        sim.run()
        assert seen == ["a", "b"]


def _noop() -> None:
    return None
