"""The lockstep batch kernel is bit-identical to the scalar reference.

The whole vector-executor design rests on one invariant: for any supported
grid cell, ``run_cells_vector`` returns the *exact* dict that
``run_cell_scalar`` returns -- every float bit-for-bit, including the timer
generation counters that witness lockstep timer arming.  These tests pin
that invariant on fixed heterogeneous grids, under property fuzz, and
through the thin-tail scalar handoff, plus the shared block-buffered draw
helpers (``BlockDraws`` / ``DrawLanes``) the kernel's determinism rides on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.vector_kernel as vk
from repro.net.redmath import RedParams
from repro.sim.rng import BlockDraws, DrawLanes, RngRegistry
from repro.sim.vector_kernel import (
    GridCellParams,
    batchable,
    run_cell_scalar,
    run_cells_vector,
)

RED = RedParams(min_thresh=5.0, max_thresh=15.0, max_p=0.1, weight=0.002,
                gentle=True)


def make_cell(
    rtt=0.1,
    loss_rate=0.02,
    seed=0,
    duration=4.0,
    queue_type="red",
    **kwargs,
):
    return GridCellParams(
        rtt=rtt,
        loss_rate=loss_rate,
        seed=seed,
        duration=duration,
        bandwidth_bps=kwargs.pop("bandwidth_bps", 1.5e6),
        packet_size=kwargs.pop("packet_size", 1000),
        queue_type=queue_type,
        buffer_packets=kwargs.pop("buffer_packets", 25),
        red=RED if queue_type == "red" else None,
        **kwargs,
    )


def assert_batch_matches_scalar(cells):
    vec = run_cells_vector(cells)
    ref = [run_cell_scalar(cell) for cell in cells]
    for k, (got, want) in enumerate(zip(vec, ref)):
        assert got == want, (
            f"lane {k} (rtt={cells[k].rtt}, p={cells[k].loss_rate}, "
            f"seed={cells[k].seed}) diverged from the scalar kernel"
        )


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("queue_type", ["red", "droptail"])
    def test_heterogeneous_grid(self, queue_type):
        """A mixed rtt x loss x seed grid matches cell-for-cell."""
        cells = [
            make_cell(rtt=rtt, loss_rate=p, seed=seed, duration=5.0,
                      queue_type=queue_type)
            for rtt in (0.04, 0.1, 0.22)
            for p in (0.0, 0.02, 0.08)
            for seed in (1, 2)
        ]
        assert_batch_matches_scalar(cells)

    def test_lossless_cells(self):
        """p = 0 cells (no path loss, queue-only drops) stay in lockstep."""
        cells = [make_cell(loss_rate=0.0, seed=s, duration=5.0)
                 for s in range(4)]
        assert_batch_matches_scalar(cells)

    def test_forced_tail_handoff(self, monkeypatch):
        """With the tail threshold forced to the whole batch, every lane
        finishes on the scalar handoff path -- mid-run state transplant,
        loss-history export, and draw-buffer resume must all be exact."""
        monkeypatch.setattr(vk, "TAIL_DIVISOR", 1)
        cells = [
            make_cell(rtt=rtt, loss_rate=p, seed=7, duration=4.0)
            for rtt in (0.06, 0.15)
            for p in (0.01, 0.05)
        ]
        assert_batch_matches_scalar(cells)

    def test_discounting_off(self):
        cells = [make_cell(seed=s, discounting=False, duration=4.0)
                 for s in range(3)]
        assert_batch_matches_scalar(cells)

    @given(
        rtts=st.lists(
            st.floats(min_value=0.02, max_value=0.3), min_size=2, max_size=6
        ),
        rates=st.lists(
            st.floats(min_value=0.0, max_value=0.25), min_size=1, max_size=3
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        duration=st.floats(min_value=1.0, max_value=6.0),
        queue_type=st.sampled_from(["red", "droptail"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_fuzz(self, rtts, rates, seed, duration, queue_type):
        """Random grids: the batch kernel never drifts from the reference."""
        cells = [
            make_cell(rtt=rtt, loss_rate=p, seed=seed + i, duration=duration,
                      queue_type=queue_type)
            for i, (rtt, p) in enumerate(
                (rtt, p) for rtt in rtts for p in rates
            )
        ]
        assert_batch_matches_scalar(cells)


class TestBatchability:
    def test_axes_may_vary(self):
        cells = [make_cell(rtt=0.05, loss_rate=0.1, seed=1),
                 make_cell(rtt=0.2, loss_rate=0.0, seed=9)]
        assert batchable(cells)

    @pytest.mark.parametrize(
        "override",
        [{"duration": 9.0}, {"bandwidth_bps": 3e6}, {"packet_size": 500},
         {"buffer_packets": 50}, {"queue_type": "droptail"},
         {"discounting": False}],
    )
    def test_shared_params_must_match(self, override):
        assert not batchable([make_cell(), make_cell(**override)])

    def test_empty_batch_is_not_batchable(self):
        assert not batchable([])

    @pytest.mark.parametrize(
        "override,message",
        [({"rtt": 0.0}, "rtt"), ({"loss_rate": 1.0}, "loss_rate"),
         ({"duration": -1.0}, "duration"), ({"queue_type": "codel"}, "queue"),
         ({"measure_fraction": 0.0}, "measure_fraction")],
    )
    def test_params_validated(self, override, message):
        with pytest.raises(ValueError, match=message):
            make_cell(**override)

    def test_red_params_required_for_red(self):
        with pytest.raises(ValueError, match="RedParams"):
            GridCellParams(
                rtt=0.1, loss_rate=0.0, seed=0, duration=1.0,
                bandwidth_bps=1.5e6, packet_size=1000, queue_type="red",
                buffer_packets=25, red=None,
            )


class TestBlockDraws:
    def test_matches_per_call_scalar_draws(self):
        """Block-buffered unit draws replay ``rng.random()`` bit-for-bit,
        independent of block size (the pin for the migrated RED call site)."""
        for block in (1, 3, 64):
            a, b = (np.random.Generator(np.random.PCG64(42)) for _ in range(2))
            draws = BlockDraws(a, block=block)
            assert [draws.next() for _ in range(200)] == [
                b.random() for _ in range(200)
            ]

    def test_bounded_draws_match_uniform(self):
        """``high=`` draws replay ``rng.uniform(0, high)`` bit-for-bit
        (the pin for the migrated access-jitter call site)."""
        a, b = (np.random.Generator(np.random.PCG64(7)) for _ in range(2))
        draws = BlockDraws(a, high=0.004, block=16)
        assert [draws.next() for _ in range(50)] == [
            b.uniform(0.0, 0.004) for _ in range(50)
        ]

    def test_resume_continues_donor_stream(self):
        """A resumed stream serves the outstanding buffer, then refills
        from the donor generator with no gap or repeat."""
        a, b = (np.random.Generator(np.random.PCG64(3)) for _ in range(2))
        donor = BlockDraws(a, block=8)
        head = [donor.next() for _ in range(5)]
        resumed = BlockDraws.resume(a, donor._buf, donor._i, block=8)
        tail = [resumed.next() for _ in range(20)]
        assert head + tail == [b.random() for _ in range(25)]

    def test_block_size_validated(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError):
            BlockDraws(rng, block=0)


class TestDrawLanes:
    def _rngs(self, n, base=100):
        return [np.random.Generator(np.random.PCG64(base + k))
                for k in range(n)]

    def test_lane_streams_match_scalar_blockdraws(self):
        """Each lane's consumed sequence equals the scalar stream from the
        same generator, under an adversarial selection pattern."""
        n = 5
        lanes = DrawLanes(self._rngs(n), block=4)
        scalar = [BlockDraws(rng, block=4) for rng in self._rngs(n)]
        pattern_rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(300):
            need = pattern_rng.random(n) < 0.6
            got = lanes.take(need)
            for k in np.nonzero(need)[0]:
                assert got[k] == scalar[k].next()

    def test_empty_take_is_read_only_and_advances_nothing(self):
        lanes = DrawLanes(self._rngs(3), block=4)
        out = lanes.take(np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            out[0] = 0.5
        got = lanes.take(np.ones(3, dtype=bool))
        want = [BlockDraws(rng, block=4).next() for rng in self._rngs(3)]
        assert list(got) == want

    def test_export_lane_resumes_exactly(self):
        """Detaching a lane mid-block yields its remaining stream exactly
        (the mechanism behind the batch kernel's scalar tail handoff)."""
        n = 3
        lanes = DrawLanes(self._rngs(n), block=8)
        for _ in range(5):
            lanes.take(np.ones(n, dtype=bool))
        exported = lanes.export_lane(1)
        reference = BlockDraws(self._rngs(n)[1], block=8)
        for _ in range(5):
            reference.next()
        assert [exported.next() for _ in range(30)] == [
            reference.next() for _ in range(30)
        ]
