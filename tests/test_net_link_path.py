"""Unit tests for links, the lossy path and loss models."""

import re

import numpy as np
import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.path import (
    LossyPath,
    bernoulli_loss,
    periodic_loss,
    scheduled_loss,
)
from repro.net.queues import DropTailQueue
from repro.scenarios import loss_model_from_spec
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import BlockDraws


def make_packet(seq=0, size=1000, flow="f"):
    return Packet(flow_id=flow, seq=seq, size=size)


def make_link(sim, bw=8e6, delay=0.01, capacity=10):
    return Link(sim, bw, delay, DropTailQueue(capacity))


class TestLink:
    def test_delivery_time_is_tx_plus_propagation(self):
        sim = Simulator()
        link = make_link(sim, bw=8e6, delay=0.01)  # 1000B => 1 ms tx
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(make_packet())
        sim.run()
        assert arrivals == [pytest.approx(0.011)]

    def test_serialization_spaces_back_to_back_packets(self):
        sim = Simulator()
        link = make_link(sim, bw=8e6, delay=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(make_packet(0))
        link.send(make_packet(1))
        sim.run()
        assert arrivals == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        link = make_link(sim, capacity=2)
        link.connect(lambda p: None)
        results = [link.send(make_packet(i)) for i in range(5)]
        # First packet starts transmitting immediately; two fit in the queue.
        assert results == [True, True, True, False, False]

    def test_send_without_receiver_raises(self):
        sim = Simulator()
        link = make_link(sim)
        with pytest.raises(RuntimeError):
            link.send(make_packet())

    def test_counters(self):
        sim = Simulator()
        link = make_link(sim)
        link.connect(lambda p: None)
        for i in range(3):
            link.send(make_packet(i))
        sim.run()
        assert link.packets_forwarded == 3
        assert link.bytes_forwarded == 3000

    def test_utilization_accumulates_busy_time(self):
        sim = Simulator()
        link = make_link(sim, bw=8e6)
        link.connect(lambda p: None)
        for i in range(4):
            link.send(make_packet(i))
        sim.run()
        assert link.utilization_seconds == pytest.approx(0.004)

    def test_fifo_across_flows(self):
        sim = Simulator()
        link = make_link(sim, capacity=100)
        order = []
        link.connect(lambda p: order.append((p.flow_id, p.seq)))
        link.send(make_packet(0, flow="a"))
        link.send(make_packet(0, flow="b"))
        link.send(make_packet(1, flow="a"))
        sim.run()
        assert order == [("a", 0), ("b", 0), ("a", 1)]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0, 0.01, DropTailQueue(1))
        with pytest.raises(ValueError):
            Link(sim, 1e6, -0.1, DropTailQueue(1))


class TestLossModels:
    def test_periodic_loss_every_nth(self):
        model = periodic_loss(3)
        outcomes = [model(make_packet(i), 0.0) for i in range(9)]
        assert outcomes == [False, False, True] * 3

    def test_periodic_ignores_non_data(self):
        from repro.net.packet import PacketType

        model = periodic_loss(2)
        ack = Packet(flow_id="f", seq=0, size=40, ptype=PacketType.ACK)
        assert not any(model(ack, 0.0) for _ in range(10))

    def test_bernoulli_rate_approximately_correct(self):
        rng = np.random.default_rng(3)
        model = bernoulli_loss(0.1, rng)
        losses = sum(model(make_packet(i), 0.0) for i in range(20_000))
        assert 0.08 < losses / 20_000 < 0.12

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            bernoulli_loss(1.0, np.random.default_rng(0))

    def test_scheduled_loss_switches_models(self):
        always = lambda p, t: True
        never = lambda p, t: False
        model = scheduled_loss([(0.0, never), (5.0, always)])
        assert not model(make_packet(), 1.0)
        assert model(make_packet(), 6.0)

    def test_scheduled_requires_increasing_times(self):
        never = lambda p, t: False
        with pytest.raises(ValueError):
            scheduled_loss([(5.0, never), (1.0, never)])

    def test_scheduled_drops_nothing_before_the_first_phase(self):
        model = loss_model_from_spec({"model": "scheduled", "phases": [
            {"at": 5.0, "model": "periodic", "period": 1},
        ]})
        times = [0.0, 4.99, 5.0, 6.0]
        assert [model(make_packet(i), t) for i, t in enumerate(times)] == [
            False, False, True, True,
        ]

    def test_scheduled_first_model_counts_from_its_start(self):
        model = scheduled_loss([(5.0, periodic_loss(2))])
        early = [model(make_packet(i), 1.0) for i in range(3)]
        late = [model(make_packet(i), 5.0 + i) for i in range(4)]
        assert early == [False] * 3
        assert late == [False, True, False, True]


class TestLossModelFromSpec:
    """A malformed ``loss`` mapping fails loudly, naming the field."""

    @pytest.mark.parametrize("loss, field", [
        ({"model": "periodic", "perod": 10}, "loss.perod"),
        ({"model": "scheduled", "phases": [
            {"at": 0.0, "model": "none"},
            {"at": 1.0, "model": "periodic", "perod": 10},
        ]}, "loss.phases[1].perod"),
        ({"probability": 0.1}, "loss.probability"),
        ({"model": "bernoulli", "probability": "0.1"}, "loss.probability"),
        ({"model": "bernoulli", "probability": True}, "loss.probability"),
        ({"model": "bernoulli", "probability": float("nan")}, "loss.probability"),
        ({"model": "periodic", "period": float("inf")}, "loss.period"),
        ({"model": "periodic", "period": 2.7}, "loss.period"),
        ({"model": "periodic", "period": 10, "offset": 0.5}, "loss.offset"),
        ({"model": "scheduled", "phases": [5]}, "loss.phases[0]"),
        ({"model": "scheduled", "phases": {"at": 0.0}}, "loss.phases"),
        ({"model": "scheduled", "phases": []}, "loss.phases"),
        ({"model": "scheduled", "phases": [{"at": "1", "model": "none"}]},
         "loss.phases[0].at"),
        ({"model": "scheduled", "phases": [{"at": 0.0, "model": "bernouli"}]},
         "loss.phases[0].model"),
        ({"model": ["periodic"]}, "loss.model"),
    ], ids=[
        "typo-key", "typo-key-in-phase", "key-without-model", "string-value",
        "bool-value", "nan-value", "inf-period", "fractional-period",
        "fractional-offset", "phase-not-mapping", "phases-not-list",
        "empty-phases", "string-at", "unknown-phase-model", "model-not-string",
    ])
    def test_malformed_loss_names_the_field(self, loss, field):
        with pytest.raises(ValueError, match="^" + re.escape(field) + ":"):
            loss_model_from_spec(loss, np.random.default_rng(0))

    def test_integral_values_of_any_numeric_type_are_accepted(self):
        from_spec = loss_model_from_spec(
            {"model": "periodic", "period": 3.0, "offset": np.int64(1)}
        )
        reference = periodic_loss(3, offset=1)
        assert [from_spec(make_packet(i), 0.0) for i in range(9)] == [
            reference(make_packet(i), 0.0) for i in range(9)
        ]

    @pytest.mark.parametrize(
        "loss", [{}, {"model": "none"}, {"model": ""}], ids=["empty", "none", "blank"]
    )
    def test_lossless_forms_build_no_model(self, loss):
        assert loss_model_from_spec(loss) is None


class TestBernoulliDrawOrder:
    """Block-buffered draws are exact only while one buffer serves every
    consumer of a generator.  Two buffers over one generator each prefetch
    a block, so consumers see each other's values in a different order (a
    buffer per model moves the multicast session's golden digest, whose two
    receivers share one generator)."""

    PHASES = {"model": "scheduled", "phases": [
        {"at": 0.0, "model": "bernoulli", "probability": 0.3},
        {"at": 1.0, "model": "periodic", "period": 4},
        {"at": 2.0, "model": "bernoulli", "probability": 0.6},
    ]}

    @staticmethod
    def verdicts(model, count=600, step=0.005):
        return [model(make_packet(i), i * step) for i in range(count)]

    def test_scheduled_phases_share_one_buffer_and_drop_what_scalar_draws_drop(self):
        scalar = np.random.default_rng(11)
        per_call = scheduled_loss([
            (0.0, bernoulli_loss(0.3, scalar)),
            (1.0, periodic_loss(4)),
            (2.0, bernoulli_loss(0.6, scalar)),
        ])
        spec_model = loss_model_from_spec(self.PHASES, np.random.default_rng(11))
        assert self.verdicts(spec_model) == self.verdicts(per_call)

    def test_a_buffer_per_phase_would_reorder_the_draws(self):
        rng = np.random.default_rng(11)
        per_phase = scheduled_loss([
            (0.0, bernoulli_loss(0.3, BlockDraws(rng))),
            (1.0, periodic_loss(4)),
            (2.0, bernoulli_loss(0.6, BlockDraws(rng))),
        ])
        spec_model = loss_model_from_spec(self.PHASES, np.random.default_rng(11))
        assert self.verdicts(per_phase) != self.verdicts(spec_model)

    def test_models_on_one_raw_generator_keep_their_interleaving(self):
        """Two receivers' models on one generator (the multicast session's
        layout) each take the next scalar draw when called."""
        rng = np.random.default_rng(5)
        a, b = bernoulli_loss(0.2, rng), bernoulli_loss(0.7, rng)
        order = [a, b, b, a, a, a, b, a, b, b] * 30
        values = np.random.default_rng(5).random(len(order))
        expected = [
            value < (0.2 if model is a else 0.7)
            for model, value in zip(order, values)
        ]
        assert [model(make_packet(), 0.0) for model in order] == expected


class TestLossyPath:
    def test_send_pushes_the_entry_schedule_fast_would(self):
        direct, reference = Simulator(), Simulator()
        path = LossyPath(direct, delay=0.05, bandwidth_bps=8e6)
        receiver = lambda p: None
        path.connect(receiver)
        packets = [make_packet(i) for i in range(3)]
        for i, packet in enumerate(packets):
            path.send(packet)
            # 1 ms of serialization each, back to back.
            reference.schedule_fast(0.001 * (i + 1) + 0.05, receiver, args=(packet,))
        assert direct._heap == reference._heap
        assert direct._seq == reference._seq == 3

    def test_non_finite_delivery_time_rejected_like_schedule_fast(self):
        sim = Simulator()
        path = LossyPath(sim, delay=float("inf"))
        path.connect(lambda p: None)
        with pytest.raises(SimulationError, match="non-finite"):
            path.send(make_packet())

    def test_fixed_delay_delivery(self):
        sim = Simulator()
        path = LossyPath(sim, delay=0.05)
        arrivals = []
        path.connect(lambda p: arrivals.append(sim.now))
        path.send(make_packet())
        sim.run()
        assert arrivals == [pytest.approx(0.05)]

    def test_loss_model_applied(self):
        sim = Simulator()
        path = LossyPath(sim, delay=0.01, loss_model=periodic_loss(2))
        arrivals = []
        path.connect(lambda p: arrivals.append(p.seq))
        for i in range(6):
            path.send(make_packet(i))
        sim.run()
        assert arrivals == [0, 2, 4]
        assert path.packets_dropped == 3

    def test_bandwidth_adds_serialization(self):
        sim = Simulator()
        path = LossyPath(sim, delay=0.01, bandwidth_bps=8e6)
        arrivals = []
        path.connect(lambda p: arrivals.append(sim.now))
        path.send(make_packet())
        sim.run()
        assert arrivals == [pytest.approx(0.011)]

    def test_send_without_receiver_raises(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            LossyPath(sim, delay=0.01).send(make_packet())
