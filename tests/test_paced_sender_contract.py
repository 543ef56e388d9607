"""The contract every rate-based sender inherits from ``PacedSender``.

TFRC and TFRCP differ only in the policy that decides the allowed rate;
lifecycle, pacing, the ``t_mbi`` floor and the record of every rate
decision are the base's, so one parametrised suite pins them for both.
"""

import math

import numpy as np
import pytest

from repro.baselines import TfrcpFlow
from repro.core import TfrcFlow
from repro.core.paced import T_MBI
from repro.net.path import LossyPath, bernoulli_loss
from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Tracer


def unicast(flow_cls, feedback_loss=None, **sender_attrs):
    def build(sim, loss_model=None, tracer=None):
        # 1 Mb/s forward: lossless slow start would otherwise double without
        # bound (TFRC's is capped at twice the receive rate).
        forward = LossyPath(
            sim, delay=0.05, loss_model=loss_model, bandwidth_bps=1e6
        )
        reverse = LossyPath(sim, delay=0.05, loss_model=feedback_loss)
        flow = flow_cls(sim, "f", forward, reverse)
        # Set before start, as a constructor argument would be.
        for name, value in dict(sender_attrs, tracer=tracer).items():
            setattr(flow.sender, name, value)
        return flow

    return build


#: name -> (builder of something with .sender/.start()/.stop(), takes a tracer?)
SENDERS = {
    "tfrc": (unicast(TfrcFlow), True),
    "tfrcp": (unicast(TfrcpFlow, UPDATE_INTERVAL=1.0), True),
}

every_sender = pytest.mark.parametrize("name", SENDERS)

#: name -> (builder, the sender's periodic control loop: a FastTimer its own
#: callback re-arms).  TFRC's no-feedback timer runs as a loop only while no
#: feedback arrives, so its builder drops every feedback packet; a 16 kB/s
#: start and a 0.1 s RTT guess put six halvings inside 10 s.
CONTROL_TIMERS = {
    "tfrc-no-feedback": (
        unicast(
            TfrcFlow, feedback_loss=lambda packet, now: True,
            rate=16_000.0, initial_rtt=0.1,
        ),
        "_no_feedback_timer",
    ),
    "tfrcp": (SENDERS["tfrcp"][0], "_update_timer"),
}

every_control_loop = pytest.mark.parametrize("name", CONTROL_TIMERS)


def lossy():
    return bernoulli_loss(0.03, np.random.default_rng(2))


def record_sends(flow, sim):
    """Per packet: send time, the interval the sender then arms its timer
    with, and the allowed rate at that moment."""
    sender = flow.sender
    sends = []
    transmit = sender._send_packet

    def recording(packet):
        sends.append((sim.now, sender._interpacket_interval(), sender.rate))
        transmit(packet)

    sender._send_packet = recording
    return sends


def spy_on_rate(sender, sim):
    """Log every post-construction assignment to ``sender.rate``."""
    assignments = []

    def spy(self, attr, value):
        if attr == "rate":
            assignments.append((sim.now, value))
        object.__setattr__(self, attr, value)

    sender.__class__ = type("Spied", (type(sender),), {"__setattr__": spy})
    return assignments


@every_sender
def test_start_records_the_first_sample_and_is_idempotent(name):
    sim = Simulator()
    flow = SENDERS[name][0](sim)
    sender = flow.sender
    assert sender.rate_history == [] and sender.packets_sent == 0
    flow.start()
    assert sender.rate_history == [(0.0, sender.rate)]
    assert sender.packets_sent == 1
    pending = len(sim._heap)
    flow.start()
    assert sender.rate_history == [(0.0, sender.rate)]
    assert sender.packets_sent == 1
    assert len(sim._heap) == pending


@every_sender
def test_packets_are_spaced_one_interpacket_interval_apart(name):
    sim = Simulator()
    flow = SENDERS[name][0](sim)
    sender = flow.sender
    sends = record_sends(flow, sim)
    flow.start()
    sim.run(until=8.0)
    assert len(sends) > 20
    assert len(sender.rate_history) > 2  # the spacing followed a moving rate
    for (sent, interval, rate), (next_sent, _, _) in zip(sends, sends[1:]):
        assert next_sent == sent + interval
        if name != "tfrc":  # TFRC alone scales the spacing by sqrt(R0)/M
            assert interval == sender.packet_size / rate


@every_sender
def test_nothing_is_sent_after_stop(name):
    sim = Simulator()
    flow = SENDERS[name][0](sim)
    flow.start()
    sim.run(until=2.0)
    flow.stop()
    sent = flow.sender.packets_sent
    decisions = len(flow.sender.rate_history)
    assert sent > 0
    sim.run(until=10.0)
    assert flow.sender.packets_sent == sent
    assert len(flow.sender.rate_history) == decisions


@every_sender
def test_rate_is_floored_at_one_packet_per_t_mbi(name):
    sim = Simulator()
    sender = SENDERS[name][0](sim).sender
    sender._set_rate(1e-9)
    assert sender.rate == sender.packet_size / T_MBI
    assert sender.rate_history == [(0.0, sender.packet_size / T_MBI)]
    sender._set_rate(5000.0)
    assert sender.rate == 5000.0


@every_sender
def test_every_rate_change_is_recorded_exactly_once(name):
    build, takes_tracer = SENDERS[name]
    sim = Simulator()
    tracer = Tracer()
    flow = build(sim, lossy(), **({"tracer": tracer} if takes_tracer else {}))
    sender = flow.sender
    assignments = spy_on_rate(sender, sim)
    flow.start()
    sim.run(until=30.0)
    rates = [rate for _, rate in sender.rate_history]
    assert len(rates) > 10 and min(rates) < max(rates)
    assert assignments == sender.rate_history
    if takes_tracer:
        traced = [(r.time, r.value) for r in tracer.select(category="rate")]
        assert traced == sender.rate_history
        assert {r.source for r in tracer.select(category="rate")} == {"f"}


@every_sender
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"]
)
def test_a_non_finite_rate_raises_naming_flow_time_and_value(name, value):
    """``max(min_rate, nan)`` is ``min_rate`` and +inf paces packets 0 s
    apart: both must fail loudly, not run on."""
    sim = Simulator()
    flow = SENDERS[name][0](sim)
    sender = flow.sender
    flow.start()
    sim.run(until=1.0)
    rate, decisions = sender.rate, list(sender.rate_history)
    with pytest.raises(SimulationError) as raised:
        sender._set_rate(value)
    assert str(raised.value) == (
        f"flow {sender.flow_id}: rate {value!r} at t=1.0 is not finite"
    )
    assert sender.rate == rate and sender.rate_history == decisions


@every_sender
@pytest.mark.parametrize("samples, srtt", [
    ([0.2], 0.2),
    ([0.2, 0.3], 0.2 + 0.1 * (0.3 - 0.2)),
    ([0.0], None),
    ([-1.0, 0.2, 0.0], 0.2),
], ids=["first-sample", "ewma", "zero-ignored", "non-positive-ignored"])
def test_srtt_is_an_ewma_of_the_positive_samples(name, samples, srtt):
    sender = SENDERS[name][0](Simulator()).sender
    assert sender.rtt_ewma_weight == 0.1
    for sample in samples:
        sender._sample_rtt(sample)
    assert sender.srtt == srtt


@every_control_loop
def test_stop_inside_a_control_tick_ends_its_loop(name):
    """No rate decision follows ``stop()`` and no arming outlives it --
    even when ``stop()`` runs inside a tick itself.  The timer is read
    by an event queued at the stopping instant, so it sees what the rest
    of the tick left armed before any stale arming could fire and clear
    itself."""
    build, timer = CONTROL_TIMERS[name]
    sim = Simulator()
    flow = build(sim)
    sender = flow.sender
    set_rate = sender._set_rate
    pending_after_tick = []

    def set_rate_then_stop(rate):
        set_rate(rate)
        if len(sender.rate_history) == 3:  # start, then two control ticks
            sender.stop()
            sim.schedule_in(0.0, lambda: pending_after_tick.append(
                getattr(sender, timer).pending))

    sender._set_rate = set_rate_then_stop
    flow.start()
    sim.run(until=30.0)
    assert len(sender.rate_history) == 3
    assert sender.rate_history[-1][0] > 0.0
    assert pending_after_tick == [False]
    assert not getattr(sender, timer).pending


@every_control_loop
def test_a_second_start_arms_no_second_control_loop(name):
    def run(starts):
        sim = Simulator()
        flow = CONTROL_TIMERS[name][0](sim)
        for _ in range(starts):
            flow.start()
        sim.run(until=10.0)
        return flow.sender.rate_history, sim.events_processed

    once = run(1)
    assert len(once[0]) > 5
    assert run(2) == once
