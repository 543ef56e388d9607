"""TCP sender tests: window dynamics, recovery per variant, timeouts.

These run the real sender against the real sink over a LossyPath so the
whole feedback loop is exercised with exactly controlled losses.
"""

import numpy as np
import pytest

from repro.net.packet import Packet, PacketType
from repro.net.path import LossyPath, bernoulli_loss, periodic_loss
from repro.sim.engine import SimulationError, Simulator
from repro.tcp import TCP_VARIANTS, RenoSender, SackSender, make_tcp_sender
from repro.tcp.flow import TcpFlow
from repro.tcp.sink import TCPAckInfo


def run_flow(variant, loss_model=None, duration=20.0, rtt=0.1, bw=None, **kwargs):
    sim = Simulator()
    forward = LossyPath(sim, delay=rtt / 2, loss_model=loss_model, bandwidth_bps=bw)
    reverse = LossyPath(sim, delay=rtt / 2)
    received = []
    flow = TcpFlow(
        sim, "t", forward, reverse, variant=variant,
        on_data=lambda t, p: received.append(p.seq), **kwargs,
    )
    flow.start()
    sim.run(until=duration)
    return flow, received, sim


def one_shot_loss(seqs):
    """Drop each listed data seq once; its retransmission goes through."""
    seqs = set(seqs)

    def loss(packet, now):
        if packet.is_data and packet.seq in seqs:
            seqs.discard(packet.seq)
            return True
        return False

    return loss


def three_in_one_window(seed):
    """Three distinct seqs of the 32-packet slow-start flight 30..61."""
    rng = np.random.default_rng(seed)
    return rng.choice(np.arange(30, 62), size=3, replace=False).tolist()


TAHOE_REPEATS_FAST_RETRANSMIT = pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 5): Tahoe makes 27-49 reductions, "
    "not 1.  Its go-back-N re-sends ACKed segments and, lacking ns-2's "
    "guard, it fast-retransmits again on dupACKs of the flight sent before "
    "its first fast retransmit.",
)


class TestBasics:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_tcp_sender("vegas", Simulator(), "f", send_packet=lambda p: None)

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_lossless_delivery_in_order(self, variant):
        flow, received, _ = run_flow(variant, duration=5.0)
        assert len(received) > 100
        assert received == sorted(received)

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_slow_start_doubles_window(self, variant):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant=variant)
        flow.sender.ssthresh = 1000.0
        flow.start()
        sim.run(until=0.45)  # ~4 RTTs
        # cwnd ~ 2 * 2^4 = 32 after four doublings
        assert 16 <= flow.sender.cwnd <= 64

    def test_window_limits_outstanding(self):
        flow, _, _ = run_flow("sack", duration=2.0)
        sender = flow.sender
        assert sender.outstanding <= int(sender.cwnd) + 1

    def test_finite_transfer_completes(self):
        done = []
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="sack",
                       packets_to_send=50)
        flow.sender.on_complete = lambda: done.append(1)
        flow.start()
        sim.run(until=10.0)
        assert done == [1]
        assert flow.sender.packets_sent >= 50

    def test_finite_transfer_completes_despite_loss(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(17))
        reverse = LossyPath(sim, delay=0.05)
        done = []
        flow = TcpFlow(sim, "t", forward, reverse, variant="sack",
                       packets_to_send=100)
        flow.sender.on_complete = lambda: done.append(1)
        flow.start()
        sim.run(until=60.0)
        assert done == [1]


class TestCongestionResponse:
    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_periodic_loss_caps_rate(self, variant):
        """With p=1% the equation-fair rate is ~12 pkt/RTT; the flow must
        throttle far below the lossless case."""
        lossy_flow, lossy_received, _ = run_flow(
            variant, loss_model=periodic_loss(100), duration=30.0
        )
        clean_flow, clean_received, _ = run_flow(variant, duration=30.0)
        assert len(lossy_received) < len(clean_received) / 2

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_loss_triggers_window_reduction(self, variant):
        flow, _, _ = run_flow(variant, loss_model=periodic_loss(50), duration=10.0)
        sender = flow.sender
        assert sender.fast_retransmits + sender.timeouts > 0
        assert sender.cwnd < 64  # well below initial ssthresh growth

    def test_tahoe_resets_to_one(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(30))
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="tahoe")
        cwnd_after_loss = []
        original = flow.sender.on_dupack_threshold

        def spy():
            original()
            cwnd_after_loss.append(flow.sender.cwnd)

        flow.sender.on_dupack_threshold = spy
        flow.start()
        sim.run(until=10.0)
        assert cwnd_after_loss
        assert all(c == 1.0 for c in cwnd_after_loss)

    def test_reno_enters_fast_recovery(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(40))
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="reno")
        flow.start()
        sim.run(until=5.0)
        assert flow.sender.fast_retransmits > 0
        # Reno never goes back to cwnd=1 on a fast retransmit alone.
        assert flow.sender.cwnd >= 1.0

    def test_sack_repairs_multiple_losses_without_timeout(self):
        """A burst of 3 losses in one window should be repaired by SACK
        recovery without resorting to a retransmission timeout."""
        sim = Simulator()
        forward = LossyPath(
            sim, delay=0.05, loss_model=one_shot_loss({50, 52, 54})
        )
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="sack")
        flow.start()
        sim.run(until=10.0)
        assert flow.sender.timeouts == 0
        assert flow.sender.retransmissions >= 3
        assert flow.sender.snd_una > 60

    @pytest.mark.parametrize("variant", [
        pytest.param(v, marks=TAHOE_REPEATS_FAST_RETRANSMIT)
        if v == "tahoe" else v
        for v in sorted(TCP_VARIANTS)
    ])
    def test_three_losses_in_one_window(self, variant):
        """Section 3.5.1: "Reno TCP typically reduces the congestion window
        twice in response to multiple losses in a window of data"; NewReno
        and SACK reduce it once, and so should Tahoe.  A reduction is a fast
        retransmit or a timeout; ten drop placements."""
        reductions = []
        for seed in range(10):
            flow, _, _ = run_flow(
                variant, loss_model=one_shot_loss(three_in_one_window(seed)),
                duration=10.0,
            )
            sender = flow.sender
            reductions.append(
                (sender.fast_retransmits + sender.timeouts, sender.timeouts)
            )
        if variant == "reno":
            # Measured: three fast retransmits and one RTO per placement.
            assert min(n for n, _ in reductions) >= 2, reductions
        else:
            assert reductions == [(1, 0)] * 10

    def test_timeout_on_total_blackout(self):
        """If everything is lost the RTO must fire and back off."""

        def blackout(packet, now):
            return now > 1.0

        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=blackout)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="sack")
        flow.start()
        sim.run(until=30.0)
        assert flow.sender.timeouts >= 2
        assert flow.sender.cwnd == 1.0

    def test_karn_rule_no_sample_from_retransmission(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(20))
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="sack")
        flow.start()
        sim.run(until=5.0)
        # SRTT must reflect the true ~0.1s RTT, unpolluted by retransmission
        # ambiguity (echo of a retransmitted segment measured from first send).
        assert flow.sender.rto_estimator.srtt == pytest.approx(0.1, abs=0.05)


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 5): after an RTO, _go_back_n leaves "
    "snd_nxt = snd_una + 1; a cumulative ACK past snd_nxt advances snd_una "
    "but not snd_nxt, so _send_new re-sends segments below snd_una.  The "
    "fix changes every TCP golden digest.",
)
def test_new_ack_past_snd_nxt_sends_no_acked_segment():
    for sender_cls in (RenoSender, SackSender):
        sim = Simulator()
        sent = []
        sender = sender_cls(sim, "f", sent.append)
        sender.cwnd = 8.0
        sender.start()
        sim.run(until=5.0)  # no ACK arrives: 0..7, then an RTO resends 0
        assert sender.timeouts >= 1 and sender.snd_nxt == sender.snd_una + 1
        del sent[:]
        ack = Packet("f", 8, 40, PacketType.ACK, sim.now, TCPAckInfo(0.0, 0))
        sender.on_ack(ack)  # the receiver held 0..7 all along
        assert sender.snd_una == 8
        already_acked = [p.seq for p in sent if p.seq < sender.snd_una]
        assert already_acked == [], sender_cls.__name__
        assert sender.snd_una <= sender.snd_nxt


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 5), second trigger: Tahoe's fast "
    "retransmit goes back N as an RTO does, so the cumulative ACK for the "
    "repaired hole passes snd_nxt and _send_new re-sends segments below "
    "snd_una -- with no timeout at all.",
)
def test_tahoe_fast_retransmit_sends_no_acked_segment():
    flow, _, _ = run_flow("tahoe", loss_model=one_shot_loss({40}), duration=5.0)
    sender = flow.sender
    assert sender.timeouts == 0 and sender.fast_retransmits >= 1
    assert sender.acked_resends == 0


@pytest.mark.parametrize("variant, p, resends", [
    ("tahoe", 0.01, 456), ("reno", 0.05, 162), ("newreno", 0.05, 100),
    ("sack", 0.05, 114), ("sack", 0.01, 0),
])
def test_acked_resends_counts_the_go_back_n_defect(variant, p, resends):
    """``TCPSender.acked_resends`` on the golden lossy path (Bernoulli ``p``,
    seed 5, 60 simulated s), pinned at the values measured before the
    counter existed; ROADMAP item 5's fix takes them all to zero."""
    flow, _, _ = run_flow(
        variant, loss_model=bernoulli_loss(p, np.random.default_rng(5)),
        duration=60.0,
    )
    assert flow.sender.acked_resends == resends


class TestSndUnaBoundCheck:
    """After every new ACK, ``snd_una <= snd_nxt``.  The one tolerated
    violation is the go-back-N defect above -- a cumulative ACK past the
    ``snd_nxt`` that ``_go_back_n`` pulled back -- counted in
    ``acks_past_snd_nxt``; any other raises ``SimulationError``."""

    @staticmethod
    def _eight_in_flight(variant):
        sim = Simulator()
        sender = make_tcp_sender(variant, sim, "f", lambda p: None)
        sender.cwnd = 8.0
        sender.start()
        assert (sender.snd_una, sender.snd_nxt) == (0, 8)
        return sim, sender

    @staticmethod
    def _ack(sim, seq):
        return Packet("f", seq, 40, PacketType.ACK, sim.now, TCPAckInfo(0.0, 0))

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_planted_violation_without_go_back_n_raises(self, variant):
        sim, sender = self._eight_in_flight(variant)
        sim.run(until=0.05)  # before the RTO: nothing went back
        with pytest.raises(SimulationError) as excinfo:
            sender.on_ack(self._ack(sim, 12))  # 12 > snd_nxt = 8: corrupt
        message = str(excinfo.value)
        assert "flow f" in message and "t=0.05" in message
        assert "snd_una 12 > snd_nxt 8" in message
        assert sender.acks_past_snd_nxt == 0

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_ack_past_a_go_back_n_snd_nxt_is_counted(self, variant):
        sim, sender = self._eight_in_flight(variant)
        sim.run(until=5.0)  # no ACK arrives: the RTO goes back N
        assert sender.timeouts >= 1 and sender.snd_nxt == sender.snd_una + 1
        sender.on_ack(self._ack(sim, 8))  # the receiver held 0..7 all along
        assert sender.snd_una == 8 and sender.acks_past_snd_nxt == 1

    @pytest.mark.parametrize("variant, p, past, resends", [
        ("tahoe", 0.05, 74, 265), ("reno", 0.05, 32, 162),
        ("newreno", 0.05, 22, 100), ("sack", 0.05, 26, 114),
        ("sack", 0.01, 0, 0),
    ])
    def test_count_is_zero_exactly_where_acked_resends_is(
        self, variant, p, past, resends
    ):
        """The four per-variant golden TCP runs (Bernoulli 5 %, seed 5, 60
        simulated s) and SACK at 1 %, where neither count moves; the counts
        are the ones measured when the check landed."""
        flow, _, _ = run_flow(
            variant, loss_model=bernoulli_loss(p, np.random.default_rng(5)),
            duration=60.0,
        )
        sender = flow.sender
        assert (sender.acks_past_snd_nxt, sender.acked_resends) == (past, resends)


class TestWindowCeiling:
    """``MAX_CWND`` bounds normal growth (``_open_window``) only; Reno and
    NewReno dupACK inflation passes it.  These pin today's answer; whether
    inflation should stop at the ceiling too is decided with ROADMAP
    item 5."""

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_open_window_stops_at_max_cwnd(self, variant):
        sender = make_tcp_sender(variant, Simulator(), "f", lambda p: None)
        sender.ssthresh = 2 * sender.MAX_CWND  # slow start: +1 per ACK
        sender.cwnd = sender.MAX_CWND - 0.5
        sender._open_window(1)
        assert sender.cwnd == sender.MAX_CWND
        sender._open_window(1)
        assert sender.cwnd == sender.MAX_CWND

    @pytest.mark.parametrize("variant", ["reno", "newreno"])
    def test_dupack_inflation_passes_max_cwnd(self, variant):
        sender = make_tcp_sender(variant, Simulator(), "f", lambda p: None)
        sender.cwnd, sender.in_recovery = sender.MAX_CWND, True
        sender.on_recovery_dupack()
        assert sender.cwnd == sender.MAX_CWND + 1.0


class TestNonFiniteWindow:
    """``_set_cwnd`` raises on a NaN or infinite window instead of flooring
    it to one packet, naming the flow and the sim-time."""

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_forged_value_raises(self, variant):
        sim = Simulator()
        sender = make_tcp_sender(variant, sim, "f7", lambda p: None)
        sim.run(until=1.25)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(
                SimulationError, match=r"flow f7: cwnd .* at t=1\.25 "
            ):
                sender._set_cwnd(value)
        sender._set_cwnd(0.25)  # finite values keep the one-packet floor
        assert sender.cwnd == 1.0

    @pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
    def test_forged_nan_stops_the_run_at_the_next_ack(self, variant):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant=variant)
        flow.start()
        sim.run(until=1.0)
        flow.sender.cwnd = float("nan")  # grows to NaN on the next ACK
        with pytest.raises(SimulationError, match=r"flow t: cwnd nan at t="):
            sim.run(until=2.0)
        assert sim.now < 1.2


class TestRecoveryBookkeeping:
    def test_no_unbounded_recovery_sending(self):
        """Regression for the recovery pipe bug: during mass loss the SACK
        sender must not balloon its outstanding data beyond cwnd."""
        sim = Simulator()

        def heavy(packet, now):
            return packet.is_data and 1.0 < now < 1.3 and packet.seq % 2 == 0

        forward = LossyPath(sim, delay=0.05, loss_model=heavy)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse, variant="sack")
        flow.start()
        worst = [0.0]

        def probe():
            sender = flow.sender
            if sender.in_recovery:
                worst[0] = max(worst[0], sender.outstanding / max(sender.cwnd, 1))
            if sim.now < 6.0:
                sim.schedule_in(0.01, probe)

        sim.schedule_in(0.01, probe)
        sim.run(until=6.0)
        # Outstanding may briefly exceed cwnd (it was sent before the loss),
        # but must never grow beyond the pre-loss flight plus a small margin.
        assert worst[0] < 3.0
