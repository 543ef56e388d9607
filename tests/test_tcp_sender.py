"""TCP sender tests: window dynamics, SACK recovery, timeouts.

These run the real sender against the real sink over a LossyPath so the
whole feedback loop is exercised with exactly controlled losses.
"""

import numpy as np
import pytest

from repro.net.packet import Packet, PacketType
from repro.net.path import LossyPath, bernoulli_loss, periodic_loss
from repro.sim.engine import SimulationError, Simulator
from repro.tcp import TCPSender
from repro.tcp.flow import TcpFlow
from repro.tcp.sink import TCPAckInfo


def run_flow(loss_model=None, duration=20.0, rtt=0.1, bw=None, **kwargs):
    sim = Simulator()
    forward = LossyPath(sim, delay=rtt / 2, loss_model=loss_model, bandwidth_bps=bw)
    reverse = LossyPath(sim, delay=rtt / 2)
    received = []
    flow = TcpFlow(
        sim, "t", forward, reverse,
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


class TestBasics:
    @pytest.mark.parametrize("variant", ["vegas", "tahoe", "reno", "newreno"])
    def test_unknown_variant_rejected(self, variant):
        """SACK is the one TCP; any other name raises, naming it."""
        sim = Simulator()
        with pytest.raises(ValueError, match=f"unknown TCP variant {variant!r}"):
            TcpFlow(sim, "t", LossyPath(sim, 0.05), LossyPath(sim, 0.05),
                    variant=variant)

    def test_lossless_delivery_in_order(self):
        flow, received, _ = run_flow(duration=5.0)
        assert len(received) > 100
        assert received == sorted(received)

    def test_slow_start_doubles_window(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse)
        flow.sender.ssthresh = 1000.0
        flow.start()
        sim.run(until=0.45)  # ~4 RTTs
        # cwnd ~ 2 * 2^4 = 32 after four doublings
        assert 16 <= flow.sender.cwnd <= 64

    def test_window_limits_outstanding(self):
        flow, _, _ = run_flow(duration=2.0)
        sender = flow.sender
        assert sender.outstanding <= int(sender.cwnd) + 1

    def test_finite_transfer_completes(self):
        done = []
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse,
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
        flow = TcpFlow(sim, "t", forward, reverse,
                       packets_to_send=100)
        flow.sender.on_complete = lambda: done.append(1)
        flow.start()
        sim.run(until=60.0)
        assert done == [1]


class TestCongestionResponse:
    def test_periodic_loss_caps_rate(self):
        """With p=1% the equation-fair rate is ~12 pkt/RTT; the flow must
        throttle far below the lossless case."""
        lossy_flow, lossy_received, _ = run_flow(
            loss_model=periodic_loss(100), duration=30.0
        )
        clean_flow, clean_received, _ = run_flow(duration=30.0)
        assert len(lossy_received) < len(clean_received) / 2

    def test_loss_triggers_window_reduction(self):
        flow, _, _ = run_flow(loss_model=periodic_loss(50), duration=10.0)
        sender = flow.sender
        assert sender.fast_retransmits + sender.timeouts > 0
        assert sender.cwnd < 64  # well below initial ssthresh growth

    def test_sack_repairs_multiple_losses_without_timeout(self):
        """A burst of 3 losses in one window should be repaired by SACK
        recovery without resorting to a retransmission timeout."""
        sim = Simulator()
        forward = LossyPath(
            sim, delay=0.05, loss_model=one_shot_loss({50, 52, 54})
        )
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse)
        flow.start()
        sim.run(until=10.0)
        assert flow.sender.timeouts == 0
        assert flow.sender.retransmissions >= 3
        assert flow.sender.snd_una > 60

    @pytest.mark.parametrize("seed", range(10))
    def test_three_losses_in_one_window(self, seed):
        """Section 3.5.1: "Reno TCP typically reduces the congestion window
        twice in response to multiple losses in a window of data"; SACK
        reduces it once.  A reduction is a fast retransmit or a timeout;
        ten drop placements."""
        flow, _, _ = run_flow(
            loss_model=one_shot_loss(three_in_one_window(seed)), duration=10.0,
        )
        sender = flow.sender
        assert (sender.fast_retransmits, sender.timeouts) == (1, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_three_losses_are_each_retransmitted_once(self, seed):
        """The same placements: SACK recovery resends exactly the three
        lost segments, oldest first, each once and each in recovery."""
        lost = three_in_one_window(seed)
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=one_shot_loss(lost))
        flow = TcpFlow(sim, "t", forward, LossyPath(sim, delay=0.05))
        sender, resent = flow.sender, []
        transmit = sender._transmit

        def spy(seq, is_retransmission=False):
            if is_retransmission:
                resent.append((seq, sender.in_recovery))
            transmit(seq, is_retransmission)

        sender._transmit = spy
        flow.start()
        sim.run(until=10.0)
        assert resent == [(seq, True) for seq in sorted(lost)]

    def test_timeout_on_total_blackout(self):
        """If everything is lost the RTO must fire and back off."""

        def blackout(packet, now):
            return now > 1.0

        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=blackout)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse)
        flow.start()
        sim.run(until=30.0)
        assert flow.sender.timeouts >= 2
        assert flow.sender.cwnd == 1.0

    def test_karn_rule_no_sample_from_retransmission(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(20))
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse)
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
    sim = Simulator()
    sent = []
    sender = TCPSender(sim, "f", sent.append)
    sender.cwnd = 8.0
    sender.start()
    sim.run(until=5.0)  # no ACK arrives: 0..7, then an RTO resends 0
    assert sender.timeouts >= 1 and sender.snd_nxt == sender.snd_una + 1
    del sent[:]
    ack = Packet("f", 8, 40, PacketType.ACK, sim.now, TCPAckInfo(0.0, 0))
    sender.on_ack(ack)  # the receiver held 0..7 all along
    assert sender.snd_una == 8
    already_acked = [p.seq for p in sent if p.seq < sender.snd_una]
    assert already_acked == []
    assert sender.snd_una <= sender.snd_nxt


@pytest.mark.parametrize("p, resends", [(0.05, 114), (0.01, 0)])
def test_acked_resends_counts_the_go_back_n_defect(p, resends):
    """``TCPSender.acked_resends`` on the golden lossy path (Bernoulli ``p``,
    seed 5, 60 simulated s), pinned at the values measured before the
    counter existed; ROADMAP item 5's fix takes them to zero."""
    flow, _, _ = run_flow(
        loss_model=bernoulli_loss(p, np.random.default_rng(5)), duration=60.0,
    )
    assert flow.sender.acked_resends == resends


class TestSndUnaBoundCheck:
    """After every new ACK, ``snd_una <= snd_nxt``.  The one tolerated
    violation is the go-back-N defect above -- a cumulative ACK past the
    ``snd_nxt`` that ``_go_back_n`` pulled back -- counted in
    ``acks_past_snd_nxt``; any other raises ``SimulationError``."""

    @staticmethod
    def _eight_in_flight():
        sim = Simulator()
        sender = TCPSender(sim, "f", lambda p: None)
        sender.cwnd = 8.0
        sender.start()
        assert (sender.snd_una, sender.snd_nxt) == (0, 8)
        return sim, sender

    @staticmethod
    def _ack(sim, seq):
        return Packet("f", seq, 40, PacketType.ACK, sim.now, TCPAckInfo(0.0, 0))

    def test_planted_violation_without_go_back_n_raises(self):
        sim, sender = self._eight_in_flight()
        sim.run(until=0.05)  # before the RTO: nothing went back
        with pytest.raises(SimulationError) as excinfo:
            sender.on_ack(self._ack(sim, 12))  # 12 > snd_nxt = 8: corrupt
        message = str(excinfo.value)
        assert "flow f" in message and "t=0.05" in message
        assert "snd_una 12 > snd_nxt 8" in message
        assert sender.acks_past_snd_nxt == 0

    def test_ack_past_a_go_back_n_snd_nxt_is_counted(self):
        sim, sender = self._eight_in_flight()
        sim.run(until=5.0)  # no ACK arrives: the RTO goes back N
        assert sender.timeouts >= 1 and sender.snd_nxt == sender.snd_una + 1
        sender.on_ack(self._ack(sim, 8))  # the receiver held 0..7 all along
        assert sender.snd_una == 8 and sender.acks_past_snd_nxt == 1

    @pytest.mark.parametrize("p, past, resends", [
        (0.05, 26, 114), (0.01, 0, 0),
    ])
    def test_count_is_zero_exactly_where_acked_resends_is(
        self, p, past, resends
    ):
        """The golden TCP run (Bernoulli 5 %, seed 5, 60 simulated s) and
        the same at 1 %, where neither count moves; the counts are the ones
        measured when the check landed."""
        flow, _, _ = run_flow(
            loss_model=bernoulli_loss(p, np.random.default_rng(5)),
            duration=60.0,
        )
        sender = flow.sender
        assert (sender.acks_past_snd_nxt, sender.acked_resends) == (past, resends)


class TestWindowCeiling:
    """``MAX_CWND`` bounds normal growth (``_open_window``)."""

    def test_open_window_stops_at_max_cwnd(self):
        sender = TCPSender(Simulator(), "f", lambda p: None)
        sender.ssthresh = 2 * sender.MAX_CWND  # slow start: +1 per ACK
        sender.cwnd = sender.MAX_CWND - 0.5
        sender._open_window(1)
        assert sender.cwnd == sender.MAX_CWND
        sender._open_window(1)
        assert sender.cwnd == sender.MAX_CWND


class TestNonFiniteWindow:
    """``_set_cwnd`` raises on a NaN or infinite window instead of flooring
    it to one packet, naming the flow and the sim-time."""

    def test_forged_value_raises(self):
        sim = Simulator()
        sender = TCPSender(sim, "f7", lambda p: None)
        sim.run(until=1.25)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(
                SimulationError, match=r"flow f7: cwnd .* at t=1\.25 "
            ):
                sender._set_cwnd(value)
        sender._set_cwnd(0.25)  # finite values keep the one-packet floor
        assert sender.cwnd == 1.0

    def test_forged_nan_stops_the_run_at_the_next_ack(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse)
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
        flow = TcpFlow(sim, "t", forward, reverse)
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
