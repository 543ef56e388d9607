"""Tests for the related-work baseline protocol TFRCP and its ACK receiver."""

import pytest

from repro.baselines.tfrcp import AckReceiver, PacketAck, TfrcpFlow, TfrcpSender
from repro.core.equations import tcp_response_rate
from repro.net.monitor import FlowMonitor
from repro.net.packet import Packet, PacketType
from repro.net.path import LossyPath, periodic_loss
from repro.sim.engine import Simulator


def run_baseline(flow_cls, loss_model=None, duration=60.0):
    """``flow_cls`` alone on a 0.1 s RTT path."""
    sim = Simulator()
    forward = LossyPath(sim, delay=0.05, loss_model=loss_model)
    reverse = LossyPath(sim, delay=0.05)
    monitor = FlowMonitor()
    flow = flow_cls(sim, "b", forward, reverse)
    flow.receiver.on_data = monitor.on_packet
    flow.start()
    sim.run(until=duration)
    return flow, monitor


class TestTfrcp:
    def test_rate_grows_without_loss(self):
        flow, _ = run_baseline(TfrcpFlow, duration=30.0)
        assert flow.sender.rate > 100 * 1000  # doubled many times

    def test_loss_caps_rate_near_equation(self):
        flow, _ = run_baseline(TfrcpFlow, loss_model=periodic_loss(100), duration=90.0)
        sender = flow.sender
        expected = tcp_response_rate(1000, sender.srtt, 0.01, 4 * sender.srtt)
        # TFRCP measures raw loss fraction at coarse intervals; match loosely.
        assert sender.rate == pytest.approx(expected, rel=0.8)

    def test_rate_updates_only_at_interval_boundaries(self):
        flow, _ = run_baseline(
            TfrcpFlow, loss_model=periodic_loss(50), duration=21.0,
        )
        assert flow.sender.UPDATE_INTERVAL == 5.0
        times = [t for t, _ in flow.sender.rate_history[1:]]
        assert all(abs(t % 5.0) < 1e-6 or abs(t % 5.0 - 5.0) < 1e-6 for t in times)

    def test_poor_transient_response(self):
        """The paper's criticism: between updates TFRCP ignores congestion.

        Onset of heavy loss mid-interval leaves the rate unchanged until the
        next boundary.
        """
        sim = Simulator()
        heavy = {"on": False}
        forward = LossyPath(
            sim, delay=0.05,
            loss_model=lambda p, now: heavy["on"] and p.seq % 2 == 0,
        )
        reverse = LossyPath(sim, delay=0.05)
        flow = TfrcpFlow(sim, "b", forward, reverse)
        flow.start()
        sim.run(until=11.0)  # boundaries at 5, 10
        rate_before = flow.sender.rate
        heavy["on"] = True   # congestion begins at t=11
        sim.run(until=14.5)  # still before the t=15 boundary
        assert flow.sender.rate == rate_before  # no reaction yet
        sim.run(until=15.5)
        assert flow.sender.rate < rate_before   # reacts only at the boundary

    def test_srtt_measured(self):
        flow, _ = run_baseline(TfrcpFlow, loss_model=periodic_loss(100), duration=20.0)
        assert flow.sender.srtt == pytest.approx(0.1, rel=0.1)

    def test_on_data_sees_every_delivered_packet(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(4))
        arrivals = []
        flow = TfrcpFlow(
            sim, "b", forward, LossyPath(sim, delay=0.05),
            on_data=lambda now, packet: arrivals.append(packet.seq),
        )
        flow.start()
        sim.run(until=12.0)
        assert len(arrivals) == flow.receiver.packets_received > 10
        assert len(arrivals) < flow.sender.packets_sent

    def test_data_packets_are_numbered_and_carry_no_payload(self):
        sim = Simulator()
        sent = []
        sender = TfrcpSender(sim, "b", sent.append)
        sender.start()
        sim.run(until=2.0)
        assert [p.seq for p in sent] == list(range(sender.packets_sent))
        assert {(p.ptype, p.size, p.payload) for p in sent} == {
            (PacketType.DATA, 1000, None)
        }


#: ``(id, srtt, packets sent, first seq of the interval, ACKed seqs, rate
#: after the boundary)``, all at a 10 kB/s rate.  At srtt 0.1 s one RTT holds
#: one packet, so the last ``1 + 1`` sent are too recent to count (at 2.0 s,
#: ``20 + 1``); before the first RTT sample the 0.2 s initial RTT excludes
#: ``2 + 1``.
UPDATE_RULE = [
    ("loss-free-doubles", 0.1, 102, 0, set(range(100)), 20_000.0),
    ("the-last-counted-packet-is-lost", 0.1, 102, 0, set(range(99)),
     tcp_response_rate(1000, 0.1, 1 / 100, 0.4)),
    ("lossy-sets-the-equation", 0.1, 102, 0, set(range(100)) - {5, 50},
     tcp_response_rate(1000, 0.1, 2 / 100, 0.4)),
    ("only-this-interval-counts", 0.1, 102, 50, set(range(50, 100)), 20_000.0),
    ("empty-interval-doubles", 0.1, 40, 40, set(), 20_000.0),
    ("initial-rtt-before-a-sample", None, 103, 0, set(range(99)) | {100},
     tcp_response_rate(1000, 0.2, 1 / 100, 0.8)),
    ("all-lost-floors-at-t-mbi", 2.0, 102, 0, set(), 1000 / 64),
]


class TestTfrcpUpdateRule:
    @pytest.mark.parametrize(
        "srtt, sent, first, acked, expected",
        [row[1:] for row in UPDATE_RULE], ids=[row[0] for row in UPDATE_RULE],
    )
    def test_interval_boundary(self, srtt, sent, first, acked, expected):
        sim = Simulator()
        sender = TfrcpSender(sim, "b", lambda packet: None)
        sender.rate, sender.srtt = 10_000.0, srtt
        sender._seq, sender._interval_first_seq = sent, first
        sender._acked_this_interval = set(acked)
        sender._update_rate()
        assert sender.rate_history == [(0.0, expected)]
        # The next interval starts empty at the next packet to be sent.
        assert sender._interval_first_seq == sent
        assert sender._acked_this_interval == set()
        assert sender._update_timer.expiry == sender.UPDATE_INTERVAL

    def test_acks_land_in_this_intervals_set_and_sample_the_rtt(self):
        sim = Simulator()
        sender = TfrcpSender(sim, "b", lambda packet: None)
        sender.start()
        sim.run(until=0.25)
        sender.on_ack(Packet("b", 0, 40, PacketType.ACK, 0.25, PacketAck(0.05, 0)))
        assert sender._acked_this_interval == {0}
        assert sender.acks_received == 1 and sender.srtt == 0.2

    @pytest.mark.parametrize("ptype, payload, stopped", [
        (PacketType.FEEDBACK, PacketAck(0.05, 0), False),
        (PacketType.ACK, None, False),
        (PacketType.ACK, PacketAck(0.05, 0), True),
    ], ids=["not-an-ack", "no-ack-payload", "after-stop"])
    def test_other_reverse_packets_are_ignored(self, ptype, payload, stopped):
        sim = Simulator()
        sender = TfrcpSender(sim, "b", lambda packet: None)
        sender.start()
        sim.run(until=0.25)
        if stopped:
            sender.stop()
        sender.on_ack(Packet("b", 0, 40, ptype, 0.25, payload))
        assert sender._acked_this_interval == set()
        assert sender.acks_received == 0 and sender.srtt is None


class TestAckReceiver:
    def _receiver(self):
        sim = Simulator()
        acks, arrivals = [], []
        receiver = AckReceiver(
            sim, "b", acks.append, on_data=lambda now, p: arrivals.append(p)
        )
        return sim, receiver, acks, arrivals

    def test_each_data_packet_is_acked_echoing_its_sent_at_and_seq(self):
        sim, receiver, acks, arrivals = self._receiver()
        data = Packet("b", 7, 1000, PacketType.DATA, 1.25)
        sim.schedule(2.0, lambda: receiver.receive(data))
        sim.run()
        assert receiver.packets_received == 1 and arrivals == [data]
        [ack] = acks
        assert (ack.flow_id, ack.seq, ack.size, ack.ptype, ack.sent_at) == (
            "b", 7, AckReceiver.ACK_SIZE, PacketType.ACK, 2.0,
        )
        assert (ack.payload.echo_ts, ack.payload.echo_seq) == (1.25, 7)

    @pytest.mark.parametrize("ptype", [PacketType.ACK, PacketType.FEEDBACK])
    def test_non_data_packets_are_ignored(self, ptype):
        sim, receiver, acks, arrivals = self._receiver()
        receiver.receive(Packet("b", 7, 40, ptype, 0.0, PacketAck(0.0, 7)))
        assert receiver.packets_received == 0
        assert acks == [] and arrivals == []
