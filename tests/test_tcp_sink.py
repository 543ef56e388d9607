"""Unit tests for the TCP sink (ACK generation, SACK blocks, immediate ACKs).

Every case runs twice: bare, and with each emitted ACK cross-checked against
the set-of-seqs reference model (the randomized fuzz against that model
lives in ``tests/test_net_fastpath.py``).
"""

import pytest

from reference_models import sack_reference
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.tcp.sink import TCPSink

pytestmark = pytest.mark.parametrize("cross_check", [True, False])


def data(seq, flow="f", sent_at=0.0):
    return Packet(flow_id=flow, seq=seq, size=1000, sent_at=sent_at)


def make(sim, cross_check, **kwargs):
    """A sink and the list its ACKs land in; with ``cross_check``, each ACK's
    cumulative ack and SACK blocks must be the reference model's for the
    data delivered so far."""
    acks, delivered = [], []

    def send_ack(ack):
        if cross_check:
            cumack, _, blocks = sack_reference(delivered)[0][-1]
            assert (ack.seq, ack.payload.sack_blocks) == (cumack, list(blocks))
        acks.append(ack)

    sink = TCPSink(
        sim, "f", send_ack=send_ack,
        on_data=lambda now, packet: delivered.append(packet.seq), **kwargs
    )
    return sink, acks


class TestCumulativeAcks:
    def test_in_order_acks(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        for i in range(3):
            sink.receive(data(i))
        assert [a.seq for a in acks] == [1, 2, 3]

    def test_gap_generates_dupacks(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))  # hole at 1
        sink.receive(data(3))
        assert [a.seq for a in acks] == [1, 1, 1]

    def test_gap_fill_jumps_cumack(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(1))
        assert acks[-1].seq == 3

    def test_ack_echoes_timestamp_and_seq(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0, sent_at=0.123))
        assert acks[0].payload.echo_ts == 0.123
        assert acks[0].payload.echo_seq == 0

    def test_duplicate_data_counted_and_acked(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(0))
        assert sink.duplicate_data == 1
        assert len(acks) == 2

    def test_below_cumack_duplicate_counted(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        for i in range(3):
            sink.receive(data(i))
        sink.receive(data(1))  # far below next_expected
        assert sink.duplicate_data == 1
        assert acks[-1].seq == 3

    def test_non_data_ignored(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(Packet(flow_id="f", seq=0, size=40, ptype=PacketType.ACK))
        assert acks == []
        assert sink.packets_received == 0

    def test_on_data_hook(self, cross_check):
        sim = Simulator()
        seen = []
        sink = TCPSink(sim, "f", send_ack=lambda a: None,
                       on_data=lambda t, p: seen.append(p.seq))
        sink.receive(data(0))
        assert seen == [0]


class TestSackBlocks:
    def test_single_block(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        assert acks[-1].payload.sack_blocks == [(2, 3)]

    def test_blocks_merge_contiguous(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(3))
        assert acks[-1].payload.sack_blocks == [(2, 4)]

    def test_bridge_merges_two_blocks(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(4))
        sink.receive(data(3))  # bridges (2,3) and (4,5)
        assert acks[-1].payload.sack_blocks == [(2, 5)]

    def test_at_most_three_blocks_newest_first(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        for seq in (2, 4, 6, 8):
            sink.receive(data(seq))
        blocks = acks[-1].payload.sack_blocks
        assert len(blocks) == 3
        # Ascending arrivals: recency order coincides with highest-first.
        assert blocks == [(8, 9), (6, 7), (4, 5)]

    def test_blocks_empty_when_in_order(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        assert acks[-1].payload.sack_blocks == []


class TestSackRecencyOrdering:
    """RFC 2018 section 4: the first SACK block MUST report the block
    containing the most recently received segment -- not the block with the
    highest sequence numbers (the pre-fix behaviour)."""

    def test_first_block_reports_latest_arrival_not_highest_seq(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(6))  # older out-of-order data, higher sequence
        sink.receive(data(2))  # most recent arrival, lower sequence
        assert acks[-1].payload.sack_blocks == [(2, 3), (6, 7)]

    def test_extending_a_block_refreshes_its_recency(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(6))
        sink.receive(data(3))  # extends (2,3) -> (2,4): now the newest block
        assert acks[-1].payload.sack_blocks == [(2, 4), (6, 7)]

    def test_duplicate_out_of_order_data_refreshes_recency(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(6))
        sink.receive(data(2))  # duplicate of held data: still most recent
        assert sink.duplicate_data == 1
        assert acks[-1].payload.sack_blocks == [(2, 3), (6, 7)]

    def test_oldest_block_evicted_when_over_limit(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        for seq in (8, 6, 4, 2):  # descending: 2 is newest, 8 oldest
            sink.receive(data(seq))
        blocks = acks[-1].payload.sack_blocks
        assert blocks == [(2, 3), (4, 5), (6, 7)]  # (8, 9) dropped: oldest

    def test_cumack_advance_prunes_recency_state(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(1))  # fills the gap: cumack jumps to 3
        assert acks[-1].payload.sack_blocks == []
        assert sink._blk_starts == []
        assert sink._blk_ends == []
        assert sink._blk_recency == []


class TestImmediateAcks:
    """Every data segment is ACKed on arrival, echoing its own timestamp:
    the sink has no delayed-ACK timer."""

    def test_each_segment_acked_at_once_with_its_own_echo(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        sim.schedule(0.04, lambda: sink.receive(data(0, sent_at=0.00)))
        sim.schedule(0.06, lambda: sink.receive(data(1, sent_at=0.02)))
        sim.schedule(0.08, lambda: sink.receive(data(3, sent_at=0.04)))
        sim.run(until=0.1)
        assert [a.seq for a in acks] == [1, 2, 2]
        assert [(a.payload.echo_ts, a.payload.echo_seq) for a in acks] == [
            (0.00, 0), (0.02, 1), (0.04, 3),
        ]
        assert [a.sent_at for a in acks] == [0.04, 0.06, 0.08]

    def test_receiving_schedules_nothing(self, cross_check):
        sim = Simulator()
        sink, acks = make(sim, cross_check)
        for seq in (0, 2, 1, 1):
            sink.receive(data(seq))
        assert len(acks) == 4 and sim._heap == []
