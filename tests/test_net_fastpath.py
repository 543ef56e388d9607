"""The network layer's hot paths against what they are shortcuts for.

The fused RED enqueue and the TCP sink's interval SACK state are fuzzed
against the per-packet models in ``tests/reference_models.py``; the RED
runs ``tests/golden_digests.json`` pins must also repeat byte for byte
within one process, on any platform (the digests skip off theirs).
"""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from reference_models import (
    red_reference, sack_reference, sack_scoreboard_reference,
)
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, REDQueue
from repro.sim.engine import Simulator
from repro.tcp.sack import SackSender
from repro.tcp.sink import TCPAckInfo, TCPSink
from test_golden_digests import RUNS


class TestSeededRedRunsRepeat:
    """Nothing outside the seeded streams (module state, id()-ordered
    containers, leftovers of a previous run) reaches trace or results."""

    def test_dumbbell_red_traces_byte_identical(self):
        trace, outcome = RUNS["dumbbell_red"]()
        assert trace, "scenario produced no trace records"
        assert outcome["red"][1] + outcome["red"][2] > 0, "RED never dropped"
        assert (trace, outcome) == RUNS["dumbbell_red"]()

    def test_dumbbell_red_ecn_traces_byte_identical(self):
        trace, outcome = RUNS["dumbbell_red_ecn"]()
        assert outcome["red"][3] > 0, "scenario produced no ECN marks"
        assert (trace, outcome) == RUNS["dumbbell_red_ecn"]()

    @pytest.mark.slow
    def test_fig14_red_byte_identical(self):
        _, outcome = RUNS["fig14_red"]()
        assert outcome["queue_series"], "scenario produced no queue samples"
        assert outcome == RUNS["fig14_red"]()[1]


def _feed(sink, arrivals):
    """Deliver a sequence-number stream; return the emitted ACK signatures."""
    acks = []
    sink._send_ack = lambda p: acks.append(
        (p.seq, p.payload.echo_seq, tuple(p.payload.sack_blocks))
    )
    for seq in arrivals:
        sink.receive(
            Packet(flow_id="f", seq=int(seq), size=1000, sent_at=0.0)
        )
    return acks


class TestIncrementalSackEquivalence:
    """The sink's interval state against the set-of-seqs reference model."""

    def _sink(self, max_blocks=TCPSink.MAX_SACK_BLOCKS):
        sink = TCPSink(Simulator(), "f", send_ack=lambda p: None)
        sink.MAX_SACK_BLOCKS = max_blocks  # truncation at other limits too
        return sink

    @pytest.mark.parametrize("seed", range(8))
    def test_random_arrival_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        # Shuffled delivery with duplicates: sample with replacement from a
        # sliding window, so gaps open, persist, refill, and re-duplicate.
        arrivals = []
        base = 0
        while len(arrivals) < n:
            arrivals.append(base + int(rng.integers(0, 12)))
            if rng.random() < 0.4:
                base += 1
        sink = self._sink()
        acks, duplicates = sack_reference(arrivals)
        assert _feed(sink, arrivals) == acks
        assert sink.next_expected == acks[-1][0]
        assert sink.duplicate_data == duplicates

    @pytest.mark.parametrize("max_blocks", [1, 2, 3, 5])
    def test_truncation_equivalence(self, max_blocks):
        # Descending arrivals create one block per seq, newest-last in
        # sequence space: exercises the recency sort + truncation.
        arrivals = [0, 14, 10, 6, 2, 12, 4, 8, 3]
        acks = _feed(self._sink(max_blocks), arrivals)
        assert acks == sack_reference(arrivals, max_blocks)[0]
        assert all(len(blocks) <= max_blocks for _, _, blocks in acks)
        assert max(len(blocks) for _, _, blocks in acks) == max_blocks

    def test_gap_fill_consumes_first_interval(self):
        sink = self._sink()
        arrivals = [0, 2, 3, 5, 1, 4, 6]
        assert _feed(sink, arrivals) == sack_reference(arrivals)[0]
        assert sink.next_expected == 7
        assert sink._blk_starts == [] and sink._blk_ends == []

    def test_duplicate_of_held_data_refreshes_block_recency(self):
        arrivals = [0, 2, 6, 2]  # duplicate of held (2,3): must lead again
        acks = _feed(self._sink(), arrivals)
        assert acks == sack_reference(arrivals)[0]
        assert acks[-1][2] == ((2, 3), (6, 7))


@st.composite
def sack_steps(draw):
    """``(snd_una, in_recovery, blocks)`` per ACK: ``snd_una`` only moves
    forward, and blocks start up to five below it, so some lie wholly under
    the cumulative ACK and some straddle it."""
    steps, snd_una = [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        snd_una += draw(st.integers(min_value=0, max_value=6))
        blocks = [
            (start, start + draw(st.integers(min_value=1, max_value=8)))
            for start in draw(st.lists(
                st.integers(min_value=max(0, snd_una - 5), max_value=snd_una + 40),
                max_size=3,
            ))
        ]
        steps.append((snd_una, draw(st.booleans()), blocks))
    return steps


class TestSackScoreboardEquivalence:
    """``SackSender._register_sack`` (whole ranges at once, nothing at all on
    a block-free ACK) and ``_recovery_send`` (one hole walk per call) against
    the per-seq, re-derive-every-time model."""

    @given(sack_steps(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_scoreboard_pipe_and_hole_order(self, steps, cwnd):
        sent = []
        sender = SackSender(Simulator(), "f", send_packet=sent.append)
        sender.snd_nxt, sender.cwnd = 1000, float(cwnd)
        observed = []
        for snd_una, in_recovery, blocks in steps:
            sender.snd_una, sender.in_recovery = snd_una, in_recovery
            sender._register_sack(TCPAckInfo(0.0, 0, blocks))
            del sent[:]
            if in_recovery:
                sender._recovery_send()
            observed.append(
                (sorted(sender._sacked), sender._pipe, [p.seq for p in sent])
            )
        assert observed == sack_scoreboard_reference(steps, 1000, cwnd)


#: mean-packet service time of a standalone REDQueue (1000 B at the
#: 15 Mb/s fallback rate), which the reference model's idle decay needs.
STANDALONE_PACKET_TIME = 1000 * 8 / 15e6


def _red(seed=0, ecn=False):
    queue = REDQueue(
        30, min_thresh=3, max_thresh=9, max_p=0.1, weight=0.2, gentle=True,
        rng=np.random.default_rng(seed),
    )
    queue.ecn = ecn
    return queue


def _packet(i, ecn_capable=False):
    return Packet(flow_id="f", seq=i, size=1000, ecn_capable=ecn_capable)


def _enqueue(queue, packet, now):
    """Enqueue; report ``(verdict, average)`` the way ``red_reference`` does."""
    forced = queue.forced_drops
    if queue.enqueue(packet, now):
        return "mark" if packet.ecn_marked else "accept", queue.avg
    return "forced" if queue.forced_drops > forced else "early", queue.avg


def _assert_matches(observed, expected):
    assert [v for v, _ in observed] == [v for v, _ in expected]
    # The fused enqueue decays an idle average through exp/log where the
    # model uses a power: equal to the last ulp or so per step, and exactly
    # once the EWMA has contracted that away.
    assert [a for _, a in observed] == pytest.approx(
        [a for _, a in expected], rel=1e-12, abs=0.0
    )
    assert observed[-1][1].hex() == expected[-1][1].hex()


class TestRedFastpathEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ecn", [False, True])
    def test_decision_stream_identical(self, seed, ecn):
        queue = _red(seed=seed, ecn=ecn)
        drive = np.random.default_rng(1000 + seed)
        now, ops, observed = 0.0, [], []
        for i in range(600):
            now += float(drive.uniform(0.0, 0.01))
            if drive.random() < 0.7:
                ops.append((now, ecn))
                packet = _packet(i, ecn_capable=ecn)
                observed.append(_enqueue(queue, packet, now))
            else:
                ops.append((now, None))
                queue.dequeue(now)
        _assert_matches(observed, red_reference(
            ops, 30, queue.params, np.random.default_rng(seed),
            STANDALONE_PACKET_TIME, ecn=ecn,
        ))
        verdicts = [v for v, _ in observed]
        assert len(set(verdicts)) >= 2, "fuzz never left the accept region"
        assert queue.early_drops == verdicts.count("early")
        assert queue.forced_drops == verdicts.count("forced")
        assert queue.ecn_marks == verdicts.count("mark")
        assert queue.enqueued == len(verdicts) - queue.dropped

    def test_idle_decay_identical_across_long_gaps(self):
        # Long idle gaps stress the fused exp/log decay against the
        # reference model's plain power.
        queue = _red(seed=9)
        queue.set_service_rate(1e6)
        now, ops, observed = 0.0, [], []
        for i in range(40):
            # Bursts fill the queue; the gap empties it so the next arrival
            # decays from a genuinely idle period.
            for j in range(6):
                ops.append((now, False))
                observed.append(_enqueue(queue, _packet(i * 10 + j), now))
            while queue.dequeue(now) is not None:
                ops.append((now, None))
            now += 1.0 + i * 0.37
        _assert_matches(observed, red_reference(
            ops, 30, queue.params, np.random.default_rng(9), 1000 * 8 / 1e6
        ))

    @pytest.mark.parametrize("ecn", [True, False])
    def test_conservation_counters(self, ecn):
        rng = np.random.default_rng(5)
        queue = REDQueue(
            12, min_thresh=2, max_thresh=6, weight=0.5,
            rng=np.random.default_rng(2),
        )
        queue.ecn = ecn
        accepted = dropped = marked = 0
        now = 0.0
        for i in range(500):
            now += float(rng.uniform(0.0, 0.005))
            pkt = _packet(i, ecn_capable=bool(rng.random() < 0.5))
            if queue.enqueue(pkt, now):
                accepted += 1
                marked += int(pkt.ecn_marked)
            else:
                dropped += 1
            if rng.random() < 0.3:
                queue.dequeue(now)
        # Every enqueue outcome is accounted for by exactly one counter.
        assert queue.enqueued == accepted
        assert queue.dropped == dropped
        assert queue.early_drops + queue.forced_drops == dropped
        assert queue.ecn_marks == marked
        assert queue.enqueued == queue.dequeued + len(queue)

    @pytest.mark.parametrize("gentle", [True, False])
    def test_forced_drop_resets_count_to_zero(self, gentle):
        # ns-2 RED: count <- 0 on *every* drop, forced included; only
        # avg < min_thresh parks the counter at -1.  Without gentle the
        # forced region starts at max_thresh; with it the 3-packet buffer
        # overflows first.
        queue = REDQueue(
            3, min_thresh=1, max_thresh=2, weight=1.0, gentle=gentle,
            rng=np.random.default_rng(0),
        )
        forced = 0
        for i in range(12):
            queue.enqueue(_packet(i), 0.0)
            if queue.forced_drops > forced:
                forced = queue.forced_drops
                assert queue._count_since_drop == 0
        assert forced > 0

    @pytest.mark.parametrize("ecn", [True, False])
    def test_inter_drop_gaps_uniformized(self, ecn):
        """Pin the count-based uniformization: with avg held in the marking
        region, the gap between successive early drops is bounded by about
        1/p_b packets (count drives p_a to 1), and the mean gap sits near
        1/(2 p_b) -- the uniformized distribution of the RED paper -- rather
        than the geometric distribution plain Bernoulli marking would give.
        The traffic is not ECN-capable, so an ECN queue drops it all the same.
        """
        queue = REDQueue(
            10_000, min_thresh=1, max_thresh=1001, max_p=1.0, weight=1.0,
            rng=np.random.default_rng(7),
        )
        queue.ecn = ecn
        # weight=1 pins avg == instantaneous occupancy; hold the queue at
        # depth 101 (dequeue after every accept) so p_b == 0.1 for every
        # measured arrival.
        seq = 0
        while len(queue._queue) < 101:
            queue.enqueue(_packet(seq), 0.0)
            seq += 1
        gaps, last_drop = [], None
        for i in range(4000):
            if queue.enqueue(_packet(seq + i), 0.0):
                queue.dequeue(0.0)
                continue
            if last_drop is not None:
                gaps.append(i - last_drop)
            last_drop = i
        assert len(gaps) > 150
        p_b = 0.1
        assert max(gaps) <= int(1 / p_b) + 1  # hard uniformization bound
        mean = sum(gaps) / len(gaps)
        assert 0.3 / p_b < mean < 0.75 / p_b  # ~1/(2 p_b), not 1/p_b


class TestLinkUtilizationClipping:
    def _link(self, sim, red):
        # The link inlines the dequeue of both stock disciplines.
        queue = (
            REDQueue(10, min_thresh=3, max_thresh=9) if red
            else DropTailQueue(10)
        )
        link = Link(sim, bandwidth_bps=8e6, propagation_delay=0.01, queue=queue)
        link.connect(lambda p: None)
        return link

    @pytest.mark.parametrize("red", [True, False])
    def test_mid_transmission_query_is_clipped(self, red):
        sim = Simulator()
        link = self._link(sim, red)
        link.send(Packet(flow_id="f", seq=0, size=1000, sent_at=0.0))
        # 1000 bytes at 8 Mb/s = 1 ms on the wire; stop halfway through.
        sim.run(until=0.0005)
        assert link.utilization_seconds == pytest.approx(0.0005)
        sim.run(until=0.002)
        assert link.utilization_seconds == pytest.approx(0.001)

    @pytest.mark.parametrize("red", [True, False])
    def test_idle_link_reports_zero(self, red):
        sim = Simulator()
        link = self._link(sim, red)
        sim.run(until=1.0)
        assert link.utilization_seconds == 0.0

    def test_dead_tx_started_at_attribute_removed(self):
        sim = Simulator()
        link = self._link(sim, True)
        assert not hasattr(link, "_tx_started_at")
