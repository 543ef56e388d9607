"""One ACK at a time through the SACK sender's window state machine.

Every case starts from the same state -- ``cwnd = 8``, segments
0..7 in flight -- feeds hand-built ACKs straight into ``on_ack`` (no
path, no sink) and checks the window state, the SACK scoreboard and the
segments sent against values derived by hand from ``tcp/sender.py``.
``tests/test_tcp_sender.py`` checks the same sender end to end over a
lossy path; this table says which transition produced the end result.
"""

import pytest

from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.tcp import TCPSender
from repro.tcp.sink import TCPAckInfo

#: What a receiver holding all of 0..7 but the named losses acknowledges,
#: one duplicate ACK of 0 per arrival, with the SACK blocks of RFC 2018
#: (most recently received block first).
DUPACKS = {
    # 1, 2, 4, 5, 6, 7 arrive
    "0-and-3": [
        [(1, 2)],
        [(1, 3)],
        [(4, 5), (1, 3)],
        [(4, 6), (1, 3)],
        [(4, 7), (1, 3)],
        [(4, 8), (1, 3)],
    ],
    # 1, 3, 5, 6, 7 arrive
    "0-2-4": [
        [(1, 2)],
        [(3, 4), (1, 2)],
        [(5, 6), (3, 4), (1, 2)],
        [(5, 7), (3, 4), (1, 2)],
        [(5, 8), (3, 4), (1, 2)],
    ],
    # 2..7 arrive
    "0-and-1": [
        [(2, 3)],
        [(2, 4)],
        [(2, 5)],
        [(2, 6)],
        [(2, 7)],
        [(2, 8)],
    ],
}
every_pattern = pytest.mark.parametrize("pattern", sorted(DUPACKS))


def eight_in_flight(ssthresh=None):
    sim = Simulator()
    sent = []
    sender = TCPSender(sim, "f", sent.append)
    sender.cwnd = 8.0
    if ssthresh is not None:
        sender.ssthresh = ssthresh
    sender.start()
    assert [p.seq for p in sent] == list(range(8))
    del sent[:]
    return sim, sender, sent


def ack(sender, seq, sack_blocks=None):
    info = TCPAckInfo(0.0, seq, sack_blocks)
    sender.on_ack(Packet("f", seq, 40, PacketType.ACK, 0.0, info))


def dupack_stream(pattern, count):
    """The first ``count`` duplicate ACKs of ``pattern`` as ``(ack, blocks)``."""
    return [(0, blocks) for blocks in DUPACKS[pattern][:count]]


def dupacks(sender, count, pattern="0-and-3"):
    for seq, blocks in dupack_stream(pattern, count):
        ack(sender, seq, blocks)


def state(sender, sent):
    """The window state and the segments sent since the last call."""
    seqs = [p.seq for p in sent]
    del sent[:]
    return {
        "cwnd": sender.cwnd,
        "ssthresh": sender.ssthresh,
        "in_recovery": sender.in_recovery,
        "snd_una": sender.snd_una,
        "snd_nxt": sender.snd_nxt,
        "sent": seqs,
    }


def scoreboard(sender, sent):
    """``(pipe, SACKed seqs, holes retransmitted in this recovery, segments
    sent since the last call)``."""
    seqs = [p.seq for p in sent]
    del sent[:]
    return (sender._pipe, sorted(sender._sacked),
            sorted(sender._retx_in_recovery), seqs)


def test_slow_start_ack_adds_one_segment():
    _, sender, sent = eight_in_flight()
    ack(sender, 1)
    assert state(sender, sent) == {
        "cwnd": 9.0, "ssthresh": 64.0, "in_recovery": False,
        "snd_una": 1, "snd_nxt": 10, "sent": [8, 9],
    }


def test_congestion_avoidance_ack_adds_one_over_cwnd():
    _, sender, sent = eight_in_flight(ssthresh=4.0)
    ack(sender, 1)
    assert state(sender, sent) == {
        "cwnd": 8.125, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 1, "snd_nxt": 9, "sent": [8],
    }


#: The third duplicate ACK sets ssthresh to half the flight (8 / 2 = 4),
#: cwnd to ssthresh, and estimates the pipe as flight - 3 = 5, which is not
#: below cwnd, so nothing is sent yet; whatever the losses, the scoreboard
#: holds the three SACKed segments.
THIRD_DUPACK_SACKED = {"0-and-3": [1, 2, 4], "0-2-4": [1, 3, 5], "0-and-1": [2, 3, 4]}


@every_pattern
def test_third_dupack(pattern):
    _, sender, sent = eight_in_flight()
    dupacks(sender, 2, pattern)
    assert state(sender, sent)["sent"] == []
    ack(sender, 0, DUPACKS[pattern][2])
    assert state(sender, sent) == {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": True,
        "snd_una": 0, "snd_nxt": 8, "sent": [],
    }
    assert sender.fast_retransmits == 1
    assert sender.recover == 7
    assert scoreboard(sender, sent) == (5, THIRD_DUPACK_SACKED[pattern], [], [])


@every_pattern
def test_dupacks_after_the_third(pattern):
    """The fourth and fifth duplicate ACKs each SACK one more segment and
    lower the pipe by one (5 -> 4 -> 3); below cwnd 4 the first hole, 0,
    is retransmitted.  The window does not move."""
    _, sender, sent = eight_in_flight()
    dupacks(sender, 3, pattern)
    del sent[:]
    ack(sender, 0, DUPACKS[pattern][3])
    assert state(sender, sent)["sent"] == []
    ack(sender, 0, DUPACKS[pattern][4])
    after = state(sender, sent)
    assert after["sent"] == [0]
    assert after["cwnd"] == 4.0
    assert after["ssthresh"] == 4.0


#: The retransmitted 0 arrives and the receiver acknowledges up to the
#: next hole: a partial ACK (below recover = 7).  The ACKed segments come
#: off the pipe (4 -> 1, 2 or 3), and the pipe is refilled to cwnd 4 with
#: the holes not yet retransmitted, then new data.  ``0-and-3``: the hole
#: 3, then 8 and 9.  ``0-2-4``: the holes 2 and 4.  ``0-and-1``: the hole 1.
PARTIAL_ACK = {
    "0-and-3": ((3, [(4, 7)]), {"snd_una": 3, "snd_nxt": 10, "sent": [3, 8, 9]}),
    "0-2-4": ((2, [(3, 4), (5, 8)]), {"snd_una": 2, "snd_nxt": 8, "sent": [2, 4]}),
    "0-and-1": ((1, [(2, 7)]), {"snd_una": 1, "snd_nxt": 8, "sent": [1]}),
}


@every_pattern
def test_partial_ack(pattern):
    _, sender, sent = eight_in_flight()
    dupacks(sender, 5, pattern)
    del sent[:]
    (seq, blocks), expected = PARTIAL_ACK[pattern]
    ack(sender, seq, blocks)
    assert state(sender, sent) == {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": True, **expected,
    }


@every_pattern
def test_ack_past_recover_ends_recovery_at_ssthresh(pattern):
    """An ACK above ``recover`` deflates to ssthresh, empties the
    scoreboard and reopens the ordinary window: 4 new segments."""
    _, sender, sent = eight_in_flight()
    dupacks(sender, 5, pattern)
    assert sender._retx_in_recovery == {0}
    del sent[:]
    ack(sender, 8)
    assert state(sender, sent) == {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 8, "snd_nxt": 12, "sent": [8, 9, 10, 11],
    }
    assert scoreboard(sender, sent) == (0, [], [], [])


def test_retransmission_timeout_goes_back_to_one_segment():
    """No ACK at all: the 3 s initial RTO fires once, halves ssthresh from
    the flight, resends 0 from cwnd 1 and doubles the timer."""
    sim, sender, sent = eight_in_flight()
    sim.run(until=3.5)
    assert state(sender, sent) == {
        "cwnd": 1.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 0, "snd_nxt": 1, "sent": [0],
    }
    assert sender.timeouts == 1
    assert sender.rto_estimator.rto == 6.0


def test_timeout_in_recovery_abandons_it():
    sim, sender, sent = eight_in_flight()
    dupacks(sender, 3)
    assert sender.in_recovery
    del sent[:]
    sim.run(until=3.5)
    assert state(sender, sent) == {
        "cwnd": 1.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 0, "snd_nxt": 1, "sent": [0],
    }
    assert sender.recover == -1
    assert sender._sacked == set() and sender._pipe == 0


# --------------------------------------------------- the recovery paths

#: A fourth ACK after the third duplicate of ``0-and-3`` (pipe 5, cwnd 4,
#: SACKed 1, 2, 4): the pipe falls by the segments it SACKs that the
#: scoreboard did not hold, and by nothing else -- not by the ACK itself,
#: nor by a block it repeats.  Each freed slot below cwnd sends the oldest
#: hole.  ``(blocks, (pipe, SACKed, retransmitted, sent))``.
FOURTH_ACK = {
    "repeats-every-block": ([(4, 5), (1, 3)], (5, [1, 2, 4], [], [])),
    "no-blocks": (None, (5, [1, 2, 4], [], [])),
    "one-held-block": ([(1, 3)], (5, [1, 2, 4], [], [])),
    "inside-a-held-block": ([(2, 3)], (5, [1, 2, 4], [], [])),
    "one-new": ([(4, 6), (1, 3)], (4, [1, 2, 4, 5], [], [])),
    "two-new": ([(4, 7), (1, 3)], (4, [1, 2, 4, 5, 6], [0], [0])),
    "three-new": ([(4, 8), (1, 3)], (4, [1, 2, 4, 5, 6, 7], [0, 3], [0, 3])),
    "overlapping-a-held-block": ([(2, 6)], (4, [1, 2, 3, 4, 5], [0], [0])),
}


@pytest.mark.parametrize("case", sorted(FOURTH_ACK))
def test_pipe_shrinks_only_by_newly_sacked_seqs(case):
    blocks, expected = FOURTH_ACK[case]
    _, sender, sent = eight_in_flight()
    dupacks(sender, 3)
    del sent[:]
    ack(sender, 0, blocks)
    assert scoreboard(sender, sent) == expected


#: ACK streams whose last ACK frees a slot while a hole already
#: retransmitted in this recovery is the oldest hole again; the walk passes
#: it by.  ``(ACKs, (retransmitted, sent on the last ACK))``.
HOLE_WALKS = {
    # 0 went on the fifth dupACK; the sixth frees one slot: 3, not 0.
    "second-hole-after-the-first": (
        dupack_stream("0-and-3", 6), ([0, 3], [3]),
    ),
    # 0 and 3 went on one dupACK; the partial ACK for 0 frees three
    # slots, and with no hole left they carry new data.
    "new-data-after-every-hole": (
        dupack_stream("0-and-3", 3) + [(0, [(4, 8), (1, 3)]), (3, [(4, 8)])],
        ([0, 3], [8, 9, 10]),
    ),
    # adjacent holes: 0 on the fifth dupACK, 1 on the sixth
    "adjacent-holes": (dupack_stream("0-and-1", 6), ([0, 1], [1])),
    # 1 is retransmitted and is the oldest hole when the partial ACK for 0
    # arrives: the freed slot carries new data
    "retransmitted-hole-at-snd-una": (
        dupack_stream("0-and-1", 6) + [(1, [(2, 8)])], ([0, 1], [8]),
    ),
    # 2 arrives late (reordered): it fills its hole, and the slot it frees
    # goes to 4, the oldest hole not yet sent
    "late-arrival-fills-a-hole": (
        dupack_stream("0-2-4", 5) + [(0, [(1, 4), (5, 8)])], ([0, 4], [4]),
    ),
}


@pytest.mark.parametrize("case", sorted(HOLE_WALKS))
def test_hole_walk_skips_holes_already_retransmitted(case):
    acks, (retransmitted, last) = HOLE_WALKS[case]
    _, sender, sent = eight_in_flight()
    for seq, blocks in acks[:-1]:
        ack(sender, seq, blocks)
    del sent[:]
    ack(sender, *acks[-1])
    assert sender.in_recovery
    _, _, retx, seqs = scoreboard(sender, sent)
    assert (retx, seqs) == (retransmitted, last)


#: Partial ACKs and the scoreboard they leave: every SACKed seq below the
#: new ``snd_una`` is gone, the ACKed segments are off the pipe, and the
#: freed slots go to holes, then new data.  ``(ACKs before it, the partial
#: ACK, (pipe, SACKed, retransmitted, sent on it))``.
PARTIAL_ACKS = {
    # the retransmitted 0 arrives: 1 and 2 leave the scoreboard
    "0-and-3-to-3": (
        dupack_stream("0-and-3", 5), (3, [(4, 7)]),
        (4, [4, 5, 6], [0, 3], [3, 8, 9]),
    ),
    # 0 arrives late before it is retransmitted; 3 and then 8 go
    "0-and-3-reordered": (
        dupack_stream("0-and-3", 3), (3, None), (4, [4], [3], [3, 8]),
    ),
    # the retransmitted 0 arrives: 1 leaves, the holes 2 and 4 go
    "0-2-4-to-2": (
        dupack_stream("0-2-4", 5), (2, [(3, 4), (5, 8)]),
        (4, [3, 5, 6, 7], [0, 2, 4], [2, 4]),
    ),
    # then the retransmitted 2: 3 leaves, and with 4 already sent the two
    # freed slots carry new data
    "0-2-4-to-4": (
        dupack_stream("0-2-4", 5) + [(2, [(3, 4), (5, 8)])], (4, [(5, 8)]),
        (4, [5, 6, 7], [0, 2, 4], [8, 9]),
    ),
}


@pytest.mark.parametrize("case", sorted(PARTIAL_ACKS))
def test_partial_ack_prunes_the_scoreboard(case):
    acks, partial, expected = PARTIAL_ACKS[case]
    _, sender, sent = eight_in_flight()
    for seq, blocks in acks:
        ack(sender, seq, blocks)
    del sent[:]
    ack(sender, *partial)
    assert sender.in_recovery and sender.snd_una == partial[0]
    assert scoreboard(sender, sent) == expected


#: ACK streams after which the RTO fires (no new ACK restarts the 3 s
#: initial timer, or the last one did at t = 0): before the third dupACK,
#: in recovery before and after a hole went, and after a partial ACK.
RTO_AFTER = {
    "two-dupacks": dupack_stream("0-and-3", 2),
    "three-dupacks": dupack_stream("0-and-3", 3),
    "a-hole-retransmitted": dupack_stream("0-and-3", 5),
    "every-hole-retransmitted": dupack_stream("0-2-4", 5)
    + [(2, [(3, 4), (5, 8)])],
    "a-partial-ack": dupack_stream("0-and-3", 5) + [(3, [(4, 7)])],
}


@pytest.mark.parametrize("case", sorted(RTO_AFTER))
def test_rto_clears_the_scoreboard(case):
    """Everything outstanding is presumed lost: the scoreboard, the holes
    sent and the pipe all go, recovery is abandoned, and the head is
    resent from cwnd 1."""
    sim, sender, sent = eight_in_flight()
    for seq, blocks in RTO_AFTER[case]:
        ack(sender, seq, blocks)
    assert sender._sacked
    head = sender.snd_una
    del sent[:]
    sim.run(until=3.5)
    assert sender.timeouts == 1
    assert (sender.in_recovery, sender.recover, sender.cwnd) == (False, -1, 1.0)
    assert scoreboard(sender, sent) == (0, [], [], [head])


#: ACKs in recovery with the pipe held at cwnd 16 (its estimate forged, the
#: window raised past the 8 in flight so that the ordinary window has
#: room): only pipe-clocked recovery sends go.  ``(ACK, sent)``.
PIPE_FULL_ACKS = {
    "dupack-without-blocks": ((0, None), []),
    "dupack-repeating-held-blocks": ((0, [(4, 5), (1, 3)]), []),
    "dupack-sacking-one-new": ((0, [(4, 6), (1, 3)]), [0]),
    "partial-ack": ((3, [(4, 5)]), [3, 8, 9]),
}


@pytest.mark.parametrize("case", sorted(PIPE_FULL_ACKS))
def test_no_new_data_while_in_recovery(case):
    (seq, blocks), expected = PIPE_FULL_ACKS[case]
    _, sender, sent = eight_in_flight()
    dupacks(sender, 3)
    sender._set_cwnd(16.0)
    sender._pipe = 16
    del sent[:]
    ack(sender, seq, blocks)
    assert sender.in_recovery and sender.outstanding < sender.cwnd
    assert [p.seq for p in sent] == expected
    assert sender._pipe == 16
