"""One ACK at a time through each TCP variant's window state machine.

Every case starts from the same state -- ``initial_cwnd=8``, segments
0..7 in flight -- feeds hand-built ACKs straight into ``on_ack`` (no
path, no sink) and checks the window state and the segments sent against
values derived by hand from ``tcp/base.py`` and the variant's hooks.
``tests/test_tcp_sender.py`` checks the same variants end to end over a
lossy path; this table says which transition produced the end result.
"""

import pytest

from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.tcp import TCP_VARIANTS, make_tcp_sender
from repro.tcp.sink import TCPAckInfo

every_variant = pytest.mark.parametrize("variant", sorted(TCP_VARIANTS))
recovering_variants = pytest.mark.parametrize("variant", ["newreno", "reno", "sack"])

#: What a receiver holding 1, 2, 4, 5, 6 (0 and 3 lost) acknowledges, one
#: ACK per arrival: five duplicate ACKs of 0 with the SACK blocks of
#: RFC 2018 (most recently received block first).
DUPACKS_LOSING_0_AND_3 = [
    [(1, 2)],
    [(1, 3)],
    [(4, 5), (1, 3)],
    [(4, 6), (1, 3)],
    [(4, 7), (1, 3)],
]


def eight_in_flight(variant, **kwargs):
    sim = Simulator()
    sent = []
    sender = make_tcp_sender(
        variant, sim, "f", sent.append, initial_cwnd=8.0, **kwargs
    )
    sender.start()
    assert [p.seq for p in sent] == list(range(8))
    del sent[:]
    return sim, sender, sent


def ack(sender, seq, sack_blocks=None):
    info = TCPAckInfo(0.0, seq, sack_blocks)
    sender.on_ack(Packet("f", seq, 40, PacketType.ACK, 0.0, info))


def dupacks(sender, count):
    for blocks in DUPACKS_LOSING_0_AND_3[:count]:
        ack(sender, 0, blocks)


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


@every_variant
def test_slow_start_ack_adds_one_segment(variant):
    _, sender, sent = eight_in_flight(variant)
    ack(sender, 1)
    assert state(sender, sent) == {
        "cwnd": 9.0, "ssthresh": 64.0, "in_recovery": False,
        "snd_una": 1, "snd_nxt": 10, "sent": [8, 9],
    }


@every_variant
def test_congestion_avoidance_ack_adds_one_over_cwnd(variant):
    _, sender, sent = eight_in_flight(variant, initial_ssthresh=4.0)
    ack(sender, 1)
    assert state(sender, sent) == {
        "cwnd": 8.125, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 1, "snd_nxt": 9, "sent": [8],
    }


#: After the third duplicate ACK every variant sets ssthresh to half the
#: flight (8 / 2 = 4).  Tahoe goes back to one segment and resends 0;
#: Reno and NewReno resend 0 and inflate to ssthresh + 3; SACK sets cwnd to
#: ssthresh and estimates the pipe as flight - 3 = 5, which is not below
#: cwnd, so it sends nothing yet.
THIRD_DUPACK = {
    "tahoe": {
        "cwnd": 1.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 0, "snd_nxt": 1, "sent": [0],
    },
    "reno": {
        "cwnd": 7.0, "ssthresh": 4.0, "in_recovery": True,
        "snd_una": 0, "snd_nxt": 8, "sent": [0],
    },
    "newreno": {
        "cwnd": 7.0, "ssthresh": 4.0, "in_recovery": True,
        "snd_una": 0, "snd_nxt": 8, "sent": [0],
    },
    "sack": {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": True,
        "snd_una": 0, "snd_nxt": 8, "sent": [],
    },
}


@every_variant
def test_third_dupack(variant):
    _, sender, sent = eight_in_flight(variant)
    dupacks(sender, 2)
    assert state(sender, sent)["sent"] == []
    ack(sender, 0, DUPACKS_LOSING_0_AND_3[2])
    assert state(sender, sent) == THIRD_DUPACK[variant]
    assert sender.fast_retransmits == 1
    assert sender.recover == (-1 if variant == "tahoe" else 7)


#: The fourth and fifth duplicate ACKs.  Tahoe, out of recovery with one
#: segment in flight, only counts them.  Reno and NewReno inflate cwnd by
#: one per dupACK (7 -> 8 -> 9) and send new segment 8 once the inflated
#: window exceeds the flight.  SACK lowers the pipe by each newly SACKed
#: segment (5 -> 4 -> 3) and, below cwnd 4, retransmits the first hole, 0.
LATER_DUPACKS = {
    "tahoe": ([], [], 1.0),
    "reno": ([], [8], 9.0),
    "newreno": ([], [8], 9.0),
    "sack": ([], [0], 4.0),
}


@every_variant
def test_dupacks_after_the_third(variant):
    _, sender, sent = eight_in_flight(variant)
    dupacks(sender, 3)
    del sent[:]
    fourth, fifth, cwnd = LATER_DUPACKS[variant]
    ack(sender, 0, DUPACKS_LOSING_0_AND_3[3])
    assert state(sender, sent)["sent"] == fourth
    ack(sender, 0, DUPACKS_LOSING_0_AND_3[4])
    after = state(sender, sent)
    assert after["sent"] == fifth
    assert after["cwnd"] == cwnd
    assert after["ssthresh"] == 4.0


#: The retransmitted 0 arrives and the receiver acknowledges up to the
#: second hole, 3: a partial ACK (3 <= recover = 7).  Reno leaves recovery
#: at once, deflating to ssthresh with 6 segments still in flight.  NewReno
#: resends 3, deflates by the 3 segments ACKed plus one (9 - 3 + 1 = 7) and
#: sends 9.  SACK takes the 3 ACKed segments off the pipe (4 -> 1), resends
#: the hole 3, then fills the pipe to cwnd 4 with new segments 8 and 9.
PARTIAL_ACK = {
    "reno": {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 3, "snd_nxt": 9, "sent": [],
    },
    "newreno": {
        "cwnd": 7.0, "ssthresh": 4.0, "in_recovery": True,
        "snd_una": 3, "snd_nxt": 10, "sent": [3, 9],
    },
    "sack": {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": True,
        "snd_una": 3, "snd_nxt": 10, "sent": [3, 8, 9],
    },
}


@recovering_variants
def test_partial_ack(variant):
    _, sender, sent = eight_in_flight(variant)
    dupacks(sender, 5)
    del sent[:]
    ack(sender, 3, [(4, 7)])
    assert state(sender, sent) == PARTIAL_ACK[variant]


@recovering_variants
def test_ack_past_recover_ends_recovery_at_ssthresh(variant):
    """An ACK above ``recover`` deflates every recovering variant to
    ssthresh and reopens the ordinary window: 4 new segments."""
    _, sender, sent = eight_in_flight(variant)
    dupacks(sender, 3)
    del sent[:]
    ack(sender, 8)
    assert state(sender, sent) == {
        "cwnd": 4.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 8, "snd_nxt": 12, "sent": [8, 9, 10, 11],
    }


@every_variant
def test_retransmission_timeout_goes_back_to_one_segment(variant):
    """No ACK at all: the 3 s initial RTO fires once, halves ssthresh from
    the flight, resends 0 from cwnd 1 and doubles the timer."""
    sim, sender, sent = eight_in_flight(variant)
    sim.run(until=3.5)
    assert state(sender, sent) == {
        "cwnd": 1.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 0, "snd_nxt": 1, "sent": [0],
    }
    assert sender.timeouts == 1
    assert sender.rto_estimator.rto == 6.0


@recovering_variants
def test_timeout_in_recovery_abandons_it(variant):
    sim, sender, sent = eight_in_flight(variant)
    dupacks(sender, 3)
    assert sender.in_recovery
    del sent[:]
    sim.run(until=3.5)
    assert state(sender, sent) == {
        "cwnd": 1.0, "ssthresh": 4.0, "in_recovery": False,
        "snd_una": 0, "snd_nxt": 1, "sent": [0],
    }
    assert sender.recover == -1
    if variant == "sack":
        assert sender._sacked == set() and sender._pipe == 0
