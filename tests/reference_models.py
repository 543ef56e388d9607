"""Per-packet recomputations of what ``REDQueue.enqueue``, ``TCPSink`` and
``SackSender`` maintain incrementally, and the first, copy-everything form
of a spec's canonical JSON; the fuzzers compare the two."""

import copy
import hashlib
import json

from repro.net.redmath import red_drop_probability, red_ewma, red_uniformized


def spec_canonical_reference(spec):
    """``(canonical_json, spec_hash)`` of ``spec`` as first written: strict
    key-sorted ``json.dumps`` over a ``copy.deepcopy`` of every group."""
    data = {"scenario": spec.scenario, "seed": spec.seed, "duration": spec.duration}
    for name in ("topology", "flows", "queue", "loss", "extra"):
        data[name] = copy.deepcopy(dict(getattr(spec, name)))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def red_reference(ops, capacity, params, rng, packet_time, ecn=False):
    """``(verdict, average)`` per enqueue for a RED queue driven by ``ops``:
    ``(now, ecn_capable)`` enqueues and ``(now, None)`` dequeues."""
    qlen, avg, count, idle_since, out = 0, 0.0, -1, None, []
    for now, ect in ops:
        if ect is None:
            if qlen == 1:
                idle_since = now
            qlen -= qlen > 0
            continue
        if qlen:
            avg = red_ewma(params.weight, avg, qlen)
        else:
            idle = 0.0 if idle_since is None else max(0.0, now - idle_since)
            avg *= (1.0 - params.weight) ** (idle / packet_time)
            idle_since = now
        p_b = red_drop_probability(params, avg)
        forced = qlen >= capacity or p_b >= 1.0
        trial = not forced and p_b > 0.0  # in the marking region: draw
        count = 0 if forced else count + 1 if trial else -1
        hit = trial and rng.random() < red_uniformized(p_b, count)
        count = 0 if hit else count
        verdict = ("mark" if ecn and ect else "early") if hit else "accept"
        out.append(("forced" if forced else verdict, avg))
        qlen += out[-1][0] in ("accept", "mark")
    return out


def sack_reference(arrivals, max_blocks=3):
    """``(cumack, echo_seq, sack_blocks)`` per arrival plus the duplicate
    count, from a plain set of held seqs regrouped on every ACK."""
    held, recency, expected, duplicates, acks = set(), {}, 0, 0, []
    for tick, seq in enumerate(arrivals, 1):
        duplicates += seq < expected or seq in held
        if seq >= expected:
            held.add(seq)
            recency[seq] = tick  # a duplicate of held data is news again
        while expected in held:
            held.discard(expected)
            expected += 1
        blocks = []  # (newest member's tick, start, end), in seq order
        for s in sorted(held):
            if blocks and blocks[-1][2] == s:
                blocks[-1] = (max(blocks[-1][0], recency[s]), blocks[-1][1], s + 1)
            else:
                blocks.append((recency[s], s, s + 1))
        blocks.sort(reverse=True)  # RFC 2018: most recently received first
        acks.append((expected, seq, tuple(b[1:] for b in blocks[:max_blocks])))
    return acks, duplicates


def sack_scoreboard_reference(steps, snd_nxt, cwnd):
    """``(scoreboard, pipe, seqs sent)`` per ``(snd_una, in_recovery,
    blocks)`` step: SACKed seqs filtered one at a time, and during recovery
    the oldest hole re-derived from the whole scoreboard before every
    transmission (holes first, then new data)."""
    sacked, retransmitted, pipe, out = set(), set(), 0, []
    for snd_una, in_recovery, blocks in steps:
        before = len(sacked)
        sacked |= {
            seq for block in blocks for seq in range(*block) if seq >= snd_una
        }
        sent = []
        if in_recovery:
            pipe = max(0, pipe - (len(sacked) - before))
        while in_recovery and pipe < cwnd:
            hole = next((
                seq for seq in range(snd_una, max(sacked, default=0))
                if seq not in sacked and seq not in retransmitted
            ), None)
            if hole is None:
                hole, snd_nxt = snd_nxt, snd_nxt + 1  # none left: new data
            else:
                retransmitted.add(hole)
            sent.append(hole)
            pipe += 1
        out.append((sorted(sacked), pipe, sent))
    return out
