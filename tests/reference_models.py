"""Per-packet recomputations of what ``REDQueue.enqueue``, ``TCPSink``,
``SackSender`` and the TFRC receiver's loss event rate maintain
incrementally, the first, copy-everything form of a spec's canonical JSON
and the first form of a cache entry's checksum, and the first, per-arrival
loop that binned a rate series; the fuzzers compare the two."""

import copy
import hashlib
import json

import numpy as np

from repro.core.equations import invert_response
from repro.core.loss_intervals import ALI_DEFAULT_WEIGHTS as ALI_WEIGHTS
from repro.net.redmath import red_drop_probability, red_ewma, red_uniformized


def spec_canonical_reference(spec):
    """``(canonical_json, spec_hash)`` of ``spec`` as first written: strict
    key-sorted ``json.dumps`` over a ``copy.deepcopy`` of every group."""
    data = {"scenario": spec.scenario, "seed": spec.seed, "duration": spec.duration}
    for name in ("topology", "flows", "queue", "loss", "extra"):
        data[name] = copy.deepcopy(dict(getattr(spec, name)))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def entry_checksum_reference(spec_dict, result):
    """A cache entry's checksum as first written: sha256 over one strict
    key-sorted ``json.dumps`` of ``{"result": ..., "spec": ...}``."""
    text = json.dumps(
        {"result": result, "spec": spec_dict},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def newest_effective_weight(ali):
    """Normalized weight of the newest information in ``ali``'s average
    (an ``AverageLossIntervals``): w1 / sum(w) = 1/6 for n = 8 without
    discounting; with maximum discounting it approaches
    1 / (1 + floor * (sum(w) - 1)) ~ 0.4 (paper Appendix A.1)."""
    if not ali.history:
        return 1.0
    discount = ali._current_discount()
    shifted = [1.0] + [d * discount for d in ali.discounts][: ali.n - 1]
    weights = [w * d for w, d in zip(ali.weights, shifted)]
    total = sum(weights)
    return weights[0] / total if total else 1.0


def loss_event_rate_reference(arrivals, size=1000):
    """The TFRC receiver's ``p`` after ``(seq, time, rtt)`` arrivals in any
    order, duplicates included (a seq later than three newer ones stays
    lost; every arrival counts in the receive rate): NDUPACK = 3, section
    5.2 loss times, one event per RTT (0 before a sample), the synthetic
    first interval, WALI with discounting."""
    w, holes, hist, disc, got, start = ALI_WEIGHTS, {}, [], [], [], None
    s0, nxt, last_t, last_s = 0.0, 0, None, None  # open interval, arrivals
    def fold(h, d):
        return sum(a * b * c for a, b, c in zip(w, d, h)) / sum(a * b for a, b in zip(w, d))

    def discount():
        raw = fold(hist, [1.0] * len(hist)) if hist else 0.0
        return max(0.3, 2 * raw / s0) if hist and s0 > 2 * raw > 0 else 1.0

    for seq, now, rtt in arrivals:
        got.append(now)
        before = last_s - start[1] if start else len(got) - 1
        for h in holes.values():
            h[1] += seq > nxt - 1
        holes.pop(seq, None)
        for m in range(nxt, seq):  # the gap this arrival opens
            ps, pt = (last_s, last_t) if last_s is not None else (nxt - 1, now)
            holes[m] = [pt + (m - ps) / max(1, seq - ps) * (now - pt), 1]
        nxt, last_t, last_s = max(nxt, seq + 1), now, max(last_s or 0, seq)
        for m in sorted(s for s, h in holes.items() if h[1] >= 3):
            t = holes.pop(m)[0]
            if start and t < start[0] + max(0.0, rtt):
                continue
            if not start:  # first event: seed the synthetic interval
                rate = sum(size for a in got if a >= now - max(rtt, 0.05)) / max(rtt, 0.05)
                p0 = invert_response(size, max(rtt, 1e-3), rate / 2, 4 * max(rtt, 1e-3))
                hist, disc, s0 = ([max(1.0, 1 / p0)], [1.0], 0.0) if p0 > 0 else ([], [], s0)
            d = discount()
            hist, disc = [max(1.0, m - start[1] if start else m)] + hist[:7], [1.0] + [x * d for x in disc][:7]
            start, s0 = (t, m), 0.0
        after = last_s - start[1] if start else len(got)
        s0 += (after - before if after > before else 0) if start else 1
    d = discount()
    avg = max(fold(hist, [x * d for x in disc]), fold([s0] + hist[:7], [1.0] + [x * d for x in disc][:7])) if hist else 0.0
    return min(1.0, 1 / avg) if avg > 0 else 0.0


def rate_series_reference(arrivals, t0, t1, tau):
    """Bin (time, bytes) arrival events into a bytes/second rate series:
    ``floor((t1-t0)/tau)`` bins over [t0, t1), one Python step per arrival
    (what ``FlowMonitor.rate_series`` computes from its columns)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    n_bins = int((t1 - t0) / tau)
    if n_bins == 0:
        raise ValueError("window shorter than one timescale bin")
    binned = np.zeros(n_bins)
    end, last = t0 + n_bins * tau, n_bins - 1
    for time, size in arrivals:
        if time < t0 or time >= end:
            continue
        # An ulp below ``end`` the quotient can round up to ``n_bins``.
        binned[min(int((time - t0) / tau), last)] += size
    return binned / tau
