"""Correlated (bursty) packet loss.

:mod:`repro.net.path` defines the ``LossModel`` callable contract --
``(packet, now) -> dropped?`` -- and the simple Bernoulli / periodic /
scheduled models the protocol-mechanics figures need.  This module adds
:class:`GilbertElliottLoss`, the classic two-state Markov loss model: real
Internet paths drop packets in bursts (router buffer overflows hit
consecutive arrivals, as the paper's section 4.3 experiments observed), and
Gilbert-Elliott captures this with a GOOD state (low loss) and a BAD state
(high loss) with geometric sojourn times.  ``examples/bursty_loss_study.py``
(the section 3.5.1 demo) drives it through :func:`gilbert_elliott_from_rate`.

The model is deterministic given its ``numpy`` Generator, preserving the
repository-wide reproducibility guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import Packet


class GilbertElliottLoss:
    """Two-state Markov (Gilbert-Elliott) packet loss model.

    The chain has a GOOD and a BAD state.  On each data packet the model
    first makes a state transition, then drops the packet with the loss
    probability of the current state.

    Args:
        p_good_to_bad: transition probability GOOD -> BAD per packet.
        p_bad_to_good: transition probability BAD -> GOOD per packet.
        loss_good: drop probability while in GOOD (often 0 or tiny).
        loss_bad: drop probability while in BAD (often large, e.g. 0.5).
        rng: numpy random generator (seeded by the caller).

    The stationary probability of being in BAD is
    ``p_good_to_bad / (p_good_to_bad + p_bad_to_good)``, giving a long-run
    loss rate of ``pi_good * loss_good + pi_bad * loss_bad`` (verified by
    property tests).
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float,
        loss_bad: float,
        rng: np.random.Generator,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if p_good_to_bad + p_bad_to_good == 0:
            raise ValueError("the chain must be able to change state")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.rng = rng
        self.in_bad_state = False
        self.packets_seen = 0
        self.packets_dropped = 0

    def __call__(self, packet: Packet, now: float) -> bool:
        if not packet.is_data:
            return False
        self.packets_seen += 1
        if self.in_bad_state:
            if self.rng.random() < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if self.rng.random() < self.p_good_to_bad:
                self.in_bad_state = True
        loss_p = self.loss_bad if self.in_bad_state else self.loss_good
        dropped = bool(self.rng.random() < loss_p)
        if dropped:
            self.packets_dropped += 1
        return dropped


def gilbert_elliott_from_rate(
    target_loss_rate: float,
    mean_burst_length: float,
    rng: np.random.Generator,
) -> GilbertElliottLoss:
    """Construct a Gilbert-Elliott model from observable quantities.

    ``target_loss_rate`` is the desired long-run loss fraction and
    ``mean_burst_length`` the average number of *consecutive* drops.  The
    GOOD state is lossless; the BAD state drops every packet, so the burst
    length equals the BAD sojourn, giving ``p_bad_to_good = 1 /
    mean_burst_length`` and ``pi_bad = target_loss_rate``.
    """
    if not 0 < target_loss_rate < 1:
        raise ValueError("target_loss_rate must be in (0, 1)")
    if mean_burst_length < 1:
        raise ValueError("mean_burst_length must be >= 1")
    pi_bad = target_loss_rate
    p_bad_to_good = 1.0 / mean_burst_length
    p_good_to_bad = p_bad_to_good * pi_bad / (1.0 - pi_bad)
    return GilbertElliottLoss(
        p_good_to_bad=p_good_to_bad,
        p_bad_to_good=p_bad_to_good,
        loss_good=0.0,
        loss_bad=1.0,
        rng=rng,
    )
