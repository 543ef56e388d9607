"""Multicast TFRC building blocks (paper section 6).

The paper argues that TFRC's receiver-side loss estimation and sender-side
rate adaptation "should be directly applicable to multicast", with three
additional problems to solve:

1. **Feedback implosion** -- the sender cannot take a report from every
   receiver each RTT.  :mod:`~repro.multicast.suppression` implements
   biased exponential feedback timers: receivers whose calculated rate is
   lower fire earlier, and a report from a receiver with a lower rate
   suppresses everyone else's pending reports.
2. **Slow start without timely feedback** -- the multicast sender uses a
   more conservative start (no doubling past the first loss report from
   *any* receiver).
3. **RTT estimation without synchronized clocks** -- receivers here measure
   a one-way-delay-change proxy seeded by an initial unicast-style
   handshake.

The deliverable is a working single-source, N-receiver TFRC-style session
(:class:`~repro.multicast.session.MulticastTfrcSession`): the sender tracks
the *minimum* allowed rate over receiver reports, scalably.
"""

from repro.multicast.suppression import FeedbackSuppression
from repro.multicast.receiver import MulticastReceiver
from repro.multicast.sender import MulticastTfrcSender
from repro.multicast.session import MulticastTfrcSession

__all__ = [
    "FeedbackSuppression",
    "MulticastReceiver",
    "MulticastTfrcSender",
    "MulticastTfrcSession",
]
