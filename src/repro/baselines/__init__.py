"""Baseline rate-based congestion-control protocols from the paper's
related-work section (section 5), used for comparative experiments:

* :mod:`~repro.baselines.tfrcp` -- the model-based TCP-Friendly Rate Control
  Protocol of Padhye et al. (NOSSDAV'99): per-packet ACKs, loss rate computed
  over *fixed time intervals*, rate updated only at interval boundaries.
  The paper's criticism -- poor transient response at small timescales --
  is directly observable with the analysis tooling.
* :mod:`~repro.baselines.rap` -- the Rate Adaptation Protocol of Rejaie,
  Handley, Estrin (INFOCOM'99): AIMD applied to a sending rate rather than a
  window, with per-ACK loss detection.  Pure AIMD protocols do not model
  retransmission timeouts, so they coexist less well with TCP when timeouts
  dominate.
* :mod:`~repro.baselines.tear` -- TCP Emulation At the Receivers (Ozdemir &
  Rhee): the receiver emulates TCP's window and reports
  ``EWMA(cwnd)/RTT`` as the sending rate.

All three senders are rate policies over
:class:`~repro.core.paced.PacedSender`; TFRCP and RAP share the per-packet
:class:`~repro.baselines.ack.AckReceiver`.
"""

from repro.baselines.ack import AckReceiver
from repro.baselines.tfrcp import TfrcpFlow, TfrcpSender
from repro.baselines.rap import RapFlow, RapSender
from repro.baselines.tear import TearFlow, TearReceiver, TearSender

__all__ = [
    "AckReceiver",
    "TfrcpSender",
    "TfrcpFlow",
    "RapSender",
    "RapFlow",
    "TearSender",
    "TearReceiver",
    "TearFlow",
]
