"""The baseline rate-based protocol of the paper's related-work section
(section 5), the one it reports a simulated comparison against:

* :mod:`~repro.baselines.tfrcp` -- the model-based TCP-Friendly Rate Control
  Protocol of Padhye et al. (NOSSDAV'99): per-packet ACKs, loss rate computed
  over *fixed time intervals*, rate updated only at interval boundaries.
  The paper's criticism -- poor transient response at small timescales --
  is directly observable with the analysis tooling.

:class:`~repro.baselines.tfrcp.TfrcpSender` is a rate policy over
:class:`~repro.core.paced.PacedSender`; its per-packet
:class:`~repro.baselines.tfrcp.AckReceiver` keeps no congestion state.
"""

from repro.baselines.tfrcp import AckReceiver, TfrcpFlow, TfrcpSender

__all__ = [
    "AckReceiver",
    "TfrcpSender",
    "TfrcpFlow",
]
