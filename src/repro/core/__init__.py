"""TFRC: the paper's primary contribution.

* :mod:`~repro.core.equations` -- the TCP response function (paper Eq. 1,
  from Padhye et al. 1998), the simple deterministic response function used
  by the appendix analysis, and numeric inversion (rate -> loss rate) used to
  seed the loss history after slow start.
* :mod:`~repro.core.loss_intervals` -- the Average Loss Interval estimator
  with history discounting (section 3.3), plus the two rejected alternatives
  (EWMA Loss Interval, Dynamic History Window) for comparison experiments.
* :mod:`~repro.core.loss_events` -- receiver-side loss-event detection with
  round-trip-time coalescing (section 3.5.1).
* :mod:`~repro.core.receiver` -- feedback generation: loss event rate p,
  receive rate, RTT echo (section 3.3).
* :mod:`~repro.core.paced` -- :class:`PacedSender`, the pacing / RTT /
  lifecycle mechanism and the single ``_set_rate`` choke point that TFRC
  and the section-5 baseline TFRCP share.
* :mod:`~repro.core.sender` -- rate adaptation driven by the control
  equation: RTT smoothing, slow start with the receive-rate cap, the
  no-feedback timer, and the sqrt-RTT interpacket-spacing adjustment
  (sections 3.2, 3.4).
* :mod:`~repro.core.agent` -- :class:`TfrcFlow`, wiring one sender/receiver
  pair over a pair of network ports.
"""

from repro.core.equations import (
    DELTA_T_SIMPLE_BOUND,
    analytic_rate_increase,
    invert_response,
    simple_response_rate,
    tcp_response_rate,
)
from repro.core.loss_intervals import (
    ALI_DEFAULT_WEIGHTS,
    AverageLossIntervals,
    DynamicHistoryWindow,
    EwmaLossIntervals,
)
from repro.core.loss_events import LossEventDetector, LossEvent
from repro.core.receiver import TfrcFeedback, TfrcReceiver
from repro.core.sender import TfrcDataInfo, TfrcSender
from repro.core.agent import TfrcFlow

__all__ = [
    "tcp_response_rate",
    "simple_response_rate",
    "invert_response",
    "analytic_rate_increase",
    "DELTA_T_SIMPLE_BOUND",
    "AverageLossIntervals",
    "EwmaLossIntervals",
    "DynamicHistoryWindow",
    "ALI_DEFAULT_WEIGHTS",
    "LossEventDetector",
    "LossEvent",
    "TfrcReceiver",
    "TfrcFeedback",
    "TfrcSender",
    "TfrcDataInfo",
    "TfrcFlow",
]
