"""Analysis layer: the paper's measurement methodology.

The smoothness and fairness metrics start from the send-rate time series
R_tau (Eq. 2), which :meth:`repro.net.monitor.FlowMonitor.rate_series`
bins from the monitor's columns.

* :mod:`~repro.analysis.cov` -- coefficient of variation of a rate series
  (the paper's smoothness metric, Figures 10/13/17).
* :mod:`~repro.analysis.equivalence` -- the equivalence ratio between two
  flows (Eq. 3, Figures 9/12/16).
* :mod:`~repro.analysis.bernoulli` -- loss fraction vs loss-event fraction
  under a Bernoulli loss model (section 3.5.1, Figure 5).
* :mod:`~repro.analysis.predictor` -- loss-predictor error methodology of
  section 4.4 (Figure 18).
* :mod:`~repro.analysis.stats` -- means, confidence intervals.
* :mod:`~repro.analysis.charts` -- plain-text line/bar/sparkline charts
  used by the experiment CLI's ``--plot`` mode.
"""

from repro.analysis.cov import coefficient_of_variation
from repro.analysis.equivalence import equivalence_ratio, equivalence_series
from repro.analysis.bernoulli import (
    loss_event_fraction_analytic,
    simulate_loss_event_fraction,
)
from repro.analysis.predictor import (
    predictor_errors,
    weighted_interval_predictor,
)
from repro.analysis.selfsimilarity import (
    expected_hurst_for_pareto,
    hurst_variance_time,
)
from repro.analysis.stats import (
    confidence_interval,
    jain_fairness_index,
    mean_and_ci,
)
from repro.analysis.charts import histogram, line_chart, sparkline

__all__ = [
    "coefficient_of_variation",
    "equivalence_series",
    "equivalence_ratio",
    "loss_event_fraction_analytic",
    "simulate_loss_event_fraction",
    "predictor_errors",
    "weighted_interval_predictor",
    "confidence_interval",
    "mean_and_ci",
    "jain_fairness_index",
    "hurst_variance_time",
    "expected_hurst_for_pareto",
    "line_chart",
    "histogram",
    "sparkline",
]
