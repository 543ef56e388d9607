"""Background traffic generators.

* :mod:`~repro.traffic.cbr` -- constant bit rate UDP source.
* :mod:`~repro.traffic.onoff` -- Pareto ON/OFF UDP sources: the paper's
  self-similar web-like background traffic (section 4.1.3, citing
  Willinger et al. 1995).
* :mod:`~repro.traffic.web` -- short TCP connections ("mice") arriving as a
  Poisson process, used for the 20% background load in Figure 14.
"""

from repro.traffic.cbr import CbrSource
from repro.traffic.onoff import OnOffSource
from repro.traffic.web import WebTrafficSource

__all__ = ["CbrSource", "OnOffSource", "WebTrafficSource"]
