"""Timescale-keyed maps in a sweep cell's JSON result.

Figures 9-13 and 15-17 keep one ``{tau: value}`` map per measure.  JSON
object keys are strings, so a cell keys each map by ``repr(tau)``, which
``float`` reads back exactly.
"""

from typing import Sequence

from repro.scenarios.spec import JsonDict

#: the maps fig11's and the internet paths' results key by timescale.
TAU_MAPS = ("equivalence_by_tau", "cov_tcp_by_tau", "cov_tfrc_by_tau")


def tau_maps_to_json(data: JsonDict, names: Sequence[str]) -> JsonDict:
    """``data`` with each map in ``names`` keyed by ``repr(tau)``."""
    return {
        **data,
        **{name: {repr(t): v for t, v in data[name].items()} for name in names},
    }


def tau_maps_from_json(data: JsonDict, names: Sequence[str]) -> JsonDict:
    """``data`` with each map in ``names`` keyed by ``float(tau)`` again."""
    return {
        **data,
        **{name: {float(t): v for t, v in data[name].items()} for name in names},
    }
