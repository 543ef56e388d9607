#!/usr/bin/env python3
"""Compare two ``bench/out/result.json`` files, metric by metric.

``python3 bench/compare.py A.json B.json`` prints, for every end-to-end
metric of every workload, both medians with their quartiles, the ratio
B / A (base: A), the bound and a verdict:

``ok``
    B's median is no worse than A's by more than the bound.
``worse``
    it is, and the run-to-run spread is narrow enough to say so.
``unresolved``
    the quartile spread of A or of B is wider than the bound, so the
    samples cannot tell; unless every sample of B is better than every
    sample of A, which is ``ok`` whatever the spread.

A ``failed_frac`` above 0 on either side is ``worse``: its bound is 0.
Exits 1 if any row is ``worse`` or ``unresolved``.

Bounds are per (metric, workload): ``bench/bounds.json`` holds the ones
tighter than the single per-metric bound ``BENCHMARK.json`` can express,
each beside the measured spread that sets it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from timing import quartiles, spread  # noqa: E402

BOUNDS = Path(__file__).resolve().parent / "bounds.json"


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for samples ``a`` (base) and ``b``."""
    qa, qb = quartiles(a), quartiles(b)
    lower = better == "lower"
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "ok"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    if lower:
        worse = qb["median"] > qa["median"] * (1.0 + bound)
    else:
        worse = qb["median"] < qa["median"] * (1.0 - bound)
    return "worse" if worse else "ok"


def bound_for(
    metric: Dict[str, Any], workload: str, overrides: Dict[str, Any]
) -> float:
    per_workload = overrides.get(metric["name"], {})
    return float(per_workload.get(workload, {}).get("bound", metric["bound"]))


def compare(
    a: Dict[str, Any], b: Dict[str, Any], overrides: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both results."""
    overrides = overrides or {}
    rows = []
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            continue
        for metric in a["end_to_end"]:
            name = metric["name"]
            if name not in in_a["end_to_end"] or name not in in_b["end_to_end"]:
                continue
            sa = in_a["end_to_end"][name]["samples"]
            sb = in_b["end_to_end"][name]["samples"]
            bound = bound_for(metric, workload, overrides)
            qa, qb = quartiles(sa), quartiles(sb)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": qa, "b": qb, "bound": bound,
                "ratio": qb["median"] / qa["median"] if qa["median"] else 0.0,
                "verdict": verdict(sa, sb, metric["better"], bound),
            })
        fa, fb = in_a.get("failed_frac", 0.0), in_b.get("failed_frac", 0.0)
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "fraction",
            "a": {"median": fa, "q1": fa, "q3": fa, "n": 1},
            "b": {"median": fb, "q1": fb, "q3": fb, "n": 1},
            "bound": 0.0, "ratio": 0.0,
            "verdict": "worse" if fa > 0 or fb > 0 else "ok",
        })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    def cell(q: Dict[str, float]) -> str:
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}] n={q['n']}"

    lines = [
        f"{'workload':22s} {'metric':12s} {'A median [q1, q3]':34s} "
        f"{'B median [q1, q3]':34s} {'B/A':>6s} {'bound':>6s} verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['metric']:12s} {cell(row['a']):34s} "
            f"{cell(row['b']):34s} {row['ratio']:6.3f} {row['bound']:6.2f} "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    overrides = {}
    if BOUNDS.exists():
        with open(BOUNDS, encoding="utf-8") as fh:
            overrides = json.load(fh)["bounds"]
    rows = compare(loaded[0], loaded[1], overrides)
    print(render(rows))
    return 1 if any(row["verdict"] != "ok" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
