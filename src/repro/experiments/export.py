"""CSV export of figure data.

Each experiment's result object can be flattened into one or more CSV
files, so the paper's figures can be re-plotted with any tool:

    tfrc-experiment fig02 --quick          # numbers on stdout
    python -m repro.experiments.export fig02 out/   # data as CSV

The writers are deliberately dependency-free (no pandas/matplotlib): plain
``csv`` module, one file per figure panel.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Callable, Dict, Iterable, List, Sequence


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write one CSV file, creating parent directories.  Returns ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def export_fig02(out_dir: str, duration: float = 16.0) -> List[str]:
    """Figure 2: loss-interval estimator time series (three panels)."""
    from repro.experiments import fig02_loss_interval as fig02

    result = fig02.run(duration=duration)
    rows = zip(
        result.times,
        result.current_interval,
        result.estimated_interval,
        result.loss_event_rate,
        result.tx_rate_bytes,
    )
    return [
        write_csv(
            os.path.join(out_dir, "fig02_loss_interval.csv"),
            ["time_s", "current_interval_pkts", "estimated_interval_pkts",
             "loss_event_rate", "tx_rate_bytes_per_s"],
            rows,
        )
    ]


def export_fig03(out_dir: str, duration: float = 40.0) -> List[str]:
    """Figures 3/4: send-rate series per buffer size, with/without damping."""
    from repro.experiments import fig03_oscillation as fig03

    paths = []
    for adjusted, label in ((False, "fig03"), (True, "fig04")):
        result = fig03.run(interpacket_adjustment=adjusted, duration=duration)
        for buffer_packets, series in result.rate_series.items():
            rows = ((i, rate) for i, rate in enumerate(series))
            paths.append(
                write_csv(
                    os.path.join(out_dir, f"{label}_buffer{buffer_packets}.csv"),
                    ["bin", "rate_kb_per_s"],
                    rows,
                )
            )
    return paths


def export_fig05(out_dir: str) -> List[str]:
    """Figure 5: loss-event fraction curves."""
    from repro.experiments import fig05_loss_event_fraction as fig05

    result = fig05.run(monte_carlo=False)
    header = ["p_loss"] + [
        f"p_event_x{multiplier}" for multiplier in sorted(result.p_event_by_multiplier)
    ]
    rows = []
    for index, p_loss in enumerate(result.p_loss_values):
        row = [p_loss] + [
            result.p_event_by_multiplier[multiplier][index]
            for multiplier in sorted(result.p_event_by_multiplier)
        ]
        rows.append(row)
    return [write_csv(os.path.join(out_dir, "fig05_loss_event_fraction.csv"), header, rows)]


def export_fig09(out_dir: str, runs: int = 2, duration: float = 60.0) -> List[str]:
    """Figures 9/10: equivalence and CoV vs timescale."""
    from repro.experiments import fig09_equivalence as fig09

    result = fig09.run(runs=runs, duration=duration, measure_seconds=duration * 2 / 3)
    rows = [
        (
            tau,
            result.equivalence_tfrc_tfrc[tau][0],
            result.equivalence_tcp_tcp[tau][0],
            result.equivalence_tfrc_tcp[tau][0],
            result.cov_tcp[tau][0],
            result.cov_tfrc[tau][0],
        )
        for tau in result.timescales
    ]
    return [
        write_csv(
            os.path.join(out_dir, "fig09_fig10_equivalence_cov.csv"),
            ["tau_s", "eq_tfrc_tfrc", "eq_tcp_tcp", "eq_tfrc_tcp",
             "cov_tcp", "cov_tfrc"],
            rows,
        )
    ]


def export_fig19(out_dir: str) -> List[str]:
    """Figure 19: allowed rate around the end of congestion."""
    from repro.experiments import fig19_increase as fig19

    result = fig19.run(duration=13.0)
    rows = zip(result.times, result.rate_pkts_per_rtt)
    return [
        write_csv(
            os.path.join(out_dir, "fig19_increase.csv"),
            ["time_s", "allowed_rate_pkts_per_rtt"],
            rows,
        )
    ]


def export_fig20(out_dir: str) -> List[str]:
    """Figures 20/21: halving trace and sweep."""
    from repro.experiments import fig20_halving as fig20

    halving = fig20.run()
    sweep = fig20.run_sweep()
    return [
        write_csv(
            os.path.join(out_dir, "fig20_halving.csv"),
            ["time_s", "allowed_rate_bytes_per_s"],
            zip(halving.times, halving.rates),
        ),
        write_csv(
            os.path.join(out_dir, "fig21_halving_sweep.csv"),
            ["drop_rate", "rtts_to_halve"],
            (
                (p, n if n is not None else "")
                for p, n in zip(sweep.drop_rates, sweep.rtts_to_halve)
            ),
        ),
    ]


EXPORTERS: Dict[str, Callable[..., List[str]]] = {
    "fig02": export_fig02,
    "fig03": export_fig03,
    "fig05": export_fig05,
    "fig09": export_fig09,
    "fig19": export_fig19,
    "fig20": export_fig20,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Export figure data as CSV.")
    parser.add_argument("experiment", choices=sorted(EXPORTERS) + ["all"])
    parser.add_argument("out_dir", help="directory to write CSV files into")
    args = parser.parse_args(argv)
    names = sorted(EXPORTERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        for path in EXPORTERS[name](args.out_dir):
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
