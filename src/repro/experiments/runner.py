"""CLI: run a paper experiment by figure id and print its headline numbers.

Usage::

    tfrc-experiment fig02
    tfrc-experiment fig06 --quick
    tfrc-experiment all --quick
    tfrc-experiment fig09 --plot     # append a text chart of the figure
                                     # (fig02, fig05, fig09, fig18, fig20)
    tfrc-experiment fig06 --parallel 1   # in this process (the default is
                                         # one worker process per CPU)

Each figure id is one row of :data:`FIGURES`.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Any, Callable, Dict, NamedTuple, Optional


class Figure(NamedTuple):
    """One figure id: the entry point that runs it (a dotted path, imported
    only when the figure runs), its keyword sets at the ``--quick`` and
    full scales, and what prints its result and its ``--plot`` chart."""

    run: str
    quick: Dict[str, Any]
    full: Dict[str, Any]
    report: Callable[[Any], None]
    chart: Optional[Callable[[Any], None]] = None

    def entry(self) -> Callable[..., Any]:
        """The entry point ``run`` names, its module imported now."""
        module, _, name = self.run.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _fig02(result) -> None:
    from repro.experiments.fig02_loss_interval import summarize

    print("Figure 2 (Average Loss Interval under periodic loss)")
    for key, value in summarize(result).items():
        print(f"  {key:28s} {value:.4f}")


def _fig02_chart(result) -> None:
    from repro.analysis.charts import line_chart, sparkline

    print(line_chart(
        {
            "current interval s0": list(zip(result.times, result.current_interval)),
            "estimated interval": list(zip(result.times, result.estimated_interval)),
        },
        title="Fig 2 (top): loss intervals",
        x_label="time (s)", y_label="packets",
    ))
    print()
    print("TX rate trace: " + sparkline(result.tx_rate_bytes, width=64))


def _fig03(results) -> None:
    plain, damped = results
    print("Figures 3/4 (oscillation CoV without -> with interpacket adjustment)")
    for b in plain.buffer_sizes:
        print(
            f"  buffer {b:3d}: {plain.cov_by_buffer[b]:.3f} -> "
            f"{damped.cov_by_buffer[b]:.3f}"
        )


def _fig05(result) -> None:
    print("Figure 5 (loss-event fraction vs loss probability)")
    for multiplier in sorted(result.p_event_by_multiplier):
        gap = result.max_relative_gap(multiplier)
        print(f"  rate x{multiplier:3.1f}: max (p_loss-p_event)/p_loss = {gap:.3f}")


def _fig05_chart(result) -> None:
    from repro.analysis.charts import line_chart

    series = {"y=x": [(p, p) for p in result.p_loss_values]}
    for multiplier, curve in sorted(result.p_event_by_multiplier.items()):
        series[f"rate x{multiplier:g}"] = list(zip(result.p_loss_values, curve))
    print(line_chart(series, title="Fig 5: loss-event fraction",
                     x_label="loss probability",
                     y_label="loss-event fraction"))


def _fig06(result) -> None:
    print("Figure 6 (normalized TCP throughput vs TFRC)")
    for cell in result.cells:
        print(
            f"  {cell.queue_type:8s} {cell.link_bps/1e6:5.0f}Mb/s "
            f"{cell.total_flows:4d} flows: TCP {cell.mean_tcp_normalized:.2f} "
            f"TFRC {cell.mean_tfrc_normalized:.2f} util {cell.utilization:.2f}"
        )


def _fig08(results) -> None:
    for queue_type, result in results.items():
        print(
            f"Figure 8 ({queue_type}): mean CoV at 0.15s -- "
            f"TCP {result.mean_cov_tcp:.2f}, TFRC {result.mean_cov_tfrc:.2f}"
        )


def _fig09(result) -> None:
    print("Figure 9 (equivalence ratio) / Figure 10 (CoV)")
    print("  tau    TFRC/TFRC  TCP/TCP  TFRC/TCP  CoV(TCP)  CoV(TFRC)")
    for tau in result.timescales:
        ee, _ = result.equivalence_tfrc_tfrc[tau]
        cc, _ = result.equivalence_tcp_tcp[tau]
        ec, _ = result.equivalence_tfrc_tcp[tau]
        ct, _ = result.cov_tcp[tau]
        cf, _ = result.cov_tfrc[tau]
        print(f"  {tau:5.1f}  {ee:9.2f}  {cc:7.2f}  {ec:8.2f}  {ct:8.2f}  {cf:9.2f}")


def _fig09_chart(result) -> None:
    from repro.analysis.charts import line_chart

    taus = list(result.timescales)
    print(line_chart(
        {
            "TFRC vs TFRC": [(t, result.equivalence_tfrc_tfrc[t][0]) for t in taus],
            "TCP vs TCP": [(t, result.equivalence_tcp_tcp[t][0]) for t in taus],
            "TFRC vs TCP": [(t, result.equivalence_tfrc_tcp[t][0]) for t in taus],
        },
        title="Fig 9: equivalence ratio", log_x=True,
        x_label="timescale (s)", y_label="equivalence",
    ))
    print()
    print(line_chart(
        {
            "TFRC": [(t, result.cov_tfrc[t][0]) for t in taus],
            "TCP": [(t, result.cov_tcp[t][0]) for t in taus],
        },
        title="Fig 10: coefficient of variation", log_x=True,
        x_label="timescale (s)", y_label="CoV",
    ))


def _fig11(result) -> None:
    print("Figures 11-13 (ON/OFF background traffic)")
    for run_result in result.runs:
        eq = run_result.equivalence_by_tau
        longest = max(eq) if eq else None
        eq_long = eq[longest] if longest else float("nan")
        print(
            f"  {run_result.sources:4d} sources: loss {run_result.loss_rate:.3f}, "
            f"equivalence@{longest}s {eq_long:.2f}"
        )


def _fig14(result) -> None:
    print("Figure 14 (queue dynamics, 40 long-lived flows)")
    for res in (result.tcp, result.tfrc):
        print(
            f"  {res.protocol:5s}: drop {res.drop_rate:.3f} util {res.utilization:.3f} "
            f"queue mean {res.mean_queue:.1f} +- {res.queue_std:.1f}"
        )


def _fig15(results) -> None:
    result = results["ucl"]
    print("Figure 15 (3 TCP + 1 TFRC over the synthetic UCL path)")
    mean_tcp = sum(result.tcp_throughputs_bps) / len(result.tcp_throughputs_bps)
    print(f"  TFRC {result.tfrc_throughput_bps/1e3:.0f} kb/s, TCP mean {mean_tcp/1e3:.0f} kb/s")
    print(f"  loss rate {result.loss_rate:.3f}")


def _fig16(results) -> None:
    print("Figures 16/17 (Internet paths): equivalence / CoV at tau=10s")
    for name, res in results.items():
        tau = max(res.equivalence_by_tau)
        print(
            f"  {name:14s} eq {res.equivalence_by_tau[tau]:.2f} "
            f"cov_tcp {res.cov_tcp_by_tau[tau]:.2f} cov_tfrc {res.cov_tfrc_by_tau[tau]:.2f}"
        )


def _fig18(result) -> None:
    print("Figure 18 (loss predictor error)")
    print("  history  constant        decreasing")
    for h in result.history_sizes:
        c_mean, c_std = result.constant_weights[h]
        d_mean, d_std = result.decreasing_weights[h]
        print(f"  {h:7d}  {c_mean:.4f}+-{c_std:.4f}  {d_mean:.4f}+-{d_std:.4f}")


def _fig18_chart(result) -> None:
    from repro.analysis.charts import histogram

    labels = [f"const n={h}" for h in result.history_sizes]
    labels += [f"decr  n={h}" for h in result.history_sizes]
    values = [result.constant_weights[h][0] for h in result.history_sizes]
    values += [result.decreasing_weights[h][0] for h in result.history_sizes]
    print(histogram(labels, values, title="Fig 18: mean predictor error"))


def _fig19(result) -> None:
    from repro.experiments.fig19_increase import analytic_bounds

    normal = result.max_increment(result.loss_stop_time + 0.5, result.loss_stop_time + 1.4)
    discounted = result.max_increment(result.loss_stop_time + 1.5, result.times[-1])
    print("Figure 19 (bounded increase rate)")
    print(f"  observed increase (normal):     {normal:.3f} pkts/RTT (paper ~0.12)")
    print(f"  observed increase (discounted): {discounted:.3f} pkts/RTT (paper <=0.29)")
    print(f"  analytic bounds: {analytic_bounds()}")


def _fig20(results) -> None:
    halving, fig21 = results
    print(f"Figure 20: RTTs to halve under persistent congestion = {halving.rtts_to_halve()}")
    print("Figure 21: drop rate -> RTTs to halve")
    for p, n in zip(fig21.drop_rates, fig21.rtts_to_halve):
        print(f"  p={p:.3f}: {n if n is not None else 'not halved'}")


def _fig20_chart(results) -> None:
    from repro.analysis.charts import line_chart

    points = results[1].defined()
    print(line_chart({"RTTs to halve": points},
                     title="Fig 21: response to persistent congestion",
                     x_label="packet drop rate", y_label="RTTs"))


FIGURES: Dict[str, Figure] = {
    "fig02": Figure(
        "repro.experiments.fig02_loss_interval.run", quick=dict(duration=12.0),
        full=dict(duration=16.0), report=_fig02, chart=_fig02_chart,
    ),
    "fig03": Figure(
        "repro.experiments.fig03_oscillation.run_both",
        quick=dict(buffer_sizes=(8, 32), duration=30.0),
        full=dict(buffer_sizes=(2, 8, 32, 64), duration=60.0), report=_fig03,
    ),
    "fig05": Figure(
        "repro.experiments.fig05_loss_event_fraction.run",
        quick=dict(monte_carlo=False), full=dict(monte_carlo=True),
        report=_fig05, chart=_fig05_chart,
    ),
    "fig06": Figure(
        "repro.experiments.fig06_fairness_grid.run",
        quick=dict(link_rates_mbps=(8, 16), flow_counts=(8, 32), duration=60.0),
        full=dict(
            link_rates_mbps=(1, 2, 4, 8, 16, 32, 64),
            flow_counts=(2, 8, 32, 128), duration=90.0,
        ),
        report=_fig06,
    ),
    "fig08": Figure(
        "repro.experiments.fig08_smoothness.run", quick=dict(duration=20.0),
        full=dict(duration=30.0), report=_fig08,
    ),
    "fig09": Figure(
        "repro.experiments.fig09_equivalence.run",
        quick=dict(runs=2, duration=60.0, measure_seconds=40.0),
        full=dict(runs=14, duration=150.0, measure_seconds=100.0),
        report=_fig09, chart=_fig09_chart,
    ),
    "fig11": Figure(
        "repro.experiments.fig11_onoff.run",
        quick=dict(source_counts=(60, 100), duration=100.0),
        full=dict(source_counts=(50, 60, 100, 130, 150), duration=200.0),
        report=_fig11,
    ),
    "fig14": Figure(
        "repro.experiments.fig14_queue_dynamics.run", quick=dict(duration=20.0),
        full=dict(duration=30.0), report=_fig14,
    ),
    "fig15": Figure(
        "repro.experiments.internet.run_all",
        quick=dict(paths=("ucl",), duration=60.0),
        full=dict(paths=("ucl",), duration=120.0), report=_fig15,
    ),
    "fig16": Figure(
        "repro.experiments.internet.run_all", quick=dict(duration=60.0),
        full=dict(duration=120.0), report=_fig16,
    ),
    "fig18": Figure(
        "repro.experiments.fig18_predictor.run", quick=dict(duration=80.0),
        full=dict(duration=150.0), report=_fig18, chart=_fig18_chart,
    ),
    "fig19": Figure(
        "repro.experiments.fig19_increase.run", quick=dict(duration=13.0),
        full=dict(duration=13.0), report=_fig19,
    ),
    "fig20": Figure(
        "repro.experiments.fig20_halving.run_both",
        quick=dict(initial_periods=(100, 10)),
        full=dict(initial_periods=(200, 100, 50, 25, 10, 5, 4)),
        report=_fig20, chart=_fig20_chart,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``tfrc-experiment`` argument parser."""
    from repro.scenarios.executors import EXECUTOR_NAMES, directory, positive

    parser = argparse.ArgumentParser(
        description="Reproduce a figure from the TFRC paper."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(FIGURES) + ["all"],
        help="figure id (fig02..fig20) or 'all'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced durations/sweeps"
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="append a plain-text chart of the figure (%s; the other "
        "figures accept the flag and ignore it)"
        % ", ".join(name for name, row in sorted(FIGURES.items()) if row.chart),
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run sweep cells on N worker processes (every figure; default: "
        "one per CPU this process may use; 1 = stay in this process); with "
        "--executor queue, N locally spawned tfrc-sweep-worker processes "
        "(0 = rely on externally started workers only)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=".tfrc-sweep-cache", default=None,
        type=directory, metavar="DIR",
        help="cache sweep cell results on disk (default dir: "
        ".tfrc-sweep-cache); cached cells are not re-simulated",
    )
    parser.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="sweep execution backend (default: a process pool of "
        "--parallel workers; serial when that is 1 or one cell is left to "
        "run); 'queue' coordinates tfrc-sweep-worker processes -- "
        "including on other hosts -- through --queue-dir; "
        "'vector' advances compatible cells in lockstep numpy batches "
        "(cells it cannot batch fall back to scalar with a warning)",
    )
    parser.add_argument(
        "--queue-dir", default=None, type=directory, metavar="DIR",
        help="shared queue directory for --executor queue (results default "
        "to DIR/results unless --cache is given)",
    )
    parser.add_argument(
        "--lease-timeout", type=positive(float), default=60.0, metavar="S",
        help="(--executor queue) reclaim a cell whose worker has not "
        "heartbeaten for S seconds (default: 60)",
    )
    parser.add_argument(
        "--max-attempts", type=positive(int), default=3, metavar="N",
        help="(--executor queue) retry budget per cell spanning errors, "
        "timeouts, and lease expiries; an exhausted cell is dead-lettered "
        "to the queue's quarantine/ directory (default: 3)",
    )
    parser.add_argument(
        "--on-poison", choices=("raise", "quarantine"), default="raise",
        help="(--executor queue) what an exhausted cell does to the sweep: "
        "abort it ('raise', default) or skip the cell so the rest "
        "completes ('quarantine'); tfrc-sweep-fsck audits the leftovers",
    )
    return parser


def main(argv=None) -> int:
    from repro.scenarios.executors import available_cpus

    parser = build_parser()
    args = parser.parse_args(argv)
    # Progress lines follow what the user typed, not the machine's CPU count.
    verbose = (
        args.parallel is not None or args.cache is not None or args.executor
    )
    if args.parallel is None:
        args.parallel = available_cpus()
    if args.parallel < (0 if args.executor == "queue" else 1):
        parser.error(
            "--parallel must be >= 1 (>= 0 with --executor queue)"
        )
    if args.executor == "queue" and args.queue_dir is None:
        parser.error("--executor queue requires --queue-dir")
    if args.queue_dir is not None and args.executor != "queue":
        parser.error("--queue-dir only applies to --executor queue")
    sweep_kwargs = {"parallel": args.parallel, "cache_dir": args.cache}
    if verbose:
        from repro.scenarios import print_progress

        sweep_kwargs["progress"] = print_progress()
    if args.executor == "queue":
        # Built directly (rather than resolved by name) so the
        # robustness knobs reach the coordinator.
        from repro.scenarios import FileQueueExecutor

        sweep_kwargs["executor"] = FileQueueExecutor(
            args.queue_dir,
            local_workers=args.parallel,
            lease_timeout=args.lease_timeout,
            max_attempts=args.max_attempts,
            on_poison=args.on_poison,
        )
    elif args.executor:
        sweep_kwargs["executor"] = args.executor
    names = sorted(FIGURES) if args.experiment == "all" else [args.experiment]
    for name in names:
        figure = FIGURES[name]
        result = figure.entry()(
            **(figure.quick if args.quick else figure.full), **sweep_kwargs
        )
        figure.report(result)
        if args.plot and figure.chart:
            print()
            figure.chart(result)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
