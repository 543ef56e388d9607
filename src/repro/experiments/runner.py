"""CLI: run a paper experiment by figure id and print its headline numbers.

Usage::

    tfrc-experiment fig02
    tfrc-experiment fig06 --quick
    tfrc-experiment all --quick
    tfrc-experiment fig09 --plot     # append a text chart of the figure
                                     # (fig02, fig05, fig09, fig18, fig20)
    tfrc-experiment fig06 --parallel 1   # in this process (the default is
                                         # one worker process per CPU)
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict


def _fig02(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig02_loss_interval as fig02

    result = fig02.run(duration=12.0 if quick else 16.0, **sweep)
    summary = fig02.summarize(result)
    print("Figure 2 (Average Loss Interval under periodic loss)")
    for key, value in summary.items():
        print(f"  {key:28s} {value:.4f}")
    if plot:
        from repro.analysis.charts import line_chart, sparkline

        print()
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


def _fig03(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig03_oscillation as fig03

    buffers = (8, 32) if quick else (2, 8, 32, 64)
    duration = 30.0 if quick else 60.0
    plain = fig03.run(
        buffer_sizes=buffers, interpacket_adjustment=False, duration=duration,
        **sweep,
    )
    damped = fig03.run(
        buffer_sizes=buffers, interpacket_adjustment=True, duration=duration,
        **sweep,
    )
    print("Figures 3/4 (oscillation CoV without -> with interpacket adjustment)")
    for b in buffers:
        print(
            f"  buffer {b:3d}: {plain.cov_by_buffer[b]:.3f} -> "
            f"{damped.cov_by_buffer[b]:.3f}"
        )


def _fig05(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig05_loss_event_fraction as fig05

    result = fig05.run(monte_carlo=not quick, **sweep)
    print("Figure 5 (loss-event fraction vs loss probability)")
    for multiplier, curve in sorted(result.p_event_by_multiplier.items()):
        gap = result.max_relative_gap(multiplier)
        print(f"  rate x{multiplier:3.1f}: max (p_loss-p_event)/p_loss = {gap:.3f}")
    if plot:
        from repro.analysis.charts import line_chart

        series = {"y=x": [(p, p) for p in result.p_loss_values]}
        for multiplier, curve in sorted(result.p_event_by_multiplier.items()):
            series[f"rate x{multiplier:g}"] = list(
                zip(result.p_loss_values, curve)
            )
        print()
        print(line_chart(series, title="Fig 5: loss-event fraction",
                         x_label="loss probability",
                         y_label="loss-event fraction"))


def _fig06(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig06_fairness_grid as fig06

    rates = (8, 16) if quick else (1, 2, 4, 8, 16, 32, 64)
    flows = (8, 32) if quick else (2, 8, 32, 128)
    duration = 60.0 if quick else 90.0
    result = fig06.run(
        link_rates_mbps=rates, flow_counts=flows, duration=duration, **sweep
    )
    print("Figure 6 (normalized TCP throughput vs TFRC)")
    for cell in result.cells:
        print(
            f"  {cell.queue_type:8s} {cell.link_bps/1e6:5.0f}Mb/s "
            f"{cell.total_flows:4d} flows: TCP {cell.mean_tcp_normalized:.2f} "
            f"TFRC {cell.mean_tfrc_normalized:.2f} util {cell.utilization:.2f}"
        )


def _fig08(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig08_smoothness as fig08

    results = fig08.run(duration=20.0 if quick else 30.0, **sweep)
    for queue_type, result in results.items():
        print(
            f"Figure 8 ({queue_type}): mean CoV at 0.15s -- "
            f"TCP {result.mean_cov_tcp:.2f}, TFRC {result.mean_cov_tfrc:.2f}"
        )


def _fig09(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig09_equivalence as fig09

    result = fig09.run(
        runs=2 if quick else 14,
        duration=60.0 if quick else 150.0,
        measure_seconds=40.0 if quick else 100.0,
        **sweep,
    )
    print("Figure 9 (equivalence ratio) / Figure 10 (CoV)")
    print("  tau    TFRC/TFRC  TCP/TCP  TFRC/TCP  CoV(TCP)  CoV(TFRC)")
    for tau in result.timescales:
        ee, _ = result.equivalence_tfrc_tfrc[tau]
        cc, _ = result.equivalence_tcp_tcp[tau]
        ec, _ = result.equivalence_tfrc_tcp[tau]
        ct, _ = result.cov_tcp[tau]
        cf, _ = result.cov_tfrc[tau]
        print(f"  {tau:5.1f}  {ee:9.2f}  {cc:7.2f}  {ec:8.2f}  {ct:8.2f}  {cf:9.2f}")
    if plot:
        from repro.analysis.charts import line_chart

        taus = list(result.timescales)
        print()
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


def _fig11(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig11_onoff as fig11

    counts = (60, 100) if quick else fig11.PAPER_SOURCE_COUNTS
    result = fig11.run(
        source_counts=counts, duration=100.0 if quick else 200.0, **sweep
    )
    print("Figures 11-13 (ON/OFF background traffic)")
    for run_result in result.runs:
        eq = run_result.equivalence_by_tau
        longest = max(eq) if eq else None
        eq_long = eq[longest] if longest else float("nan")
        print(
            f"  {run_result.sources:4d} sources: loss {run_result.loss_rate:.3f}, "
            f"equivalence@{longest}s {eq_long:.2f}"
        )


def _fig14(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig14_queue_dynamics as fig14

    result = fig14.run(duration=20.0 if quick else 30.0, **sweep)
    print("Figure 14 (queue dynamics, 40 long-lived flows)")
    for res in (result.tcp, result.tfrc):
        print(
            f"  {res.protocol:5s}: drop {res.drop_rate:.3f} util {res.utilization:.3f} "
            f"queue mean {res.mean_queue:.1f} +- {res.queue_std:.1f}"
        )


def _fig15(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import internet

    result = internet.run_all(
        ("ucl",), duration=60.0 if quick else 120.0, **sweep
    )["ucl"]
    print("Figure 15 (3 TCP + 1 TFRC over the synthetic UCL path)")
    mean_tcp = sum(result.tcp_throughputs_bps) / len(result.tcp_throughputs_bps)
    print(f"  TFRC {result.tfrc_throughput_bps/1e3:.0f} kb/s, TCP mean {mean_tcp/1e3:.0f} kb/s")
    print(f"  loss rate {result.loss_rate:.3f}")


def _fig16(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import internet

    results = internet.run_all(duration=60.0 if quick else 120.0, **sweep)
    print("Figures 16/17 (Internet paths): equivalence / CoV at tau=10s")
    for name, res in results.items():
        tau = max(res.equivalence_by_tau)
        print(
            f"  {name:14s} eq {res.equivalence_by_tau[tau]:.2f} "
            f"cov_tcp {res.cov_tcp_by_tau[tau]:.2f} cov_tfrc {res.cov_tfrc_by_tau[tau]:.2f}"
        )


def _fig18(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig18_predictor as fig18

    result = fig18.run(duration=80.0 if quick else 150.0, **sweep)
    print("Figure 18 (loss predictor error)")
    print("  history  constant        decreasing")
    for h in result.history_sizes:
        c_mean, c_std = result.constant_weights[h]
        d_mean, d_std = result.decreasing_weights[h]
        print(f"  {h:7d}  {c_mean:.4f}+-{c_std:.4f}  {d_mean:.4f}+-{d_std:.4f}")
    if plot:
        from repro.analysis.charts import histogram

        labels = [f"const n={h}" for h in result.history_sizes]
        labels += [f"decr  n={h}" for h in result.history_sizes]
        values = [result.constant_weights[h][0] for h in result.history_sizes]
        values += [result.decreasing_weights[h][0] for h in result.history_sizes]
        print()
        print(histogram(labels, values, title="Fig 18: mean predictor error"))


def _fig19(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig19_increase as fig19

    result = fig19.run(duration=13.0, **sweep)
    bounds = fig19.analytic_bounds()
    normal = result.max_increment(result.loss_stop_time + 0.5, result.loss_stop_time + 1.4)
    discounted = result.max_increment(result.loss_stop_time + 1.5, result.times[-1])
    print("Figure 19 (bounded increase rate)")
    print(f"  observed increase (normal):     {normal:.3f} pkts/RTT (paper ~0.12)")
    print(f"  observed increase (discounted): {discounted:.3f} pkts/RTT (paper <=0.29)")
    print(f"  analytic bounds: {bounds}")


def _fig20(quick: bool, plot: bool, **sweep: object) -> None:
    from repro.experiments import fig20_halving as fig20

    result = fig20.run(**sweep)
    print(f"Figure 20: RTTs to halve under persistent congestion = {result.rtts_to_halve()}")
    fig21 = fig20.run_sweep(
        initial_periods=(100, 10) if quick else (200, 100, 50, 25, 10, 5, 4),
        **sweep,
    )
    print("Figure 21: drop rate -> RTTs to halve")
    for p, n in zip(fig21.drop_rates, fig21.rtts_to_halve):
        print(f"  p={p:.3f}: {n if n is not None else 'not halved'}")
    if plot:
        from repro.analysis.charts import line_chart

        points = [
            (p, n)
            for p, n in zip(fig21.drop_rates, fig21.rtts_to_halve)
            if n is not None
        ]
        print()
        print(line_chart({"RTTs to halve": points},
                         title="Fig 21: response to persistent congestion",
                         x_label="packet drop rate", y_label="RTTs"))


EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "fig02": _fig02,
    "fig03": _fig03,
    "fig05": _fig05,
    "fig06": _fig06,
    "fig08": _fig08,
    "fig09": _fig09,
    "fig11": _fig11,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig18": _fig18,
    "fig19": _fig19,
    "fig20": _fig20,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``tfrc-experiment`` argument parser."""
    from repro.scenarios.executors import EXECUTOR_NAMES, directory, positive

    parser = argparse.ArgumentParser(
        description="Reproduce a figure from the TFRC paper."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="figure id (fig02..fig20) or 'all'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced durations/sweeps"
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="append a plain-text chart of the figure (fig02, fig05, fig09, "
        "fig18, fig20; the other figures accept the flag and ignore it)",
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
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        EXPERIMENTS[name](args.quick, args.plot, **sweep_kwargs)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
