#!/usr/bin/env python3
"""Fairness study: sweep flow counts and queue disciplines (mini Figure 6).

For each (queue discipline, number of flows) cell, half the flows are TFRC
and half are SACK TCP; the script prints a table of normalized mean
throughput per protocol, bottleneck utilization, and loss rate -- the same
quantities behind the paper's Figure 6 surface plots.

Run:  python examples/fairness_study.py [--full]
"""

import argparse

from repro.experiments import fig06_fairness_grid as fig06


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true",
        help="larger sweep (slower; closer to the paper's grid)",
    )
    args = parser.parse_args()

    if args.full:
        link_rates_mbps = (4, 15, 32)
        flow_counts = (2, 8, 32, 128)
        duration = 90.0
    else:
        link_rates_mbps = (15,)
        flow_counts = (8, 32)
        duration = 45.0

    header = (
        f"{'queue':9s} {'link':>7s} {'flows':>5s} "
        f"{'TCP':>6s} {'TFRC':>6s} {'util':>6s} {'loss':>7s}"
    )
    print(header)
    print("-" * len(header))
    # the grid runs queue type, then link rate, then flow count
    result = fig06.run(
        link_rates_mbps=link_rates_mbps,
        flow_counts=flow_counts,
        queue_types=("red", "droptail"),
        duration=duration,
    )
    for cell in result.cells:
        print(
            f"{cell.queue_type:9s} {cell.link_bps / 1e6:5.0f}Mb "
            f"{cell.total_flows:5d} "
            f"{cell.mean_tcp_normalized:6.2f} "
            f"{cell.mean_tfrc_normalized:6.2f} "
            f"{cell.utilization:6.2f} {cell.loss_rate:7.4f}"
        )
    print(
        "\nA value of 1.00 is a perfectly fair share; the paper's headline is"
        "\nthat both protocols sit near 1.0 across this whole grid."
    )


if __name__ == "__main__":
    main()
