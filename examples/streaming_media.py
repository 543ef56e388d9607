#!/usr/bin/env python3
"""Streaming media over TFRC vs TCP: the application the paper motivates.

A streaming session wants a smooth sending rate: abrupt halvings show up as
visible quality drops.  This example runs one TFRC "stream" and one TCP
"stream" through the same congested bottleneck (with web-like background
traffic), then compares:

* delivered rate over 0.15 s intervals -- the paper's threshold where
  bandwidth variation becomes noticeable to multimedia users (Figure 8);
* the coefficient of variation at several timescales (Figure 10's metric);
* how often each stream's rate dips below a "playback threshold", a simple
  proxy for rebuffering events.

Run:  python examples/streaming_media.py
"""

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.net import DumbbellConfig
from repro.scenarios import DumbbellTestbed
from repro.traffic.onoff import OnOffSource


def main() -> None:
    config = DumbbellConfig(bandwidth_bps=6e6, queue_type="red",
                            buffer_packets=60, red_min_thresh=6, red_max_thresh=30)
    bed = DumbbellTestbed(config, seed=42)
    monitor = bed.flow_monitor
    bed.tfrc("tfrc-stream", base_rtt=0.090).start()
    bed.tcp("tcp-stream", base_rtt=0.090).start(at=0.2)

    # Bursty background: eight Pareto ON/OFF sources at 500 kb/s peak.
    rng = bed.stream("onoff")
    topo_rng = bed.stream("topo")
    for i in range(8):
        flow_id = f"bg-{i}"
        port, _ = bed.attach(flow_id, float(topo_rng.uniform(0.08, 0.12)))
        OnOffSource(bed.sim, flow_id, port, rng=rng).start(
            at=float(topo_rng.uniform(0.0, 3.0))
        )

    duration = 120.0
    bed.run(duration)

    t0, t1 = 20.0, duration
    print("Streaming comparison on a 6 Mb/s bottleneck with bursty cross traffic")
    print(f"(measured over t = {t0:.0f}..{t1:.0f} s)\n")

    frame_tau = 0.15  # the paper's 'noticeable to multimedia users' interval
    series = {}
    for flow_id in ("tfrc-stream", "tcp-stream"):
        series[flow_id] = monitor.rate_series(flow_id, t0, t1, frame_tau)
        mean_rate = monitor.throughput_bps(flow_id, t0, t1)
        print(f"{flow_id}:")
        print(f"  mean delivered rate     : {mean_rate / 1e6:.2f} Mb/s")
        for tau in (0.15, 0.5, 2.0):
            rates = monitor.rate_series(flow_id, t0, t1, tau)
            print(f"  CoV at tau = {tau:4.2f} s     : "
                  f"{coefficient_of_variation(rates):.3f}")

    # Rebuffer proxy: fraction of 0.15 s frames below half the mean rate.
    print("\nFrames below half the stream's own mean rate (rebuffer proxy):")
    for flow_id, rates in series.items():
        mean = np.mean(rates)
        below = float(np.mean(rates < 0.5 * mean)) if mean > 0 else 1.0
        print(f"  {flow_id:12s}: {below * 100:5.1f}% of {frame_tau * 1000:.0f} ms frames")
    print("\nThe TFRC stream should show a visibly lower CoV and fewer dips --")
    print("the property that motivates equation-based congestion control.")


if __name__ == "__main__":
    main()
