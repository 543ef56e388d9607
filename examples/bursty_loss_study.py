#!/usr/bin/env python
"""Why TFRC measures loss *events*, not lost packets: a burst-loss study.

Paper section 3.5.1 argues that TFRC should count at most one congestion
signal per round-trip time ("loss event"), because that is how a
conformant TCP halves its window.  The observable consequence: under
*bursty* loss -- where drops cluster inside round-trip times -- TFRC's
loss-event rate sits below the raw packet loss rate, and its throughput is
correspondingly higher than a naive loss-fraction controller would allow.

This script runs one TFRC flow over a controlled-loss pipe at a fixed 4%
*packet* loss rate while the burstiness of the loss process varies
(Gilbert-Elliott with mean burst lengths 1 -> 8; burst length 1 is plain
Bernoulli).  It prints, per burstiness level:

* measured packet loss rate (held ~constant by construction),
* receiver's loss event rate p (drops as bursts grow),
* mean throughput (grows as bursts grow), and
* the control equation's prediction from the measured p,

then renders a text chart of the two loss measures.  Runs entirely in
simulation, ~20 s of CPU.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.charts import line_chart
from repro.core.equations import tcp_response_rate
from repro.scenarios import run_single_tfrc_on_lossy_path, steady_state_window
from repro.net.lossmodels import gilbert_elliott_from_rate

PACKET_LOSS_RATE = 0.04
RTT = 0.1
PACKET_SIZE = 1000
DURATION = 120.0
BURST_LENGTHS = (1.0, 2.0, 4.0, 8.0)


def run_one(mean_burst: float, seed: int = 1):
    model = gilbert_elliott_from_rate(
        PACKET_LOSS_RATE, mean_burst, np.random.default_rng(seed)
    )
    result = run_single_tfrc_on_lossy_path(
        loss_model=model, duration=DURATION, rtt=RTT, packet_size=PACKET_SIZE,
    )
    t0, t1 = steady_state_window(DURATION)
    throughput = result.flow_monitor.throughput_bps("tfrc", t0, t1)
    p_event = result.flow.receiver.loss_event_rate()
    p_loss = result.path.packets_dropped / max(1, result.path.packets_sent)
    return p_loss, p_event, throughput


def main() -> None:
    print(f"One TFRC flow, {PACKET_LOSS_RATE:.0%} packet loss, RTT {RTT * 1e3:.0f} ms,"
          f" {DURATION:.0f} s simulated")
    print(f"{'burst':>6} {'p_loss':>8} {'p_event':>8} {'throughput':>11} "
          f"{'equation(p_event)':>18}")
    rows = []
    for burst in BURST_LENGTHS:
        p_loss, p_event, throughput = run_one(burst)
        eq = tcp_response_rate(
            packet_size=PACKET_SIZE, rtt=RTT, p=max(p_event, 1e-6),
            t_rto=4 * RTT,
        )
        rows.append((burst, p_loss, p_event, throughput))
        print(f"{burst:6.0f} {p_loss:8.3f} {p_event:8.3f} "
              f"{throughput / 8e3:9.1f}KB/s {eq / 1e3:16.1f}KB/s")

    print()
    print(line_chart(
        {
            "packet loss rate": [(b, pl) for b, pl, _, _ in rows],
            "loss event rate p": [(b, pe) for b, _, pe, _ in rows],
        },
        title="Loss measures vs burst length (fixed 4% packet loss)",
        x_label="mean burst length (packets)", y_label="rate",
    ))
    print()
    first, last = rows[0], rows[-1]
    gain = last[3] / first[3] if first[3] else float("nan")
    print(f"Throughput at burst length {last[0]:.0f} is {gain:.2f}x the "
          f"Bernoulli case: clustered drops collapse\ninto single loss events "
          f"(section 3.5.1), so the equation admits a higher rate.")


if __name__ == "__main__":
    main()
