"""Golden digests: the byte-identity contract of the packet simulator.

Eighteen seeded runs are reduced to sha256 digests of their exact trace
signature and result JSON and compared with ``tests/golden_digests.json``.
The first five committed digests were produced by the per-event
implementations the simulator used to carry beside its hot path, and
verified equal to that hot path, before those were deleted; the four
``baselines/`` and ``multicast/`` runs were captured at f2093f7, before
the five rate-based senders were put on one ``PacedSender`` base, and the
two TFRC ``LossyPath`` runs at b7316be, before the endpoints' per-packet
paths were shortened, and the internet-path, probe-path and Dummynet-pipe
runs at c5f52e4, before the scene builders were put on one testbed, and
the four single-TCP-flow runs (one per variant; every other TCP run uses
SACK) at cb8717a, before the window state machine was put on one set of
transition methods.  Any change to event order, RNG draw order or float
arithmetic in ``sim/``, ``net/``, ``core/``, ``tcp/``, ``baselines/`` or
``multicast/`` moves one.

Float formatting and numpy's generators are only stable for one
``{python, numpy, machine}`` triple (the one ``bench/golden.json`` is keyed
on): under it a mismatch is a hard failure, elsewhere the tests skip and
name the triple.  Running this module as a script rewrites the file.
"""

import hashlib
import json
import platform
from dataclasses import asdict
from functools import partial, reduce
from pathlib import Path

import numpy
import pytest

from repro.baselines import RapFlow, TearFlow, TfrcpFlow
from repro.core.agent import TfrcFlow
from repro.experiments.fig03_oscillation import run_one as fig03_run_one
from repro.experiments.fig11_onoff import run_one as fig11_run_one
from repro.experiments.fig14_queue_dynamics import run_one as fig14_run_one
from repro.experiments.fig18_predictor import collect_loss_intervals
from repro.experiments.internet import PATHS
from repro.multicast import MulticastTfrcSession
from repro.net.monitor import FlowMonitor, LinkMonitor
from repro.net.path import LossyPath, bernoulli_loss
from repro.scenarios.builders import build_mixed_dumbbell, run_internet_path
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tcp.flow import TcpFlow

GOLDEN = Path(__file__).with_name("golden_digests.json")


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def trace_signature(tracer):
    """Exact, allocation-order-independent signature of a trace."""
    return [
        (
            rec.time.hex(),
            rec.category,
            rec.source,
            repr(rec.value),
            repr(sorted(rec.meta.items())) if rec.meta else "",
        )
        for rec in tracer
    ]


def mixed_dumbbell(ecn=False, reverse_monitor=False):
    """4 TFRC + 4 TCP on a 15 Mb/s RED dumbbell, traced, 8 simulated s."""
    tracer = Tracer()
    result = build_mixed_dumbbell(
        n_tfrc=4, n_tcp=4, bandwidth_bps=15e6, queue_type="red", seed=3,
        tracer=tracer, sample_queue=True,
    )
    if ecn:  # before any flow starts: marking queue, ECN-capable TFRC
        result.dumbbell.forward_link.queue.ecn = True
        for flow in result.tfrc_flows:
            flow.sender.ecn = True
    if reverse_monitor:
        rev_monitor = LinkMonitor(
            result.sim, result.dumbbell.reverse_link, sample_queue=True
        )
    result.sim.run(until=8.0)
    link = result.dumbbell.forward_link
    queue = link.queue
    flows = result.flow_monitor
    outcome = {
        "queue_samples": result.link_monitor.queue_series(),
        "drops": result.link_monitor.drops,
        "arrivals": {fid: flows.arrival_series(fid) for fid in flows.flows()},
        "bytes": dict(flows.bytes_by_flow),
        "packets": dict(flows.packets_by_flow),
        "rate_histories": [f.sender.rate_history for f in result.tfrc_flows],
        "red": (
            queue.avg.hex(), queue.early_drops, queue.forced_drops,
            queue.ecn_marks, queue.enqueued, queue.dequeued, queue.dropped,
        ),
        "link": (
            link.packets_forwarded, link.bytes_forwarded,
            link.utilization_seconds.hex(),
        ),
        "tcp": [
            (f.sender.packets_sent, f.sender.retransmissions,
             f.sender.timeouts, f.sender.acks_received)
            for f in result.tcp_flows
        ],
    }
    if reverse_monitor:
        outcome["rev_queue_samples"] = rev_monitor.queue_series()
    return trace_signature(tracer), outcome


def fig11_onoff():
    tracer = Tracer()
    run = fig11_run_one(
        n_sources=10, duration=8.0, warmup=2.0, timescales=(0.5, 1.0),
        seed=1, tracer=tracer,
    )
    return trace_signature(tracer), asdict(run)


def fig14_red():
    run = fig14_run_one(
        "tcp", n_flows=12, duration=12.0, queue_type="red",
        buffer_packets=60, seed=2,
    )
    return [], asdict(run)


def _exact(obj, names):
    """``names`` (dotted paths allowed) read off ``obj``, floats as
    ``float.hex``."""
    exact = {}
    for name in names:
        value = reduce(getattr, name.split("."), obj)
        exact[name] = value.hex() if isinstance(value, float) else value
    return exact


def _rate_history(sender):
    return [(t.hex(), rate.hex()) for t, rate in sender.rate_history]


def _run_lossy_path(flow_cls, p, traced, sender_attrs=(), **kwargs):
    """One flow, 60 simulated s over a Bernoulli-``p`` ``LossyPath``;
    ``sender_attrs`` are ``(name, value)`` pairs set on the sender before
    it starts."""
    sim = Simulator()
    forward = LossyPath(
        sim, delay=0.05,
        loss_model=bernoulli_loss(p, numpy.random.default_rng(5)),
    )
    reverse = LossyPath(sim, delay=0.05)
    monitor = FlowMonitor()
    tracer = Tracer()
    if traced:
        kwargs["tracer"] = tracer
    flow = flow_cls(sim, "b", forward, reverse, **kwargs)
    flow.receiver.on_data = monitor.on_packet
    for name, value in sender_attrs:
        setattr(flow.sender, name, value)
    flow.start()
    sim.run(until=60.0)
    return sim, flow, monitor, tracer


def lossy_path_baseline(flow_cls, sender_counters, receiver_counters,
                        p=0.02, traced=False, sender_attrs=()):
    """A rate-based flow on the lossy path: its rate decisions and counters."""
    sim, flow, monitor, tracer = _run_lossy_path(
        flow_cls, p, traced, sender_attrs
    )
    return trace_signature(tracer), {
        "rate_history": _rate_history(flow.sender),
        "sender": _exact(flow.sender, ("packets_sent", "srtt") + sender_counters),
        "receiver": _exact(flow.receiver, receiver_counters),
        "arrivals": monitor.arrival_series("b"),
        "events": sim.events_processed,
    }


def multicast_session():
    """Three receivers (lossless, 1 %, 4 % Bernoulli), 60 simulated s."""
    sim = Simulator()
    rng = numpy.random.default_rng(9)
    specs = [(0.03, None), (0.05, bernoulli_loss(0.01, rng)),
             (0.08, bernoulli_loss(0.04, rng))]
    session = MulticastTfrcSession(sim, specs, seed=4)
    session.start()
    sim.run(until=60.0)
    return [], {
        "rate_history": _rate_history(session.sender),
        "sender": _exact(
            session.sender,
            ("packets_sent", "reports_received", "in_slow_start"),
        ),
        "receivers": [
            dict(_exact(r, ("packets_received", "reports_sent")),
                 p=r.loss_event_rate().hex())
            for r in session.receivers
        ],
        "events": sim.events_processed,
    }


def tfrc_lossy_path(p):
    """TFRC itself on that path, traced (every send and rate decision)."""
    return lossy_path_baseline(
        TfrcFlow, ("feedback_received", "in_slow_start"),
        ("feedback_sent", "detector.packets_received",
         "detector.packets_lost", "intervals.loss_events",
         "intervals.open_interval", "intervals.history"),
        p=p, traced=True,
    )


def tcp_lossy_path(variant):
    """One TCP flow of ``variant`` on that path at 5 % loss, traced: every
    variant times out and fast-retransmits there."""
    sim, flow, monitor, tracer = _run_lossy_path(
        TcpFlow, 0.05, traced=True, variant=variant
    )
    return trace_signature(tracer), {
        "sender": _exact(flow.sender, (
            "packets_sent", "retransmissions", "timeouts", "fast_retransmits",
            "acks_received", "cwnd", "ssthresh", "snd_una", "snd_nxt",
        )),
        "arrivals": monitor.arrival_series("b"),
        "events": sim.events_processed,
    }


def _arrivals(monitor, flow_id):
    return [(t.hex(), size) for t, size in monitor.arrival_series(flow_id)]


def internet_path_ucl():
    """3 TCP + 1 TFRC + ON/OFF cross traffic on the ``ucl`` path, 20 s."""
    run = run_internet_path(PATHS["ucl"], n_tcp=3, duration=20.0, seed=7)
    link = run.dumbbell.forward_link
    flows = run.flow_monitor
    return [], {
        "arrivals": {fid: _arrivals(flows, fid) for fid in flows.flows()},
        "tcp_ids": run.tcp_ids,
        "loss_rate": run.link_monitor.loss_rate().hex(),
        "link": _exact(link, ("packets_forwarded", "bytes_forwarded",
                              "utilization_seconds", "queue.enqueued",
                              "queue.dequeued", "queue.dropped")),
        "events": run.sim.events_processed,
    }


def tfrc_probe_nokia():
    """The Figure 18 probe flow on the ``nokia`` path, 30 simulated s."""
    intervals = collect_loss_intervals(PATHS["nokia"], duration=30.0, seed=4)
    return [], {"intervals": [v.hex() for v in intervals]}


def fig03_pipe():
    """One TFRC flow over an 8-packet Dummynet pipe, 15 simulated s."""
    series, cov, mean = fig03_run_one(8, False, duration=15.0)
    return [], {"series": [v.hex() for v in series], "cov": cov.hex(),
                "mean": mean.hex()}


#: name -> zero-argument run returning ``(trace signature, result)``.
RUNS = {
    "traced_mixed_dumbbell": lambda: mixed_dumbbell(reverse_monitor=True),
    "fig11_onoff": fig11_onoff,
    "dumbbell_red": mixed_dumbbell,
    "dumbbell_red_ecn": lambda: mixed_dumbbell(ecn=True),
    "fig14_red": fig14_red,
    "rap_lossy_path": lambda: lossy_path_baseline(
        RapFlow, ("acks_received", "loss_events"), ("packets_received",),
    ),
    "tfrcp_lossy_path": lambda: lossy_path_baseline(
        TfrcpFlow, ("acks_received",), ("packets_received",),
        sender_attrs=[("UPDATE_INTERVAL", 2.0)],
    ),
    "tear_lossy_path": lambda: lossy_path_baseline(
        TearFlow, ("reports_received",),
        ("packets_received", "losses_detected", "reports_sent", "cwnd",
         "smoothed_cwnd"),
    ),
    "multicast_session": multicast_session,
    "tfrc_lossy_path_p01": lambda: tfrc_lossy_path(0.01),
    "tfrc_lossy_path_p05": lambda: tfrc_lossy_path(0.05),
    "internet_path_ucl": internet_path_ucl,
    "tfrc_probe_nokia": tfrc_probe_nokia,
    "fig03_pipe": fig03_pipe,
    **{f"tcp_lossy_path_{variant}": partial(tcp_lossy_path, variant)
       for variant in ("tahoe", "reno", "newreno", "sack")},
}


def _sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name):
    trace, result = RUNS[name]()
    return {"records": len(trace), "trace": _sha256(trace),
            "result": _sha256(result)}


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=pytest.mark.slow) if n == "fig14_red" else n
     for n in RUNS],
)
def test_golden_digest(name):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    here = environment()
    if golden["env"] != here:
        pytest.skip(
            f"golden digests were taken on {golden['env']}, this is {here}: "
            "byte identity is pinned for that python/numpy/machine only"
        )
    assert digests(name) == golden["digests"][name]


if __name__ == "__main__":
    document = {
        "env": environment(),
        "digests": {name: digests(name) for name in RUNS},
    }
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
