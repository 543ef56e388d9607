"""Golden digests: the byte-identity contract of the packet simulator.

Eleven seeded runs are reduced to sha256 digests of their exact trace
signature and result JSON and compared with ``tests/golden_digests.json``.
The first four committed digests were produced by the per-event
implementations the simulator used to carry beside its hot path, and
verified equal to that hot path, before those were deleted; the TFRCP
run was captured at f2093f7, before the rate-based senders were put on
one ``PacedSender`` base, and the
two TFRC ``LossyPath`` runs at b7316be, before the endpoints' per-packet
paths were shortened, and the internet-path, probe-path and Dummynet-pipe
runs at c5f52e4, before the scene builders were put on one testbed, and
the single-TCP-flow run at cb8717a, before the window state machine was
put on one set of transition methods.  Any change to event order, RNG draw order or float
arithmetic in ``sim/``, ``net/``, ``core/``, ``tcp/`` or ``baselines/``
moves one.  Every run goes through a ``Testbed``, so each ends with the
conservation checks ``Testbed.run`` makes (the lossy-path runs register
both their paths).

Float formatting and numpy's generators are only stable for one
``{python, numpy, machine}`` triple (the one ``bench/golden.json`` is keyed
on): under it a mismatch is a hard failure, elsewhere the tests skip and
name the triple.  Running this module as a script rewrites the file.
"""

import hashlib
import json
import platform
from functools import reduce
from pathlib import Path

import numpy
import pytest

from repro.baselines import TfrcpFlow
from repro.core.agent import TfrcFlow
from repro.experiments import fig03_oscillation as fig03
from repro.experiments import fig11_onoff as fig11
from repro.experiments import fig14_queue_dynamics as fig14
from repro.experiments.fig18_predictor import trace_scenario
from repro.experiments.internet import PATHS
from repro.experiments.timescales import TAU_MAPS, tau_maps_from_json
from repro.net.monitor import LinkMonitor
from repro.net.path import LossyPath, bernoulli_loss
from repro.scenarios import ScenarioSpec, builders
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


def mixed_dumbbell(reverse_monitor=False):
    """4 TFRC + 4 TCP on a 15 Mb/s RED dumbbell, traced, 8 simulated s."""
    tracer = Tracer()
    result = builders.build_mixed_dumbbell(
        n_tfrc=4, n_tcp=4, bandwidth_bps=15e6, queue_type="red", seed=3,
        tracer=tracer, sample_queue=True,
    )
    if reverse_monitor:
        rev_monitor = LinkMonitor(
            result.sim, result.dumbbell.reverse_link, sample_queue=True
        )
    result.run(8.0)
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
        # The 0 holds the slot of a mark counter RED no longer has, so
        # the digests taken with it still pin these runs.
        "red": (
            queue.avg.hex(), queue.early_drops, queue.forced_drops,
            0, queue.enqueued, queue.dequeued, queue.dropped,
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
    spec = ScenarioSpec(
        scenario="fig11_onoff",
        duration=8.0,
        seed=1,
        topology={"bandwidth_bps": fig11.LINK_BPS},
        flows={"sources": 10},
        extra={"warmup": 2.0, "timescales": [0.5, 1.0]},
    )
    run = fig11.onoff_scenario(spec, tracer=tracer)
    return trace_signature(tracer), tau_maps_from_json(run, TAU_MAPS)


def fig14_red():
    spec = ScenarioSpec(
        scenario="fig14_queue_dynamics",
        duration=12.0,
        seed=2,
        topology={
            "bandwidth_bps": fig14.LINK_BPS,
            "base_rtt": fig14.BASE_RTT,
            "start_spread": fig14.START_SPREAD,
        },
        flows={"protocol": "tcp", "n_flows": 12},
        queue={"buffer_packets": 60, "type": "red"},
        extra={"web_fraction": fig14.WEB_FRACTION},
    )
    return [], fig14.queue_dynamics_scenario(spec)


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
    """One flow, 60 simulated s over a Bernoulli-``p`` ``LossyPath`` on a
    plain ``Testbed`` that checks both paths; ``sender_attrs`` are ``(name,
    value)`` pairs set on the sender before it starts."""
    bed = builders.Testbed()
    sim = bed.sim
    forward = LossyPath(
        sim, delay=0.05,
        loss_model=bernoulli_loss(p, numpy.random.default_rng(5)),
    )
    reverse = LossyPath(sim, delay=0.05)
    bed.paths += [forward, reverse]
    monitor = bed.flow_monitor
    tracer = Tracer()
    if traced:
        kwargs["tracer"] = tracer
    flow = flow_cls(sim, "b", forward, reverse, **kwargs)
    flow.receiver.on_data = monitor.on_packet
    for name, value in sender_attrs:
        setattr(flow.sender, name, value)
    flow.start()
    bed.run(60.0)
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


def tfrc_lossy_path(p):
    """TFRC itself on that path, traced (every send and rate decision)."""
    return lossy_path_baseline(
        TfrcFlow, ("feedback_received", "in_slow_start"),
        ("feedback_sent", "detector.packets_received",
         "detector.packets_lost", "intervals.loss_events",
         "intervals.open_interval", "intervals.history"),
        p=p, traced=True,
    )


def tcp_lossy_path():
    """One SACK TCP flow on that path at 5 % loss, traced: it times out and
    fast-retransmits there."""
    sim, flow, monitor, tracer = _run_lossy_path(TcpFlow, 0.05, traced=True)
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
    run = builders.run_internet_path(
        PATHS["ucl"], n_tcp=3, duration=20.0, seed=7
    )
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
    spec = ScenarioSpec(
        scenario="fig18_trace",
        duration=30.0,
        seed=4,
        topology=PATHS["nokia"].to_dict(),
    )
    intervals = trace_scenario(spec)["intervals"]
    return [], {"intervals": [v.hex() for v in intervals]}


def fig03_pipe():
    """One TFRC flow over an 8-packet Dummynet pipe, 15 simulated s."""
    spec = ScenarioSpec(
        scenario="fig03_pipe",
        duration=15.0,
        topology={"bandwidth_bps": fig03.BANDWIDTH_BPS, "delay": fig03.DELAY},
        flows={"interpacket_adjustment": False},
        queue={"buffer_packets": 8},
        extra={"rtt_ewma_weight": fig03.RTT_EWMA_WEIGHT, "tau": fig03.TAU},
    )
    run = fig03.pipe_scenario(spec)
    return [], {"series": [v.hex() for v in run["series"]],
                "cov": run["cov"].hex(), "mean": run["mean"].hex()}


#: name -> zero-argument run returning ``(trace signature, result)``.
RUNS = {
    "traced_mixed_dumbbell": lambda: mixed_dumbbell(reverse_monitor=True),
    "fig11_onoff": fig11_onoff,
    "dumbbell_red": mixed_dumbbell,
    "fig14_red": fig14_red,
    "tfrcp_lossy_path": lambda: lossy_path_baseline(
        TfrcpFlow, ("acks_received",), ("packets_received",),
        sender_attrs=[("UPDATE_INTERVAL", 2.0)],
    ),
    "tfrc_lossy_path_p01": lambda: tfrc_lossy_path(0.01),
    "tfrc_lossy_path_p05": lambda: tfrc_lossy_path(0.05),
    "internet_path_ucl": internet_path_ucl,
    "tfrc_probe_nokia": tfrc_probe_nokia,
    "fig03_pipe": fig03_pipe,
    "tcp_lossy_path_sack": tcp_lossy_path,
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
