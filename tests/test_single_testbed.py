"""Every packet figure's simulator is made, and run, in one place.

Under ``scenarios/`` and ``experiments/`` the only ``Simulator(...)``,
``FlowMonitor(...)`` and ``.run(until=...)`` are ``Testbed``'s, the only
``Dumbbell(...)`` and ``LinkMonitor(...)`` are ``DumbbellTestbed``'s, and
``RngRegistry(...)`` is built there and in ``tfrc_lossy_path_scenario``
(whose ``"loss"`` stream exists before the harness does).  A second site
means a figure assembles its scene by hand again -- out of reach of the
tracer ``Testbed.__init__`` takes and of the link-conservation check
``Testbed.run`` ends with (over ``Testbed.links``: a dumbbell's two links,
fig03's pipe), and of the delivered-packet check ``DumbbellTestbed.run``
adds (the flow monitor against each monitored flow's receiver, and each
TFRC receiver's sequence accounting).
"""

import ast
from pathlib import Path

import pytest

from repro.experiments import fig03_oscillation as fig03
from repro.net import DumbbellConfig
from repro.net.packet import Packet
from repro.scenarios import DumbbellTestbed, ScenarioSpec
from repro.sim.engine import SimulationError

REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
BUILDERS = "scenarios/builders.py"

#: constructor name -> the only functions allowed to call it.
CONSTRUCTION_SITES = {
    "Simulator": {f"{BUILDERS}:Testbed.__init__"},
    "FlowMonitor": {f"{BUILDERS}:Testbed.__init__"},
    "Dumbbell": {f"{BUILDERS}:DumbbellTestbed.__init__"},
    "LinkMonitor": {f"{BUILDERS}:DumbbellTestbed.__init__"},
    "RngRegistry": {
        f"{BUILDERS}:Testbed.__init__",
        f"{BUILDERS}:tfrc_lossy_path_scenario",
    },
}


def _calls():
    """``(site, Call)`` for every call under the two packages, where site
    is ``<package>/<file>:<qualified function name>``."""
    for package in ("scenarios", "experiments"):
        modules = sorted((REPRO / package).glob("*.py"))
        assert len(modules) > 10, f"nothing to scan under {REPRO / package}"
        for path in modules:
            tree = ast.parse(path.read_text(), str(path))
            yield from _walk(tree, f"{package}/{path.name}:", ())


def _walk(node, prefix, scope):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call):
            yield prefix + ".".join(scope), child
        yield from _walk(child, prefix, inner)


def _callee(call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", "")


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_SITES))
def test_one_construction_site(name):
    sites = [site for site, call in _calls() if _callee(call) == name]
    assert sorted(sites) == sorted(CONSTRUCTION_SITES[name])


def test_one_run_site():
    sites = [
        site
        for site, call in _calls()
        if _callee(call) == "run"
        and any(keyword.arg == "until" for keyword in call.keywords)
    ]
    assert sites == [f"{BUILDERS}:Testbed.run"]


def test_result_records_are_gone():
    for path in sorted(REPRO.rglob("*.py")):
        text = path.read_text()
        for name in ("MixedDumbbellResult", "InternetPathRun"):
            assert name not in text, f"{name} is back in {path}"


def _built_testbed():
    bed = DumbbellTestbed(DumbbellConfig(bandwidth_bps=1e6), seed=1)
    bed.tfrc("tfrc", 0.05).start()
    bed.tcp("tcp", 0.05).start(at=0.1)
    return bed


def test_run_checks_link_conservation():
    bed = _built_testbed().run(3.0)
    link = bed.dumbbell.forward_link
    assert link.packets_forwarded > 100
    assert link.queue.dropped > 0
    assert link.packets_delivered > 100
    assert link.packets_forwarded == link.packets_delivered + len(link._in_flight)


def test_packet_lost_on_the_wire_names_the_link():
    """A packet that leaves the wire and is never handed on: the
    propagation train is part of the conservation check."""
    bed = _built_testbed()
    link = bed.dumbbell.forward_link
    lost = []

    def lose_one():
        if link._in_flight:
            lost.append(link._in_flight.popleft())
        else:
            bed.sim.schedule(bed.sim.now + 0.001, lose_one)

    bed.sim.schedule(1.0, lose_one)
    with pytest.raises(SimulationError, match="link bottleneck-fwd:") as raised:
        bed.run(3.0)
    message = str(raised.value)
    assert len(lost) == 1
    assert "t=3.0" in message
    assert "'delivered'" in message and "'in_flight'" in message


@pytest.mark.parametrize("counter", ["enqueued", "dequeued", "early_drops"])
def test_corrupt_counter_names_the_link(counter):
    bed = _built_testbed()
    queue = bed.dumbbell.forward_link.queue
    setattr(queue, counter, getattr(queue, counter) + 1)
    with pytest.raises(SimulationError, match="bottleneck-fwd") as raised:
        bed.run(3.0)
    message = str(raised.value)
    assert "t=3.0" in message and f"'{counter}'" in message


def test_corrupt_reverse_link_is_caught_too():
    bed = _built_testbed()
    bed.dumbbell.reverse_link.packets_forwarded += 1
    with pytest.raises(SimulationError, match="bottleneck-rev"):
        bed.run(3.0)


def test_corrupt_pipe_counter_names_the_pipe(monkeypatch):
    """Figures 3 and 4 run on a plain ``Testbed``: their pipe is checked
    because the scene appends it to ``links``."""
    built = fig03.dummynet_pipe

    def skewed(*args):
        forward, reverse = built(*args)
        forward.queue.enqueued += 1
        return forward, reverse

    monkeypatch.setattr(fig03, "dummynet_pipe", skewed)
    spec = ScenarioSpec(
        scenario="fig03_pipe",
        duration=2.0,
        topology={"bandwidth_bps": fig03.BANDWIDTH_BPS, "delay": fig03.DELAY},
        flows={"interpacket_adjustment": False},
        queue={"buffer_packets": 8},
        extra={"rtt_ewma_weight": fig03.RTT_EWMA_WEIGHT, "tau": fig03.TAU},
    )
    with pytest.raises(SimulationError, match="link pipe:") as raised:
        fig03.pipe_scenario(spec)
    message = str(raised.value)
    assert "t=2.0" in message and "'enqueued'" in message


@pytest.mark.parametrize("flow_id", ["tfrc", "tcp"])
def test_phantom_arrival_names_the_flow(flow_id):
    """One arrival the monitor recorded but no receiver counted."""
    bed = _built_testbed()
    bed.sim.schedule(
        1.0, bed.flow_monitor.on_packet, 1.0, Packet(flow_id, 10**6, 1000)
    )
    with pytest.raises(SimulationError, match=f"flow {flow_id}: ") as raised:
        bed.run(3.0)
    message = str(raised.value)
    seen = bed.flow_monitor.packets_by_flow[flow_id]
    assert f"recorded {seen} packets, receiver counted {seen - 1} " in message
    assert message.endswith("at t=3.0")


def test_duplicate_arrival_breaks_the_sequence_accounting():
    """A TFRC receiver handed one packet twice counts it received twice:
    received + lost + pending then exceeds the sequence numbers seen."""
    bed = _built_testbed()
    receiver = bed.tfrc_flows[0].receiver
    bed.sim.schedule(1.0, lambda: receiver.receive(receiver._last_packet))
    with pytest.raises(SimulationError, match="flow tfrc: ") as raised:
        bed.run(3.0)
    detector = receiver.detector
    assert str(raised.value) == (
        f"flow tfrc: {detector.packets_received} received + "
        f"{detector.packets_lost} lost + {len(detector._pending_holes)} "
        f"pending != {detector._next_expected} sequence numbers at t=3.0"
    )
    assert detector.packets_received + detector.packets_lost + len(
        detector._pending_holes
    ) == detector._next_expected + 1
