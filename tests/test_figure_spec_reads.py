"""A figure scenario reads each key its entry point writes, with no default.

A hand-built spec that leaves out such a key fails, naming it, instead of
running on a value the scenario made up.  The one key no entry point writes,
fig14's ``queue.type``, keeps its single default: DropTail.  A value no
scenario can run fails naming its spec field, and so does a key the two
registered declarative scenarios (``mixed_dumbbell``, ``tfrc_lossy_path``)
do not read; through ``SweepRunner`` each failure arrives as a
``SweepCellError`` naming the cell.
"""

import pytest

from repro.experiments import fig02_loss_interval as fig02
from repro.experiments import fig03_oscillation as fig03
from repro.experiments import fig06_fairness_grid as fig06
from repro.experiments import fig11_onoff as fig11
from repro.experiments import fig14_queue_dynamics as fig14
from repro.experiments import fig18_predictor as fig18
from repro.experiments.internet import PATHS
from repro.scenarios import ScenarioSpec, SweepCellError, SweepRunner, run_scenario
from repro.scenarios.builders import periodic_phase


def _fig02_without_rtt():
    return ScenarioSpec(
        scenario="fig02_loss_interval",
        duration=2.0,
        loss={"model": "scheduled", "phases": [periodic_phase(0.0, 100)]},
        extra={"probe_interval": fig02.PROBE_INTERVAL},
    )


def test_missing_key_raises_naming_it():
    with pytest.raises(KeyError, match="'rtt'"):
        run_scenario(_fig02_without_rtt())


def test_missing_key_fails_its_sweep_cell_naming_both(tmp_path):
    with pytest.raises(SweepCellError) as raised:
        SweepRunner(_fig02_without_rtt(), cache_dir=str(tmp_path)).run()
    message = str(raised.value)
    assert "fig02_loss_interval" in message
    assert message.endswith("KeyError: 'rtt'")


#: a full, small spec of each scenario that reads its spec itself.
SPECS = {
    "fig03_pipe": ScenarioSpec(
        scenario="fig03_pipe",
        duration=2.0,
        topology={"bandwidth_bps": fig03.BANDWIDTH_BPS, "delay": fig03.DELAY},
        flows={"interpacket_adjustment": False},
        queue={"buffer_packets": 8},
        extra={"rtt_ewma_weight": fig03.RTT_EWMA_WEIGHT, "tau": fig03.TAU},
    ),
    "fig06_cell": ScenarioSpec(
        scenario="fig06_cell",
        duration=2.0,
        topology={"bandwidth_bps": 2e6},
        flows={"total": 2},
        queue={"type": "red"},
        extra={"measure_fraction": fig06.MEASURE_FRACTION},
    ),
    "fig11_onoff": ScenarioSpec(
        scenario="fig11_onoff",
        duration=2.0,
        topology={"bandwidth_bps": fig11.LINK_BPS},
        flows={"sources": 2},
        extra={"warmup": 0.5, "timescales": [0.5]},
    ),
    "fig14_queue_dynamics": ScenarioSpec(
        scenario="fig14_queue_dynamics",
        duration=3.0,
        seed=1,
        topology={"bandwidth_bps": 2e6, "base_rtt": 0.045, "start_spread": 1.0},
        flows={"protocol": "tcp", "n_flows": 3},
        queue={"buffer_packets": 30},
        extra={"web_fraction": 0.1},
    ),
    "fig18_trace": ScenarioSpec(
        scenario="fig18_trace",
        duration=2.0,
        topology=PATHS[fig18.TRACE_PATHS[0]].to_dict(),
    ),
}


def _without(spec, path):
    """``spec`` with the key at dotted ``path`` left out."""
    group, key = path.split(".")
    data = spec.to_dict()
    del data[group][key]
    return ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("scenario, path", [
    ("fig03_pipe", "extra.tau"),
    ("fig06_cell", "queue.type"),
    ("fig11_onoff", "extra.warmup"),
    ("fig14_queue_dynamics", "topology.base_rtt"),
    ("fig18_trace", "topology.base_rtt"),
])
def test_scenario_missing_key_raises_naming_it(scenario, path):
    key = path.split(".")[1]
    with pytest.raises(KeyError, match=f"'{key}'"):
        run_scenario(_without(SPECS[scenario], path))


@pytest.mark.parametrize("total", [3, 0])
def test_fig06_flow_total_must_be_even_and_at_least_two(total):
    spec = SPECS["fig06_cell"].override({"flows.total": total})
    with pytest.raises(ValueError, match=rf"^flows\.total .* got {total}$"):
        run_scenario(spec)


def test_fig14_protocol_must_be_tcp_or_tfrc():
    spec = SPECS["fig14_queue_dynamics"].override({"flows.protocol": "udp"})
    with pytest.raises(ValueError, match=r"^flows\.protocol .* got 'udp'$"):
        run_scenario(spec)


@pytest.mark.parametrize("scenario, path, value", [
    ("fig06_cell", "flows.total", 3),
    ("fig14_queue_dynamics", "flows.protocol", "udp"),
])
def test_bad_value_fails_its_sweep_cell_naming_both(scenario, path, value):
    with pytest.raises(SweepCellError) as raised:
        SweepRunner(SPECS[scenario], {path: [value]}).run()
    message = str(raised.value)
    assert f"{scenario}[{path}={value}]" in message
    assert f"ValueError: {path} must be " in message
    assert message.endswith(f"got {value!r}")


def test_fig14_queue_type_defaults_to_droptail():
    spec = SPECS["fig14_queue_dynamics"]
    result = run_scenario(spec)
    assert result == run_scenario(spec.override({"queue.type": "droptail"}))
    assert result != run_scenario(spec.override({"queue.type": "red"}))


#: the two registered declarative scenarios: a full, small spec of each.
DECLARATIVE = {
    "mixed_dumbbell": ScenarioSpec(
        scenario="mixed_dumbbell",
        duration=12.0,  # both flows start by 10 s
        topology={"bandwidth_bps": 1.5e6},
        flows={"n_tfrc": 1, "n_tcp": 1},
        queue={"type": "red"},
    ),
    "tfrc_lossy_path": ScenarioSpec(
        scenario="tfrc_lossy_path",
        duration=1.0,
        topology={"rtt": 0.1},
        loss={"model": "bernoulli", "probability": 0.01},
    ),
}

#: keys each scenario does not read: a leftover of the deleted TCP
#: variants, typos, and whole groups the scenario takes nothing from.
UNREAD_KEYS = [
    ("mixed_dumbbell", "flows.tcp_variant", "sack"),
    ("mixed_dumbbell", "flows.n_tpc", 2),
    ("mixed_dumbbell", "topology.bandwith_bps", 2e6),
    ("mixed_dumbbell", "queue.buffer", 50),
    ("mixed_dumbbell", "loss.model", "bernoulli"),
    ("mixed_dumbbell", "extra.measure_fracton", 0.5),
    ("tfrc_lossy_path", "topology.delay", 0.05),
    ("tfrc_lossy_path", "flows.n_tfrc", 2),
    ("tfrc_lossy_path", "queue.type", "red"),
    ("tfrc_lossy_path", "extra.measure_fraction", 0.5),
]


@pytest.mark.parametrize("scenario, path, value", UNREAD_KEYS)
def test_unread_key_raises_naming_it(scenario, path, value):
    spec = DECLARATIVE[scenario].override({path: value})
    with pytest.raises(
        ValueError, match=rf"^{path}: not a key of the '{scenario}' scenario"
    ):
        run_scenario(spec)


@pytest.mark.parametrize("scenario, path, value", [
    ("mixed_dumbbell", "flows.tcp_variant", "sack"),
    ("tfrc_lossy_path", "extra.measure_fraction", 0.5),
])
def test_unread_key_fails_its_sweep_cell_naming_both(scenario, path, value):
    with pytest.raises(SweepCellError) as raised:
        SweepRunner(DECLARATIVE[scenario], {path: [value]}).run()
    message = str(raised.value)
    assert f"{scenario}[{path}={value}]" in message
    assert f"ValueError: {path}: not a key of the '{scenario}' scenario" in message


@pytest.mark.parametrize("scenario, keys", [
    ("mixed_dumbbell", {
        "topology.queue_scaling_bandwidth": 15e6,
        "flows.interpacket_adjustment": False,
        "queue.buffer_packets": 20,
        "extra.measure_fraction": 0.25,
    }),
    ("tfrc_lossy_path", {
        "topology.bandwidth_bps": 4e6, "topology.packet_size": 500,
    }),
])
def test_every_key_a_scenario_reads_is_accepted(scenario, keys):
    """The layout each docstring gives runs, optional keys and all."""
    result = run_scenario(DECLARATIVE[scenario].override(keys))
    assert result != run_scenario(DECLARATIVE[scenario])
