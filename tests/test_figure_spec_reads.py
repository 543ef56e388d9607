"""A figure scenario reads each key its entry point writes, with no default.

A hand-built spec that leaves out such a key fails, naming it, instead of
running on a value the scenario made up.  The one key no entry point writes,
fig14's ``queue.type``, keeps its single default: DropTail.
"""

from dataclasses import asdict

import pytest

from repro.experiments import fig02_loss_interval as fig02
from repro.experiments import fig14_queue_dynamics as fig14
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


def test_fig14_queue_type_defaults_to_droptail():
    spec = ScenarioSpec(
        scenario="fig14_queue_dynamics",
        duration=3.0,
        seed=1,
        topology={"bandwidth_bps": 2e6, "base_rtt": 0.045, "start_spread": 1.0},
        flows={"protocol": "tcp", "n_flows": 3},
        queue={"buffer_packets": 30},
        extra={"web_fraction": 0.1},
    )
    result = run_scenario(spec)
    droptail = fig14.run_one(
        "tcp", n_flows=3, link_bps=2e6, duration=3.0, base_rtt=0.045,
        start_spread=1.0, buffer_packets=30, web_fraction=0.1, seed=1,
        queue_type="droptail",
    )
    assert result == asdict(droptail)
    red = run_scenario(spec.override({"queue.type": "red"}))
    assert red != result
