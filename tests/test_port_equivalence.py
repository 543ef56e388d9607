"""Port-equivalence: scenario-registered figures vs their pre-port glue.

PR 3 ported the remaining figure experiments onto the ``ScenarioSpec`` /
``SweepRunner`` subsystem.  These tests pin the port: for two of the ported
figures (2 and 20/21) the registered scenario must produce **byte-identical**
results to the hand-rolled glue it replaced (re-implemented inline here,
verbatim from the pre-port modules), and the results must survive the JSON
round-trip the sweep cache performs.

Also here: the SACK-recovery sanity check for the RFC 2018 block-ordering
fix -- recovery on the dumbbell must keep working (the SACK sender registers
blocks order-insensitively, so only the wire ordering changed).
"""

import json

import pytest

from repro.experiments import fig02_loss_interval as fig02
from repro.experiments import fig19_increase as fig19
from repro.experiments import fig20_halving as fig20
from repro.net.path import periodic_loss, scheduled_loss
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.builders import run_single_tfrc_on_lossy_path


def _preport_fig02(duration=12.0, rtt=0.1, t_phase2=6.0, t_phase3=9.0,
                   probe_interval=0.1):
    """The pre-port Figure 2 glue, verbatim: hand-built scheduled loss and
    a probe appending to plain lists."""
    model = scheduled_loss(
        [
            (0.0, periodic_loss(100)),
            (t_phase2, periodic_loss(10)),
            (t_phase3, periodic_loss(200)),
        ]
    )
    series = {
        "times": [], "current_interval": [], "estimated_interval": [],
        "loss_event_rate": [], "tx_rate_bytes": [],
    }

    def probe(sim, flow):
        series["times"].append(sim.now)
        series["current_interval"].append(
            flow.receiver.detector.open_interval_packets()
        )
        series["estimated_interval"].append(
            flow.receiver.intervals.average_interval()
        )
        series["loss_event_rate"].append(flow.receiver.loss_event_rate())
        series["tx_rate_bytes"].append(flow.sender.rate)

    run_single_tfrc_on_lossy_path(
        loss_model=model, duration=duration, rtt=rtt,
        probe=probe, probe_interval=probe_interval,
    )
    return series


def _preport_fig20(initial_period=100, congested_period=2, onset=10.0,
                   duration=14.0, rtt=0.1):
    """The pre-port Figure 20 glue, verbatim."""
    model = scheduled_loss(
        [
            (0.0, periodic_loss(initial_period)),
            (onset, periodic_loss(congested_period)),
        ]
    )
    series = {"times": [], "rates": []}

    def probe(sim, flow):
        series["times"].append(sim.now)
        series["rates"].append(flow.sender.rate)

    run_single_tfrc_on_lossy_path(
        loss_model=model, duration=duration, rtt=rtt,
        probe=probe, probe_interval=rtt / 2.0,
    )
    return series


#: (figure entry point, its scale keywords, cells in its sweep): what the
#: parallel and cache cases below push ``SweepRunner`` options through.
SWEEP_ENTRIES = [
    (fig20.run, {}, 1),
    (fig20.run_sweep, {"initial_periods": (100, 10)}, 2),
    (fig02.run, {"duration": 12.0}, 1),
    (fig19.run, {}, 1),
]


@pytest.fixture
def short_fig20(monkeypatch):
    """Figures 20 and 21 at 12 simulated seconds, two past the onset."""
    monkeypatch.setattr(fig20, "DURATION", 12.0)
    monkeypatch.setattr(fig20, "SWEEP_DURATION", 12.0)


class TestFig02PortEquivalence:
    def test_scenario_matches_preport_glue_byte_identically(self):
        glue = _preport_fig02(duration=12.0)
        ported = fig02.run(duration=12.0)
        assert ported.times == glue["times"]
        assert ported.current_interval == glue["current_interval"]
        assert ported.estimated_interval == glue["estimated_interval"]
        assert ported.loss_event_rate == glue["loss_event_rate"]
        assert ported.tx_rate_bytes == glue["tx_rate_bytes"]

    def test_cell_result_survives_json_round_trip(self):
        """What the sweep cache stores must reload bit-for-bit."""
        spec = ScenarioSpec(
            scenario="fig02_loss_interval",
            duration=12.0,
            topology={"rtt": 0.1},
            loss={
                "model": "scheduled",
                "phases": [
                    {"at": 0.0, "model": "periodic", "period": 100, "offset": 0},
                    {"at": 6.0, "model": "periodic", "period": 10, "offset": 0},
                    {"at": 9.0, "model": "periodic", "period": 200, "offset": 0},
                ],
            },
            extra={"probe_interval": 0.1},
        )
        result = run_scenario(spec)
        assert json.loads(json.dumps(result)) == result


class TestFig20PortEquivalence:
    def test_scenario_matches_preport_glue_byte_identically(self):
        glue = _preport_fig20()
        ported = fig20.run()
        assert ported.times == glue["times"]
        assert ported.rates == glue["rates"]

    def test_sweep_matches_preport_serial_loop(self, short_fig20):
        """Figure 21's grid: every cell equals a direct pre-port run."""
        periods = (100, 10)
        sweep = fig20.run_sweep(initial_periods=periods)
        for period, drop_rate, rtts in zip(
            periods, sweep.drop_rates, sweep.rtts_to_halve
        ):
            glue = _preport_fig20(initial_period=period, duration=12.0)
            glue_result = fig20.HalvingResult(
                times=glue["times"], rates=glue["rates"],
                onset=10.0, rtt=0.1,
            )
            assert drop_rate == 1.0 / period
            assert rtts == glue_result.rtts_to_halve()

    def test_parallel_cells_identical_to_serial(self, short_fig20):
        for entry, scale, cells in SWEEP_ENTRIES:
            progressed = []
            parallel = entry(
                **scale, parallel=2,
                progress=lambda done, total, cell: progressed.append((done, total)),
            )
            assert parallel == entry(**scale), entry.__module__
            # one progress call per cell, through the figure entry point
            assert progressed == [(n + 1, cells) for n in range(cells)]

    def test_cache_round_trip_is_exact(self, tmp_path, short_fig20):
        for entry, scale, cells in SWEEP_ENTRIES:
            hits = []
            options = {
                "cache_dir": str(tmp_path / entry.__module__ / entry.__name__),
                "progress": lambda done, total, cell: hits.append(cell.from_cache),
            }
            live = entry(**scale, **options)
            cached = entry(**scale, **options)
            assert cached == live, entry.__module__
            assert hits == [False] * cells + [True] * cells


class TestSackRecoveryOnDumbbell:
    """The RFC 2018 recency fix only reorders the blocks on the wire: the
    SACK sender's scoreboard is a set union over all blocks, so recovery
    must still work.  Drive a SACK TCP flow through a congested dumbbell
    and check it recovers losses without collapsing into timeouts."""

    def test_sack_recovery_still_progresses(self):
        from repro.net import Dumbbell, DumbbellConfig
        from repro.sim import Simulator
        from repro.tcp.flow import TcpFlow

        sim = Simulator()
        config = DumbbellConfig(
            bandwidth_bps=1.5e6, queue_type="droptail", buffer_packets=8
        )
        dumbbell = Dumbbell(sim, config)
        fwd, rev = dumbbell.attach_flow("tcp", 0.08)
        flow = TcpFlow(sim, "tcp", fwd, rev, variant="sack")
        flow.start()
        sim.run(until=30.0)
        sender = flow.sender
        # The shallow buffer forces drops; SACK fast recovery must repair
        # them (retransmissions without a timeout collapse) while still
        # delivering the large majority of packets.
        assert sender.retransmissions > 0
        assert sender.packets_sent > 1000
        assert sender.timeouts <= sender.retransmissions
        # Utilization sanity: the flow keeps the link busy.
        assert dumbbell.forward_link.packets_forwarded > 0.8 * sender.packets_sent
