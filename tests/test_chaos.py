"""Chaos-hardening of the sweep fabric: deterministic fault injection
(`repro.scenarios.faults`), checksummed/durable cache entries, poison-cell
quarantine, and the acceptance soak -- a real multi-worker queue sweep
under a seeded FaultPlan whose ResultCache comes out byte-identical to a
clean serial run, with ``tfrc-sweep-fsck`` reporting a repairable-to-clean
state afterwards."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import _executor_probe  # noqa: F401  (registers the "executor_probe" scenario)
from reference_models import entry_checksum_reference
from repro.scenarios import (
    EQUATION_GRID_SCENARIO,
    FaultInjectionError,
    FaultPlan,
    FileQueue,
    FileQueueExecutor,
    ResultCache,
    ScenarioSpec,
    SweepCellError,
    SweepResult,
    SweepRunner,
)
from repro.scenarios import executors as executors_mod
from repro.scenarios import faults
from repro.scenarios.cache import verify_entry
from repro.scenarios.fsck import audit

BASE_PROBE = ScenarioSpec("executor_probe", seed=3, extra={"x": 0})


def grid_base(duration=1.0):
    return ScenarioSpec(
        EQUATION_GRID_SCENARIO,
        topology={"rtt": 0.1, "bandwidth_bps": 1.5e6, "packet_size": 1000},
        queue={"type": "red", "buffer_packets": 25},
        loss={"rate": 0.02},
        duration=duration,
    )


SOAK_GRID = {
    "topology.rtt": [0.05, 0.08, 0.12, 0.2],
    "loss.rate": [0.0, 0.01, 0.02, 0.05],
    "seed": [1, 2, 3, 4],
}


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultPlan:
    def test_decisions_are_pure_and_cross_instance(self):
        a = FaultPlan(seed=7, rates={"worker_kill": 0.3})
        b = FaultPlan(seed=7, rates={"worker_kill": 0.3})
        keys = [f"cell-{i}" for i in range(200)]
        assert [a.decide("worker_kill", k) for k in keys] == [
            b.decide("worker_kill", k) for k in keys
        ]
        # roughly the configured rate actually fires
        fired = sum(a.decide("worker_kill", k) for k in keys)
        assert 30 <= fired <= 90

    def test_attempt_changes_the_decision_schedule(self):
        plan = FaultPlan(seed=1, rates={"worker_kill": 0.5})
        keys = [f"cell-{i}" for i in range(64)]
        first = [plan.decide("worker_kill", k, 0) for k in keys]
        second = [plan.decide("worker_kill", k, 1) for k in keys]
        assert first != second  # retries get fresh decisions

    def test_bad_site_and_rate_rejected(self):
        # "batch_kill" was a site until the queue stopped leasing batches
        for site in ("bogus_site", "batch_kill"):
            with pytest.raises(FaultInjectionError):
                FaultPlan(rates={site: 0.1})
        with pytest.raises(FaultInjectionError):
            FaultPlan(rates={"worker_kill": 1.5})

    def test_dump_load_roundtrip_and_env_activation(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            seed=9,
            rates={"torn_cache_write": 0.25},
            log_dir=str(tmp_path / "log"),
        )
        path = plan.dump(tmp_path / "plan.json")
        assert FaultPlan.load(path).to_dict() == plan.to_dict()
        monkeypatch.setenv(faults.ENV_VAR, str(path))
        faults.uninstall()  # force the env lookup to happen afresh
        active = faults.active()
        assert active is not None and active.seed == 9

    def test_disabled_hooks_are_inert(self):
        assert faults.active() is None
        assert faults.fires("worker_kill", "any-key") is False
        assert faults.skewed_claim_time("any-key") is None
        assert faults.heartbeat_stalled("any-key") == 0.0

    def test_fired_faults_logged_once(self, tmp_path):
        plan = FaultPlan(
            seed=0, rates={"worker_kill": 1.0}, log_dir=str(tmp_path / "log")
        )
        for _ in range(3):  # duplicate evaluations must not double-count
            assert plan.fires("worker_kill", "cell-a", 0)
        records = list((tmp_path / "log").glob("*.json"))
        assert len(records) == 1
        assert json.loads(records[0].read_text())["key"] == "cell-a"


class TestCacheHardening:
    def test_entries_are_checksummed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = BASE_PROBE.override({"extra.x": 1})
        path = cache.put(spec, {"x": 1})
        entry = json.loads(path.read_text())
        assert entry["checksum"] == entry_checksum_reference(
            entry["spec"], entry["result"]
        )
        assert verify_entry(entry) is None
        assert verify_entry(entry, path.stem) is None
        assert cache.get(spec) == {"x": 1}

    def test_truncated_entry_quarantined_and_missed(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        spec = BASE_PROBE.override({"extra.x": 2})
        path = cache.put(spec, {"x": 2})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(spec) is None  # corrupt reads as a miss
        assert not path.exists()
        assert list(cache.quarantine_dir.iterdir())
        assert "quarantined" in capsys.readouterr().err
        # the cell re-executes and the cache heals
        cache.put(spec, {"x": 2})
        assert cache.get(spec) == {"x": 2}

    def test_tampered_result_fails_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = BASE_PROBE.override({"extra.x": 3})
        path = cache.put(spec, {"x": 3})
        entry = json.loads(path.read_text())
        entry["result"]["x"] = 999  # bit rot / manual edit
        path.write_text(json.dumps(entry))
        status, _result, defect = cache.get_status(spec)
        assert status == "corrupt" and "checksum mismatch" in defect

    def test_entry_without_checksum_is_quarantined_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(BASE_PROBE, {"extra.x": [4]}, cache_dir=str(tmp_path))
        path = cache.entry_path(runner.cells()[0].spec)
        runner.run()
        entry = json.loads(path.read_text())
        del entry["checksum"]  # one damaged byte in the key name
        entry["result"]["x"] = 99
        path.write_text(json.dumps(entry))
        assert cache.get_status(runner.cells()[0].spec)[2] == "entry has no checksum"
        swept = runner.run()
        assert swept.corrupt_entries == 1 and swept.cache_hits == 0
        assert swept.cells[0].result["x"] == 4  # re-ran, not read back as 99
        assert [q.name.split(".json.")[0] for q in cache.quarantine_dir.iterdir()] == [
            path.stem
        ]
        assert runner.run().cache_hits == 1  # the re-run's entry is whole

    def test_misfiled_entry_is_quarantined_and_rerun(self, tmp_path, capsys):
        """An entry copied over another cell's name carries a valid checksum
        -- of the wrong spec.  Reading it for the cell it is filed under
        names both keys, quarantines it and re-runs that cell."""
        runner = SweepRunner(
            BASE_PROBE, {"extra.x": [1, 2]}, cache_dir=str(tmp_path)
        )
        first, second = runner.cells()
        runner.run()
        cache = ResultCache(tmp_path)
        source, target = cache.entry_path(first.spec), cache.entry_path(second.spec)
        shutil.copy(source, target)
        status, result, defect = cache.get_status(second.spec, second.key)
        assert (status, result) == ("corrupt", None)
        assert first.key in defect and second.key in defect
        assert verify_entry(json.loads(target.read_text())) is None  # whole
        swept = runner.run()
        assert swept.corrupt_entries == 1 and swept.cache_hits == 1
        assert [cell.result["x"] for cell in swept.cells] == [1, 2]
        assert [q.name.split(".json.")[0] for q in cache.quarantine_dir.iterdir()] == [
            second.key
        ]
        assert "quarantined" in capsys.readouterr().err
        assert runner.run().cache_hits == 2


class TestClockSkewReclaim:
    def test_skewed_coordinator_clock_does_not_reclaim_live_lease(
        self, tmp_path, monkeypatch
    ):
        """Satellite fix: lease age must be measured against the queue
        directory's own clock (fs_now), not the coordinator's wall clock --
        a coordinator running 1000s fast must not insta-reclaim a healthy
        worker's fresh lease."""
        queue_dir = tmp_path / "q"
        fq = FileQueue(queue_dir).ensure()
        cell = SweepRunner(BASE_PROBE, {"extra.x": [1]}).cells()[0]
        executor = FileQueueExecutor(queue_dir, lease_timeout=30.0)
        key = f"executor_probe-{cell.spec.spec_hash()}"
        run = executors_mod._QueueRun(
            fq=fq,
            cache=ResultCache(queue_dir / "results"),
            module_name="_executor_probe",
            cache_dir="results",
            remaining={key: [cell]},
        )
        fq.enqueue(executor._payload(run, cell))
        claimed = fq.claim_next("healthy-worker")
        assert claimed is not None

        monkeypatch.setattr(
            executors_mod.time, "time", lambda: time.time() + 1000.0
        )
        executor._reclaim_expired(run)
        assert fq.claim_path(key).exists()  # lease untouched
        assert fq.failure_count(key) == 0

    def test_fs_now_tracks_filesystem_clock(self, tmp_path):
        fq = FileQueue(tmp_path / "q").ensure()
        before = time.time()
        now = fq.fs_now()
        # Coarse filesystem timestamps allowed for; the point is it is a
        # real current timestamp, not an unrelated clock domain.
        assert abs(now - before) < 5.0


class TestPoisonQuarantine:
    BOOM_GRID = {"extra.x": [1, 2, 3], "extra.boom": [2]}

    def test_raise_mode_carries_quarantine_evidence(self, tmp_path):
        executor = FileQueueExecutor(
            tmp_path / "q", local_workers=1, max_attempts=2,
            poll_interval=0.02, lease_timeout=30.0,
        )
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(
                BASE_PROBE, self.BOOM_GRID,
                cache_dir=str(tmp_path / "cache"), executor=executor,
            ).run()
        err = excinfo.value
        assert err.quarantine_path is not None and err.quarantine_path.exists()
        assert err.failures and all(
            "probe exploded on x=2" in r["error"] for r in err.failures
        )
        record = json.loads(err.quarantine_path.read_text())
        assert record["kind"] == "retry_budget_exhausted"
        assert len(record["failures"]) == 2

    def test_quarantine_mode_completes_the_rest(self, tmp_path, capsys):
        queue_dir = tmp_path / "q"
        executor = FileQueueExecutor(
            queue_dir, local_workers=1, max_attempts=2,
            poll_interval=0.02, lease_timeout=30.0, on_poison="quarantine",
        )
        sweep = SweepRunner(
            BASE_PROBE, self.BOOM_GRID,
            cache_dir=str(tmp_path / "cache"), executor=executor,
        ).run()
        poison = sweep.quarantined
        assert [c.overrides["extra.x"] for c in poison] == [2]
        assert poison[0].result is None
        assert "probe exploded on x=2" in poison[0].failure
        finished = [c for c in sweep.cells if c.result is not None]
        assert sorted(c.overrides["extra.x"] for c in finished) == [1, 3]
        # the dead letter is on disk with the failure history
        fq = FileQueue(queue_dir)
        key = (
            f"executor_probe-"
            f"{BASE_PROBE.override({'extra.x': 2, 'extra.boom': 2}).spec_hash()}"
        )
        assert key in fq.quarantined_keys()
        # coordinator summary names the poison cell
        assert "poison cell(s)" in capsys.readouterr().err
        # quarantine is informational: fsck still reports a clean state
        assert audit(queue_dir, cache_dir=tmp_path / "cache") == []

    def test_figure_reducer_names_the_quarantined_cell(self, tmp_path, monkeypatch):
        """A figure reduces its whole grid, so a dead-lettered cell must
        surface as SweepCellError -- it was a bare AssertionError, and a
        TypeError on ``None`` under ``python -O``."""
        from repro.experiments import fig20_halving as fig20

        executor = FileQueueExecutor(
            tmp_path / "q", local_workers=1, max_attempts=1,
            poll_interval=0.02, lease_timeout=30.0, on_poison="quarantine",
        )
        monkeypatch.setattr(fig20, "SWEEP_DURATION", 11.0)
        with pytest.raises(SweepCellError) as excinfo:
            fig20.run_sweep(
                initial_periods=(100, 0),
                cache_dir=str(tmp_path / "cache"), executor=executor,
            )
        err = excinfo.value
        assert "fig20_halving[" in str(err)
        assert err.cell is not None and err.cell.quarantined
        assert [c.result is not None for c in err.partial.cells] == [True, False]

    def test_complete_cells_names_every_cell_without_a_result(self):
        cells = SweepRunner(BASE_PROBE, {"extra.x": [1, 2]}).cells()
        cells[0].result = {"x": 1}
        cells[1].quarantined = True
        cells[1].failure = "probe exploded on x=2"
        sweep = SweepResult(cells=cells)
        with pytest.raises(SweepCellError) as excinfo:
            sweep.complete_cells()
        err = excinfo.value
        assert "executor_probe[extra.x=2] (probe exploded on x=2)" in str(err)
        assert err.cell is cells[1] and err.overrides == {"extra.x": 2}
        assert err.partial is sweep and sweep.results() == [{"x": 1}]
        cells[1].result = {"x": 2}
        assert sweep.complete_cells() == cells

    def test_fresh_run_clears_previous_dead_letters(self, tmp_path):
        """A rerun of the *same* cell after the transient cause is fixed
        must clear the old dead letter and complete, not stay poisoned."""
        queue_dir = tmp_path / "q"
        boom_file = tmp_path / "boom"
        grid = {"extra.x": [1, 2], "extra.boom_file": [str(boom_file)]}

        def attempt():
            executor = FileQueueExecutor(
                queue_dir, local_workers=1, max_attempts=2,
                poll_interval=0.02, lease_timeout=30.0,
                on_poison="quarantine",
            )
            return SweepRunner(
                BASE_PROBE, grid, cache_dir=str(tmp_path / "cache"),
                executor=executor,
            ).run()

        boom_file.write_text("transient outage")
        first = attempt()
        assert len(first.quarantined) == 2
        boom_file.unlink()  # the outage ends; identical specs rerun
        second = attempt()
        assert second.quarantined == []
        assert all(c.result is not None for c in second.cells)
        assert FileQueue(queue_dir).quarantined_keys() == set()


class TestChaosSoak:
    """The acceptance soak: >= 64 queue-executor cells under a seeded
    FaultPlan with every fault kind armed -- byte-identical cache, fault
    coverage from the fired-fault log, fsck-repairable to clean."""

    RATES = {
        "worker_kill": 0.08,
        "torn_cache_write": 0.08,
        "corrupt_task_write": 0.06,
        "heartbeat_stall": 0.06,
        "clock_skew": 0.06,
        "delayed_rename": 0.10,
    }

    def test_soak_byte_identical_to_clean_serial_run(
        self, tmp_path, monkeypatch
    ):
        base, grid = grid_base(), SOAK_GRID
        cells = SweepRunner(base, grid).cells()
        assert len(cells) == 64

        # -- clean serial reference (no faults installed)
        clean_dir = tmp_path / "clean-cache"
        clean = SweepRunner(
            base, grid, cache_dir=str(clean_dir), executor="serial"
        ).run()

        # -- chaos run: plan active in-process (coordinator hooks) and via
        #    the environment (the local workers re-read it; they drop the
        #    forked copy of the installed plan)
        log_dir = tmp_path / "fired"
        plan = FaultPlan(
            seed=1009,
            rates=dict(self.RATES),
            delay_seconds=0.02,
            stall_seconds=3.0,
            skew_seconds=300.0,
            log_dir=str(log_dir),
        )
        plan_path = plan.dump(tmp_path / "plan.json")
        monkeypatch.setenv(faults.ENV_VAR, str(plan_path))
        faults.install(plan)

        queue_dir = tmp_path / "q"
        chaos_dir = tmp_path / "chaos-cache"
        executor = FileQueueExecutor(
            queue_dir,
            local_workers=2,
            lease_timeout=1.0,
            poll_interval=0.02,
            max_attempts=8,
        )
        chaos = SweepRunner(
            base, grid, cache_dir=str(chaos_dir), executor=executor
        ).run()
        faults.uninstall()
        monkeypatch.delenv(faults.ENV_VAR)

        # -- the sweep converged to the exact clean results
        assert [c.result for c in chaos.cells] == [
            c.result for c in clean.cells
        ]
        clean_bytes = {
            p.name: p.read_bytes() for p in clean_dir.glob("*.json")
        }
        chaos_bytes = {
            p.name: p.read_bytes() for p in chaos_dir.glob("*.json")
        }
        assert len(clean_bytes) == 64
        assert clean_bytes == chaos_bytes

        # -- fault coverage: >= 5 distinct kinds actually fired, including
        #    a worker killed while holding a lease
        fired = {
            json.loads(p.read_text())["site"] for p in log_dir.glob("*.json")
        }
        assert "worker_kill" in fired, f"fired kinds: {sorted(fired)}"
        assert len(fired) >= 5, f"fired kinds: {sorted(fired)}"

        # -- the fabric actually took damage (this was not a clean run)
        fq = FileQueue(queue_dir)
        assert sum(fq.failure_counts().values()) > 0

        # -- fsck: one repair pass over the post-soak state, then clean
        audit(queue_dir, cache_dir=chaos_dir, repair=True)
        assert audit(queue_dir, cache_dir=chaos_dir) == []

    def test_fault_injection_disabled_is_default(self):
        """The zero-overhead guard's precondition: nothing leaks a plan
        into normal runs (the bench guard measures the actual overhead)."""
        assert faults.active() is None

    def test_bench_refuses_to_run_under_a_fault_plan(self, tmp_path):
        """Chaos timings must never land in a benchmark result."""
        plan = faults.FaultPlan(seed=1, rates={"delayed_rename": 1.0})
        plan_path = plan.dump(tmp_path / "plan.json")
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, str(root / "bench" / "run.py"),
             "--workload", "packet_dumbbell", "--scale", "tiny"],
            cwd=root, env={**os.environ, faults.ENV_VAR: str(plan_path)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert faults.ENV_VAR in done.stderr
        assert done.stdout == ""


class TestFaultStateWrites:
    def test_plan_dump_is_atomic_strict_json(self, tmp_path):
        """Satellite regression: the fault layer's own state file commits
        through the shared atomic helper (strict JSON, no tmp litter)."""
        plan = faults.FaultPlan(seed=3, rates={"worker_kill": 0.5})
        path = plan.dump(tmp_path / "plan.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["seed"] == 3
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert faults.FaultPlan.load(path).rates == {"worker_kill": 0.5}

    def test_fault_state_writes_bypass_the_fault_hook(self, tmp_path):
        """A plan that delays every atomic rename must not delay (or
        recursively re-enter) its own dump/log writes."""
        log_dir = tmp_path / "log"
        plan = faults.FaultPlan(
            seed=1,
            rates={"delayed_rename": 1.0, "worker_kill": 1.0},
            delay_seconds=30.0,
            log_dir=str(log_dir),
        )
        faults.install(plan)
        try:
            start = time.monotonic()
            plan.dump(tmp_path / "plan.json")
            assert plan.fires("worker_kill", "cell-1")  # writes a log record
            elapsed = time.monotonic() - start
        finally:
            faults.uninstall()
        assert elapsed < 5.0, "fault-layer state write hit its own fault hook"
        assert len(list(log_dir.glob("*.json"))) == 1
