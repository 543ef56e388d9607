"""Sweep executor backends: serial/pool/queue equivalence, the file-queue
worker protocol (leases, heartbeats, crash resume, retry budget), and the
SweepCellError failure surface."""

import json
import os
import signal
import time

import pytest

import _executor_probe  # noqa: F401  (registers the "executor_probe" scenario)
from repro.scenarios import (
    FileQueue,
    FileQueueExecutor,
    ResultCache,
    ScenarioSpec,
    SweepCellError,
    SweepRunner,
    resolve_executor,
)
from repro.scenarios import executors as executors_mod
from repro.scenarios import worker as sweep_worker
from repro.scenarios.executors import execute_cells

BASE = ScenarioSpec("executor_probe", seed=3, extra={"x": 0})
GRID = {"extra.x": [1, 2, 3, 4], "seed": [10, 20]}

QUEUE_KW = dict(poll_interval=0.02, lease_timeout=30.0)


def _results(sweep):
    return [cell.result for cell in sweep.cells]


def _probe_payload(fq, spec, cache_root, max_attempts=3):
    """A task payload exactly as the coordinator would publish it."""
    return {
        "key": f"{spec.scenario}-{spec.spec_hash()}",
        "module": "_executor_probe",
        "spec": spec.to_dict(),
        "cache_dir": fq.encode_cache_dir(cache_root),
        "max_attempts": max_attempts,
    }


class TestExecutorEquivalence:
    def test_serial_pool_queue_identical_results(self, tmp_path):
        serial = SweepRunner(BASE, GRID, executor="serial").run()
        pool = SweepRunner(BASE, GRID, parallel=2, executor="pool").run()
        queue = SweepRunner(
            BASE, GRID,
            executor=FileQueueExecutor(
                tmp_path / "queue", local_workers=2, **QUEUE_KW
            ),
        ).run()
        assert _results(serial) == _results(pool) == _results(queue)
        # byte-identical under canonical serialization, not merely ==
        dumps = [
            json.dumps(_results(s), sort_keys=True)
            for s in (serial, pool, queue)
        ]
        assert dumps[0] == dumps[1] == dumps[2]

    def test_queue_cache_bytes_match_serial_cache(self, tmp_path):
        serial_dir = tmp_path / "serial-cache"
        queue_dir = tmp_path / "queue"
        queue_cache = tmp_path / "queue-cache"
        SweepRunner(BASE, GRID, cache_dir=str(serial_dir)).run()
        SweepRunner(
            BASE, GRID,
            cache_dir=str(queue_cache),
            executor=FileQueueExecutor(queue_dir, local_workers=2, **QUEUE_KW),
        ).run()
        serial_entries = {
            p.name: p.read_bytes() for p in serial_dir.glob("*.json")
        }
        queue_entries = {
            p.name: p.read_bytes() for p in queue_cache.glob("*.json")
        }
        assert serial_entries and serial_entries == queue_entries

    def test_queue_defaults_cache_into_queue_dir(self, tmp_path):
        queue_dir = tmp_path / "q"
        sweep = SweepRunner(
            BASE, {"extra.x": [5]},
            parallel=1, executor="queue", queue_dir=str(queue_dir),
        ).run()
        assert sweep.cells[0].result["x"] == 5
        assert list((queue_dir / "results").glob("*.json"))

    def test_external_worker_drains_coordinator_queue(self, tmp_path):
        """local_workers=0 + a worker thread playing the 'other host'."""
        import threading

        queue_dir = tmp_path / "q"
        executor = FileQueueExecutor(queue_dir, local_workers=0, **QUEUE_KW)
        drained = threading.Thread(
            target=sweep_worker.drain,
            args=(str(queue_dir),),
            kwargs=dict(
                worker_id="other-host", idle_timeout=20.0,
                poll_interval=0.02, verbose=False, max_cells=2,
            ),
            daemon=True,
        )
        drained.start()
        sweep = SweepRunner(
            BASE, {"extra.x": [1, 2]}, parallel=0, executor=executor,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        assert [c.result["x"] for c in sweep.cells] == [1, 2]
        drained.join(timeout=30)


class TestSweepCellError:
    BOOM_GRID = {"extra.x": [1, 2, 3], "extra.boom": [2]}

    def test_serial_failure_names_cell_and_keeps_partial(self, tmp_path):
        runner = SweepRunner(
            BASE, self.BOOM_GRID, cache_dir=str(tmp_path / "c")
        )
        with pytest.raises(SweepCellError) as excinfo:
            runner.run()
        err = excinfo.value
        assert "executor_probe[" in str(err) and "extra.x=2" in str(err)
        assert err.overrides == {"extra.x": 2, "extra.boom": 2}
        assert isinstance(err.__cause__, RuntimeError)
        # the partial result keeps the cell that finished before the failure
        assert err.partial is not None
        finished = [c for c in err.partial.cells if c.result is not None]
        assert [c.overrides["extra.x"] for c in finished] == [1]

    def test_pool_failure_names_cell_and_chains_cause(self):
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(
                BASE, self.BOOM_GRID, parallel=2, executor="pool"
            ).run()
        err = excinfo.value
        assert "extra.x=2" in str(err) and "pool worker" in str(err)
        assert isinstance(err.__cause__, RuntimeError)
        assert err.partial is not None

    def test_queue_failure_exhausts_retry_budget(self, tmp_path):
        queue_dir = tmp_path / "q"
        executor = FileQueueExecutor(
            queue_dir, local_workers=1, max_attempts=2, **QUEUE_KW
        )
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(BASE, self.BOOM_GRID, executor=executor).run()
        err = excinfo.value
        assert "extra.x=2" in str(err) and "budget 2" in str(err)
        # exactly max_attempts failure records for the exploding cell
        failing = BASE.override({"extra.x": 2, "extra.boom": 2})
        key = f"executor_probe-{failing.spec_hash()}"
        assert FileQueue(queue_dir).failure_count(key) == 2
        # the failed sweep withdraws its unclaimed tasks
        time.sleep(0.1)
        assert not list((queue_dir / "tasks").glob("*.json"))


    def test_retried_cell_reports_its_attempts(self, tmp_path, monkeypatch):
        """The attempt count the done marker stores reaches the user."""
        import io

        from repro.scenarios import print_progress

        boom_once = tmp_path / "boom-once"
        boom_once.write_text("fail the first attempt")
        stream = io.StringIO()
        monkeypatch.setattr("sys.stderr", stream)
        sweep = SweepRunner(
            BASE,
            {"extra.x": [1, 2], "extra.boom_once": [str(boom_once)]},
            executor=FileQueueExecutor(
                tmp_path / "q", local_workers=1, **QUEUE_KW
            ),
            progress=print_progress(),
        ).run()
        assert sweep.executor == "queue x1"
        assert [c.result["x"] for c in sweep.cells] == [1, 2]
        assert sorted(c.attempts for c in sweep.cells) == [0, 1]
        closing = stream.getvalue().splitlines()[-1]
        assert closing.startswith("[sweep] 2 cells: 0 cached, 2 run on queue x1")
        assert closing.endswith("x), 1 retried (error 1)")
        assert sorted(c.failure_kinds for c in sweep.cells) == [[], ["error"]]


class TestCrashResume:
    def test_stale_lease_reclaimed_and_finished_cells_not_recomputed(
        self, tmp_path
    ):
        touch_dir = tmp_path / "touches"
        base = BASE.override({"extra.touch_dir": str(touch_dir)})
        grid = {"extra.x": [1, 2, 3, 4, 5, 6]}
        expected = _results(SweepRunner(base, grid).run())

        queue_dir = tmp_path / "q"
        cache_root = tmp_path / "resume-cache"
        cache = ResultCache(cache_root)
        cells = SweepRunner(base, grid).cells()
        # three cells already finished before the "crash"
        for cell in cells[:3]:
            cache.put(cell.spec, expected[cell.index])
        # one unfinished cell is stuck under a dead worker's stale lease
        fq = FileQueue(queue_dir).ensure()
        stuck = cells[3].spec
        fq.enqueue(_probe_payload(fq, stuck, cache_root))
        claimed = fq.claim_next("dead-worker")
        assert claimed is not None
        claim_path, _ = claimed
        stale = time.time() - 100.0
        os.utime(claim_path, (stale, stale))

        serial_touches = len(list(touch_dir.glob("*")))
        executor = FileQueueExecutor(
            queue_dir, local_workers=1, lease_timeout=1.0, poll_interval=0.02,
        )
        sweep = SweepRunner(
            base, grid, cache_dir=str(cache_root), executor=executor
        ).run()

        assert _results(sweep) == expected
        assert json.dumps(_results(sweep), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert sweep.cache_hits == 3
        # only the three unfinished cells actually executed on the resume
        resumed_touches = len(list(touch_dir.glob("*"))) - serial_touches
        assert resumed_touches == 3
        # the dead worker's lease was reclaimed (recorded as lease_expired)
        key = f"executor_probe-{stuck.spec_hash()}"
        records = fq.read_failures(key)
        assert [r["kind"] for r in records] == ["lease_expired"]
        assert not fq.claim_path(key).exists()

    def test_resume_with_stale_spent_claim_still_completes(self, tmp_path):
        """Leftover failure records at the budget plus a dead worker's
        claim (an older version's, its payload saying ``attempts=2`` of 2)
        must not strand or abort the rerun: records are cleared, the lease
        is reclaimed, and the cell completes."""
        queue_dir = tmp_path / "q"
        cache_root = tmp_path / "cache"
        fq = FileQueue(queue_dir).ensure()
        spec = BASE.override({"extra.x": 6})
        key = f"executor_probe-{spec.spec_hash()}"
        for _ in range(2):
            fq.record_failure(
                key, worker="old-run", kind="error", error="boom"
            )
        fq.enqueue(
            {**_probe_payload(fq, spec, cache_root, max_attempts=2), "attempts": 2}
        )
        claimed = fq.claim_next("dead-worker")
        assert claimed is not None
        stale = time.time() - 100.0
        os.utime(claimed[0], (stale, stale))

        executor = FileQueueExecutor(
            queue_dir, local_workers=1, lease_timeout=1.0,
            poll_interval=0.02, max_attempts=2,
        )
        sweep = SweepRunner(
            BASE, {"extra.x": [6]}, cache_dir=str(cache_root),
            executor=executor,
        ).run()
        assert sweep.cells[0].result["x"] == 6
        # old records were cleared; only this run's reclaim is on file
        assert [r["kind"] for r in fq.read_failures(key)] == ["lease_expired"]

    def test_failed_sweep_rerun_gets_fresh_retry_budget(self, tmp_path):
        """Failure records from an aborted run must not poison the next
        one: a rerun re-attempts the cell instead of aborting instantly."""
        touch_dir = tmp_path / "touches"
        base = BASE.override({"extra.touch_dir": str(touch_dir)})
        grid = {"extra.x": [1, 2], "extra.boom": [2]}

        def attempt():
            executor = FileQueueExecutor(
                tmp_path / "q", local_workers=1, max_attempts=2, **QUEUE_KW
            )
            with pytest.raises(SweepCellError):
                SweepRunner(
                    base, grid, cache_dir=str(tmp_path / "cache"),
                    executor=executor,
                ).run()

        attempt()
        first = len(list(touch_dir.glob("x2-*")))
        assert first == 2  # the full retry budget was actually spent
        attempt()
        assert len(list(touch_dir.glob("x2-*"))) == first + 2

    def test_rerun_after_completion_is_all_cache_hits(self, tmp_path):
        queue_dir = tmp_path / "q"
        cache_dir = str(tmp_path / "cache")
        kwargs = dict(
            cache_dir=cache_dir,
            executor=FileQueueExecutor(
                queue_dir, local_workers=1, **QUEUE_KW
            ),
        )
        first = SweepRunner(BASE, {"extra.x": [7, 8]}, **kwargs).run()
        assert first.cache_hits == 0
        second = SweepRunner(BASE, {"extra.x": [7, 8]}, **kwargs).run()
        assert second.cache_hits == 2
        assert _results(first) == _results(second)


class TestOneAttemptCount:
    """How often a cell has failed is the number of its failure records --
    not a field copied into task payloads, which racing writers and
    leftover files used to leave out of step with the records."""

    def test_reclaim_racing_a_live_worker_numbers_records_apart(self, tmp_path):
        fq = FileQueue(tmp_path / "q").ensure()
        spec = BASE.override({"extra.x": 1})
        task = _probe_payload(fq, spec, tmp_path / "cache", max_attempts=2)
        key = task["key"]
        fq.enqueue(task)
        claim, w1_payload = fq.claim_next("W1")
        # the coordinator presumes W1 dead: reclaims the lease, republishes
        assert fq.fail_attempt(
            task, claim, worker="W1", kind="lease_expired", error="expired"
        )
        w2_claim, _ = fq.claim_next("W2")
        # W1 -- alive after all -- now fails the cell it still thinks it holds
        assert not fq.fail_attempt(
            w1_payload, claim, worker="W1", kind="error", error="boom",
            own_lease=True,
        )
        assert sorted(r["attempts"] for r in fq.read_failures(key)) == [1, 2]
        # the budget of 2 is met: W1 did not publish the cell a third time,
        # and W2's lease (same path as W1's old one) is untouched
        assert not fq.task_path(key).exists()
        assert json.loads(w2_claim.read_text())["worker"] == "W2"

    def test_leftover_payload_count_does_not_stop_the_requeue(self, tmp_path):
        """An older version's file says ``attempts=2`` of 3; no record is
        on file, so the worker that fails the cell republishes it itself
        instead of leaving it in no directory for the backstop to find."""
        fq = FileQueue(tmp_path / "q").ensure()
        spec = BASE.override({"extra.x": 5, "extra.boom": 5})
        task = _probe_payload(fq, spec, tmp_path / "cache", max_attempts=3)
        fq.enqueue({**task, "attempts": 2})
        assert sweep_worker.process_one(fq, worker_id="t5", verbose=False) is False
        key = task["key"]
        assert [r["attempts"] for r in fq.read_failures(key)] == [1]
        assert fq.task_path(key).exists()
        assert not fq.claim_path(key).exists()


class TestWorkerCli:
    def test_once_on_empty_queue_exits(self, tmp_path, capsys):
        assert sweep_worker.main([str(tmp_path / "q"), "--once"]) == 0
        assert "exiting after 0 cell(s)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "under", [False, True], ids=["file", "under-file"]
    )
    def test_file_as_queue_dir_exits_2(self, tmp_path, capsys, under):
        """A file (or a path under one) used to die in a
        NotADirectoryError traceback on '<file>/tasks'."""
        afile = tmp_path / "afile"
        afile.write_text("")
        path = str(afile / "q" if under else afile)
        with pytest.raises(SystemExit) as excinfo:
            sweep_worker.main([path, "--once"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument queue_dir: {path!r}" in err
        assert "is not a directory" in err and "Traceback" not in err

    def test_drains_manually_enqueued_task(self, tmp_path):
        queue_dir = tmp_path / "q"
        cache_root = tmp_path / "cache"
        fq = FileQueue(queue_dir).ensure()
        spec = BASE.override({"extra.x": 9})
        fq.enqueue(_probe_payload(fq, spec, cache_root))
        assert (
            sweep_worker.main(
                [str(queue_dir), "--once", "--quiet", "--worker-id", "t1"]
            )
            == 0
        )
        assert ResultCache(cache_root).get(spec) == {
            "x": 9, "seed": 3, "product": 27, "duration": 60.0,
        }
        key = f"executor_probe-{spec.spec_hash()}"
        marker = fq.read_done(key)
        assert marker is not None and marker["worker"] == "t1"
        assert not fq.claim_path(key).exists()
        assert not fq.task_path(key).exists()

    def test_cached_cell_completes_without_execution(self, tmp_path):
        queue_dir = tmp_path / "q"
        cache_root = tmp_path / "cache"
        touch_dir = tmp_path / "touches"
        fq = FileQueue(queue_dir).ensure()
        spec = BASE.override(
            {"extra.x": 4, "extra.touch_dir": str(touch_dir)}
        )
        ResultCache(cache_root).put(spec, {"x": 4, "precomputed": True})
        fq.enqueue(_probe_payload(fq, spec, cache_root))
        executed = sweep_worker.drain(
            str(queue_dir), worker_id="t2", once=True, verbose=False
        )
        assert executed == 1
        marker = fq.read_done(f"executor_probe-{spec.spec_hash()}")
        assert marker is not None and marker["cached"] is True
        assert not touch_dir.exists()  # never actually ran

    def test_failing_cell_requeued_until_budget_spent(self, tmp_path):
        queue_dir = tmp_path / "q"
        cache_root = tmp_path / "cache"
        fq = FileQueue(queue_dir).ensure()
        spec = BASE.override({"extra.x": 5, "extra.boom": 5})
        fq.enqueue(_probe_payload(fq, spec, cache_root, max_attempts=2))
        sweep_worker.drain(
            str(queue_dir), worker_id="t3", once=True, verbose=False
        )
        key = f"executor_probe-{spec.spec_hash()}"
        assert fq.failure_count(key) == 2
        assert fq.read_done(key) is None
        assert not fq.task_path(key).exists()  # budget spent: not requeued
        records = fq.read_failures(key)
        assert all("probe exploded on x=5" in r["error"] for r in records)


    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "flag",
        [
            "--poll-interval", "--max-poll-interval", "--idle-timeout",
            "--heartbeat", "--cell-timeout", "--max-cells",
            "tfrc-experiment:--lease-timeout", "tfrc-experiment:--max-attempts",
            "tfrc-sweep-fsck:--lease-timeout",
        ],
    )
    def test_malformed_number_exits_2_naming_the_flag(
        self, tmp_path, capsys, flag, value
    ):
        """NaN fails every ``<= 0`` test, so each of these used to be
        accepted (``--idle-timeout nan`` then never exited; ``tfrc-sweep-fsck
        --lease-timeout nan`` could never flag a lease; ``tfrc-experiment
        --lease-timeout nan`` died in a traceback).  A bare flag is the
        worker's; the other two fabric CLIs are named before the colon."""
        from repro.experiments import runner
        from repro.scenarios import fsck

        queue_dir = tmp_path / "q"
        cli, _, flag = flag.rpartition(":")
        main, argv = {
            "": (sweep_worker.main, [str(queue_dir), "--once"]),
            "tfrc-sweep-fsck": (fsck.main, [str(queue_dir)]),
            "tfrc-experiment": (
                runner.main,
                ["fig20", "--quick", "--executor", "queue",
                 "--queue-dir", str(queue_dir)],
            ),
        }[cli]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [f"{flag}={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and repr(value) in err
        assert "Traceback" not in err
        assert not queue_dir.exists()  # rejected before touching the queue


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="--cell-timeout needs SIGALRM"
)
class TestCellTimeout:
    HUNG = BASE.override({"extra.x": 1, "extra.sleep": 30.0})

    def test_scalar_timeout_restores_handler_and_next_cell_runs(self):
        def sentinel(signum, frame):  # pragma: no cover - never delivered
            raise AssertionError("stale SIGALRM reached the old handler")

        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            [(result, elapsed, failure)] = execute_cells(
                "_executor_probe", [self.HUNG], cell_timeout=0.2
            )
            assert result is None and 0.2 <= elapsed < 5.0
            assert failure[0] == "timeout" and "0.2s" in failure[1]
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            [(result, _elapsed, failure)] = execute_cells(
                "_executor_probe",
                [BASE.override({"extra.x": 2})],
                cell_timeout=0.2,
            )
            assert failure is None and result["x"] == 2
            assert signal.getsignal(signal.SIGALRM) is sentinel
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_timed_out_batch_splits_to_scalar_lanes(self, monkeypatch):
        from repro.scenarios import VectorFallbackWarning, run_scenario

        batches = []

        def hung_batch(specs):
            batches.append(len(specs))
            time.sleep(30.0)

        monkeypatch.setattr(executors_mod, "run_vector_batch", hung_batch)
        specs = [
            ScenarioSpec("tfrc_equation_grid", duration=0.5, seed=seed)
            for seed in (1, 2, 3)
        ]
        with pytest.warns(VectorFallbackWarning, match="wall-clock bound"):
            outcomes = execute_cells(
                "repro.scenarios.vector", specs, cell_timeout=0.3
            )
        assert batches == [3]  # one lockstep attempt, then per-lane scalar
        assert [failure for _r, _e, failure in outcomes] == [None] * 3
        assert [result for result, _e, _f in outcomes] == [
            run_scenario(spec) for spec in specs
        ]

    def test_hung_cell_is_recorded_and_requeued_by_the_worker(self, tmp_path):
        fq = FileQueue(tmp_path / "q").ensure()
        fq.enqueue(_probe_payload(fq, self.HUNG, tmp_path / "cache"))
        assert (
            sweep_worker.process_one(
                fq, worker_id="t4", verbose=False, cell_timeout=0.2
            )
            is False
        )
        key = f"executor_probe-{self.HUNG.spec_hash()}"
        assert [r["kind"] for r in fq.read_failures(key)] == ["timeout"]
        assert fq.failure_count(key) == 1 and fq.task_path(key).exists()
        assert not fq.claim_path(key).exists()
        assert fq.read_done(key) is None

    def test_bound_reaches_the_queue_executors_local_workers(self, tmp_path):
        """``cell_timeout`` travels as ``--cell-timeout`` and the alarm
        fires in the worker process the coordinator started."""
        executor = FileQueueExecutor(
            tmp_path / "q", local_workers=1, cell_timeout=0.2,
            max_attempts=1, **QUEUE_KW,
        )
        with pytest.raises(SweepCellError, match="0.2s wall-clock bound") as excinfo:
            SweepRunner(
                self.HUNG, cache_dir=str(tmp_path / "cache"), executor=executor
            ).run()
        assert [r["kind"] for r in excinfo.value.failures] == ["timeout"]


class TestExecutorArguments:
    @staticmethod
    def _local_config(executor):
        """(worker processes, batch limit) of a resolved local executor."""
        return executor.workers, executor.batch_limit

    def test_resolve_defaults_preserve_legacy_behavior(self):
        serial, pool = (0, 1), (4, 1)
        assert self._local_config(resolve_executor(None, parallel=1)) == serial
        assert self._local_config(resolve_executor(None, parallel=4)) == pool
        # a single pending cell short-circuits to serial, as before
        assert (
            self._local_config(resolve_executor(None, parallel=4, pending=1))
            == serial
        )

    def test_invalid_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(BASE, executor="bogus")
        with pytest.raises(ValueError):
            SweepRunner(BASE, executor="queue")  # no queue_dir
        with pytest.raises(ValueError):
            SweepRunner(BASE, parallel=0)  # 0 only valid with queue
        with pytest.raises(ValueError):
            resolve_executor("queue")
        with pytest.raises(ValueError):
            FileQueueExecutor(tmp_path, local_workers=-1)
        with pytest.raises(ValueError):
            FileQueueExecutor(tmp_path, max_attempts=0)
        # parallel=0 with the queue executor is the external-workers mode
        SweepRunner(
            BASE, parallel=0, executor="queue", queue_dir=str(tmp_path / "q")
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0, -1])
    @pytest.mark.parametrize(
        "argument", ["lease_timeout", "poll_interval", "cell_timeout"]
    )
    def test_queue_executor_seconds_must_be_finite_and_positive(
        self, tmp_path, argument, value
    ):
        with pytest.raises(ValueError, match=f"{argument} must be .* > 0"):
            FileQueueExecutor(tmp_path, **{argument: value})

    def test_queue_executor_requires_cache(self, tmp_path):
        from repro.scenarios import SweepPlan

        executor = FileQueueExecutor(tmp_path / "q")
        with pytest.raises(ValueError, match="cache"):
            next(
                executor.run_cells(
                    SweepPlan(cells=[], module_name="_executor_probe")
                )
            )


@pytest.mark.slow
class TestFig06SubGridEquivalence:
    """Acceptance: a real figure sub-grid is byte-identical across all
    three executors (two workers for pool and queue)."""

    def test_fig06_subgrid_serial_pool_queue(self, tmp_path):
        from repro.experiments import fig06_fairness_grid as fig06

        kwargs = dict(
            link_rates_mbps=(1, 2), flow_counts=(2,), queue_types=("red",),
            duration=4.0, seed=0,
        )
        serial = fig06.run(**kwargs)
        pool = fig06.run(parallel=2, executor="pool", **kwargs)
        queue = fig06.run(
            parallel=2, executor="queue",
            queue_dir=str(tmp_path / "q"),
            cache_dir=str(tmp_path / "cache"),
            **kwargs,
        )
        canon = [
            json.dumps([cell.__dict__ for cell in res.cells], sort_keys=True)
            for res in (serial, pool, queue)
        ]
        assert canon[0] == canon[1] == canon[2]
