"""``tfrc-sweep-fsck``: every finding kind, its ``--repair`` action, and
the CLI's exit codes / JSON report."""

import json
import os
import time

import pytest

import _executor_probe  # noqa: F401  (registers the "executor_probe" scenario)
from repro.scenarios import (
    FileQueue,
    FileQueueExecutor,
    ResultCache,
    ScenarioSpec,
    SweepCell,
    SweepPlan,
    SweepRunner,
)
from repro.scenarios._fsio import atomic_write_json
from repro.scenarios.fsck import audit, main as fsck_main

SPEC = ScenarioSpec("executor_probe", seed=7, extra={"x": 5})
KEY = f"{SPEC.scenario}-{SPEC.spec_hash()}"


def _queue(tmp_path):
    """An empty queue directory plus its default-location cache."""
    fq = FileQueue(tmp_path / "queue").ensure()
    cache = ResultCache(fq.root / "results")
    return fq, cache


def _payload(fq, cache, max_attempts=3):
    return {
        "key": KEY,
        "module": "_executor_probe",
        "spec": SPEC.to_dict(),
        "cache_dir": fq.encode_cache_dir(cache.root),
        "max_attempts": max_attempts,
    }


def _complete(fq, cache):
    """Put the probe cell into the healthy completed state."""
    cache.put(SPEC, {"x": 5, "seed": 7, "product": 35, "duration": 1.0})
    fq.complete(KEY, worker="test", elapsed_seconds=0.0, attempts=0)


def _kinds(findings):
    return sorted(f.kind for f in findings)


class TestAuditFindings:
    def test_clean_after_real_sweep(self, tmp_path):
        queue_dir = tmp_path / "queue"
        SweepRunner(
            ScenarioSpec("executor_probe", seed=3, extra={"x": 0}),
            {"extra.x": [1, 2], "seed": [10, 20]},
            cache_dir=str(queue_dir / "results"),
            executor=FileQueueExecutor(
                queue_dir, local_workers=1,
                poll_interval=0.02, lease_timeout=30.0,
            ),
        ).run()
        assert audit(queue_dir) == []

    @pytest.mark.parametrize("holder", ["test", "duplicate"])
    def test_collected_cell_releases_its_workers_lease(self, tmp_path, holder):
        """A local worker stopped after it published a cell's done marker but
        before it released its lease: collecting the cell releases that
        lease.  A lease another worker holds (a duplicate run of the cell)
        stays, and the audit names it."""
        fq, cache = _queue(tmp_path)
        _complete(fq, cache)  # the done marker names worker "test"
        atomic_write_json(
            fq.claim_path(KEY), {**_payload(fq, cache), "worker": holder}
        )
        executor = FileQueueExecutor(fq.root, poll_interval=0.02)
        plan = SweepPlan(
            cells=[SweepCell(index=0, overrides={}, spec=SPEC, key=KEY)],
            module_name="_executor_probe",
            cache=cache,
        )
        [completion] = executor.run_cells(plan)
        assert completion.worker == "test"
        if holder == "test":
            assert audit(fq.root) == []
        else:
            assert _kinds(audit(fq.root)) == ["stale_claim"]

    def test_corrupt_cache_entry(self, tmp_path):
        fq, cache = _queue(tmp_path)
        bad = cache.root / f"{KEY}.json"
        bad.write_text('{"truncated":')
        findings = audit(fq.root)
        assert _kinds(findings) == ["corrupt_cache_entry"]
        assert findings[0].repaired is None

        repaired = audit(fq.root, repair=True)
        assert repaired[0].repaired is not None
        assert not bad.exists()
        assert list(cache.quarantine_dir.iterdir())  # evidence preserved
        assert audit(fq.root) == []

    def test_misfiled_cache_entry(self, tmp_path):
        """An entry copied over another cell's name passes its checksum but
        holds the wrong spec; the audit finds it with no cell in hand."""
        fq, cache = _queue(tmp_path)
        _complete(fq, cache)
        other = ScenarioSpec("executor_probe", seed=8, extra={"x": 5})
        misfiled = cache.entry_path(other)
        misfiled.write_bytes(cache.entry_path(SPEC).read_bytes())
        findings = audit(fq.root)
        assert _kinds(findings) == ["corrupt_cache_entry"]
        assert findings[0].path == misfiled
        assert KEY in findings[0].detail and misfiled.stem in findings[0].detail

        audit(fq.root, repair=True)
        assert not misfiled.exists() and cache.get(SPEC) is not None
        assert audit(fq.root) == []

    def test_corrupt_done_marker(self, tmp_path):
        fq, _cache = _queue(tmp_path)
        (fq.done / f"{KEY}.json").write_text("not json")
        assert _kinds(audit(fq.root)) == ["corrupt_done"]
        audit(fq.root, repair=True)
        assert not (fq.done / f"{KEY}.json").exists()
        assert audit(fq.root) == []

    def test_done_without_result(self, tmp_path):
        fq, _cache = _queue(tmp_path)
        fq.complete(KEY, worker="test", elapsed_seconds=0.0, attempts=0)
        findings = audit(fq.root)
        assert _kinds(findings) == ["done_without_result"]
        audit(fq.root, repair=True)
        # marker withdrawn: the cell re-runs instead of being trusted
        assert not fq.done_path(KEY).exists()
        assert audit(fq.root) == []

    def test_corrupt_task_quarantined_with_record(self, tmp_path):
        fq, _cache = _queue(tmp_path)
        fq.task_path(KEY).write_text('{"spec": tru')
        assert _kinds(audit(fq.root)) == ["corrupt_task"]
        audit(fq.root, repair=True)
        assert not fq.task_path(KEY).exists()
        assert KEY in fq.quarantined_keys()
        records = fq.read_failures(KEY)
        assert records and records[-1]["kind"] == "corrupt_task"
        assert records[-1]["worker"] == "fsck"
        assert audit(fq.root) == []

    def test_task_after_done(self, tmp_path):
        fq, cache = _queue(tmp_path)
        _complete(fq, cache)
        fq.enqueue(_payload(fq, cache))
        assert _kinds(audit(fq.root)) == ["task_after_done"]
        audit(fq.root, repair=True)
        assert not fq.task_path(KEY).exists()
        assert fq.done_path(KEY).exists()  # the completion itself survives
        assert audit(fq.root) == []

    def test_budget_exhausted_task_dead_lettered(self, tmp_path):
        """The failure records judge the budget: three of them against a
        queued task's ``max_attempts=3`` (the state a reclaim racing a live
        worker leaves) is the finding, whatever the payload says."""
        fq, cache = _queue(tmp_path)
        fq.enqueue(_payload(fq, cache, max_attempts=3))
        for n in (1, 2):
            fq.record_failure(KEY, worker="w", kind="error", error=f"x{n}")
            assert audit(fq.root) == []  # below the budget: claimable
        fq.record_failure(KEY, worker="w", kind="error", error="x3")
        assert _kinds(audit(fq.root)) == ["budget_exhausted_task"]
        audit(fq.root, repair=True)
        assert not fq.task_path(KEY).exists()
        assert KEY in fq.quarantined_keys()
        [letter] = [
            json.loads(p.read_text())
            for p in fq.quarantine.glob("*.json")
        ]
        assert letter["kind"] == "retry_budget_exhausted"
        assert letter["task"] == _payload(fq, cache, max_attempts=3)
        # the full history, numbered by the records themselves
        assert [(r["attempts"], r["error"]) for r in letter["failures"]] == [
            (1, "x1"), (2, "x2"), (3, "x3"),
        ]
        assert audit(fq.root) == []

    def test_payload_attempts_field_is_not_the_budget(self, tmp_path):
        """An older version's task file says ``attempts=3`` of 3 with no
        record on file: nothing failed, so it is claimable, not a finding."""
        fq, cache = _queue(tmp_path)
        fq.enqueue({**_payload(fq, cache, max_attempts=3), "attempts": 3})
        assert audit(fq.root) == []

    def test_spent_cell_still_queued_beside_a_live_lease(self, tmp_path):
        """What a reclaim racing a live worker left behind under the old
        two-count protocol (still reachable with an older worker on the
        directory): two records against a budget of 2, the task published
        again, another worker's lease live.  The records are the finding."""
        fq, cache = _queue(tmp_path)
        task = _payload(fq, cache, max_attempts=2)
        fq.enqueue(task)
        claim, _ = fq.claim_next("W1")
        fq.fail_attempt(
            task, claim, worker="W1", kind="lease_expired", error="expired"
        )
        fq.claim_next("W2")
        fq.record_failure(KEY, worker="W1", kind="error", error="boom")
        fq.enqueue({**task, "attempts": 1})  # the older W1's republication

        [finding] = audit(fq.root)
        assert finding.kind == "budget_exhausted_task"
        assert finding.path == fq.task_path(KEY)
        audit(fq.root, repair=True)
        assert not fq.task_path(KEY).exists()
        [letter] = [
            json.loads(p.read_text()) for p in fq.quarantine.glob("*.json")
        ]
        assert [(r["attempts"], r["kind"]) for r in letter["failures"]] == [
            (1, "lease_expired"), (2, "error"),
        ]
        assert fq.claim_path(KEY).exists()  # W2's lease is not fsck's to drop
        assert audit(fq.root) == []

    def test_corrupt_claim_quarantined(self, tmp_path):
        fq, _cache = _queue(tmp_path)
        fq.claim_path(KEY).write_text("")
        assert _kinds(audit(fq.root)) == ["corrupt_claim"]
        audit(fq.root, repair=True)
        assert not fq.claim_path(KEY).exists()
        assert KEY in fq.quarantined_keys()
        assert audit(fq.root) == []

    def test_stale_claim_for_completed_cell(self, tmp_path):
        fq, cache = _queue(tmp_path)
        _complete(fq, cache)
        claim = fq.claim_path(KEY)
        json.dump(_payload(fq, cache), claim.open("w"))
        assert _kinds(audit(fq.root)) == ["stale_claim"]
        audit(fq.root, repair=True)
        assert not claim.exists()
        assert audit(fq.root) == []

    def test_expired_lease_requeued_only_with_bound(self, tmp_path):
        fq, cache = _queue(tmp_path)
        claim = fq.claim_path(KEY)
        payload = dict(_payload(fq, cache), worker="dead-host-1")
        json.dump(payload, claim.open("w"))
        old = time.time() - 5000.0
        os.utime(claim, (old, old))

        # without --lease-timeout an old claim is NOT a finding: a live
        # worker may simply be mid-cell with slow heartbeats
        assert audit(fq.root) == []

        findings = audit(fq.root, lease_timeout=60.0)
        assert _kinds(findings) == ["expired_lease"]
        audit(fq.root, lease_timeout=60.0, repair=True)
        assert not claim.exists()
        task = json.loads(fq.task_path(KEY).read_text())
        assert task["key"] == KEY
        assert "worker" not in task  # republished claimable, not leased
        # the coordinator's reclaim: charged to the budget, holder named
        [record] = fq.read_failures(KEY)
        assert record["kind"] == "lease_expired"
        assert (record["worker"], record["attempts"]) == ("dead-host-1", 1)
        assert audit(fq.root, lease_timeout=60.0) == []

    def test_expired_lease_past_the_budget_is_dead_lettered(self, tmp_path):
        """Repeated ``--repair`` runs cannot requeue a cell whose workers
        keep dying without bound: the reclaim that spends the budget
        dead-letters the cell instead of publishing it again."""
        fq, cache = _queue(tmp_path)
        old = time.time() - 5000.0
        for attempt in (1, 2):
            fq.enqueue(_payload(fq, cache, max_attempts=2))
            claim, _ = fq.claim_next(f"dead-host-{attempt}")
            os.utime(claim, (old, old))
            [finding] = audit(fq.root, lease_timeout=60.0, repair=True)
            assert finding.kind == "expired_lease"
            assert fq.task_path(KEY).exists() == (attempt == 1)
        assert "dead-lettered" in finding.repaired
        assert [r["worker"] for r in fq.read_failures(KEY)] == [
            "dead-host-1", "dead-host-2",
        ]
        assert KEY in fq.quarantined_keys()
        assert audit(fq.root, lease_timeout=60.0) == []

    def test_stale_tmp_litter(self, tmp_path):
        fq, cache = _queue(tmp_path)
        litter = [
            fq.tasks / f"{KEY}.json.tmp.123-abcd",
            cache.root / f"{KEY}.json.tmp.99-beef",
        ]
        for path in litter:
            path.write_text("{")
        assert _kinds(audit(fq.root)) == ["stale_tmp", "stale_tmp"]
        audit(fq.root, repair=True)
        assert not any(p.exists() for p in litter)
        assert audit(fq.root) == []

    def test_one_repair_pass_fixes_compound_damage(self, tmp_path):
        # A torn cache entry also invalidates its done marker: one
        # --repair pass must fix both (cache is scanned before done/).
        fq, cache = _queue(tmp_path)
        _complete(fq, cache)
        (cache.root / f"{KEY}.json").write_text('{"half')
        findings = audit(fq.root, repair=True)
        assert _kinds(findings) == ["corrupt_cache_entry", "done_without_result"]
        assert all(f.repaired for f in findings)
        assert audit(fq.root) == []


class TestFsckCli:
    def test_exit_codes_and_repair(self, tmp_path, capsys):
        fq, _cache = _queue(tmp_path)
        assert fsck_main([str(fq.root)]) == 0
        assert "clean" in capsys.readouterr().out

        fq.task_path(KEY).write_text("garbage")
        assert fsck_main([str(fq.root)]) == 1
        out = capsys.readouterr().out
        assert "corrupt_task" in out and "1 finding(s)" in out

        assert fsck_main([str(fq.root), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "quarantined cell(s)" in out

    def test_json_report(self, tmp_path, capsys):
        fq, _cache = _queue(tmp_path)
        (fq.done / f"{KEY}.json").write_text("nope")
        assert fsck_main([str(fq.root), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "tfrc-sweep-fsck"
        assert report["clean"] is False
        [record] = report["findings"]
        assert record == {
            "rule": "fsck.corrupt_done",
            "path": str(fq.done / f"{KEY}.json"),
            "line": 0,
            "severity": "error",
            "detail": record["detail"],
        }  # no "repaired" key until a repair ran

        assert fsck_main([str(fq.root), "--json", "--repair"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"][0]["repaired"]

        assert fsck_main([str(fq.root), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True

    def test_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            fsck_main([str(tmp_path / "missing")])
        assert exc.value.code == 2
        (tmp_path / "q").mkdir()
        with pytest.raises(SystemExit) as exc:
            fsck_main([str(tmp_path / "q"), "--lease-timeout", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "under", [False, True], ids=["file", "under-file"]
    )
    @pytest.mark.parametrize("arg", ["queue_dir", "--cache"])
    def test_file_where_a_directory_goes_exits_2(
        self, tmp_path, capsys, arg, under
    ):
        """A file used to be reported as a queue directory that "does not
        exist"; as --cache it died in a traceback."""
        afile = tmp_path / "afile"
        afile.write_text("")
        path = str(afile / "sub" if under else afile)
        (tmp_path / "q").mkdir()
        queue = str(tmp_path / "q")
        argv = [path] if arg == "queue_dir" else [queue, arg, path]
        with pytest.raises(SystemExit) as exc:
            fsck_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {arg}: {path!r}" in err
        assert "is not a directory" in err and "does not exist" not in err
        assert "Traceback" not in err
