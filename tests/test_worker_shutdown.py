"""Worker shutdown safety: a SIGTERM'd worker leaves an expirable lease
and no partial result; an in-process KeyboardInterrupt releases the lease
after the heartbeat thread stops."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import _executor_probe  # noqa: F401  (registers the "executor_probe" scenario)
from repro.scenarios import FileQueue, ResultCache, ScenarioSpec
from repro.scenarios import worker as sweep_worker
from repro.scenarios.fsck import audit

SPEC = ScenarioSpec("executor_probe", seed=11, extra={"x": 2, "sleep": 5.0})
KEY = f"{SPEC.scenario}-{SPEC.spec_hash()}"


def _enqueue(tmp_path, spec=SPEC):
    fq = FileQueue(tmp_path / "queue").ensure()
    cache = ResultCache(fq.root / "results")
    key = f"{spec.scenario}-{spec.spec_hash()}"
    fq.enqueue(
        {
            "key": key,
            "module": "_executor_probe",
            "spec": spec.to_dict(),
            "cache_dir": fq.encode_cache_dir(cache.root),
            "max_attempts": 3,
        }
    )
    return fq, cache, key


def _wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSigtermMidCell:
    def test_lease_survives_and_expires_without_partial_result(self, tmp_path):
        fq, cache, key = _enqueue(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.scenarios.worker",
                str(fq.root),
                "--worker-id", "victim",
                "--poll-interval", "0.05",
                "--heartbeat", "0.05",
                "--quiet",
            ],
            env=env,
        )
        try:
            claim = fq.claim_path(key)
            assert _wait_for(claim.exists), "worker never claimed the cell"

            # the lease is actively heartbeaten while the cell simulates
            first = claim.stat().st_mtime
            assert _wait_for(
                lambda: claim.exists() and claim.stat().st_mtime > first,
                timeout=5.0,
            ), "heartbeat never refreshed the lease"

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == -signal.SIGTERM
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # the kill left exactly the state lease reclaim is built for: the
        # claim file (now going stale) and nothing else -- no done marker,
        # no cache entry (partial or otherwise), no failure record.
        assert claim.exists()
        payload = json.loads(claim.read_text())
        assert payload["key"] == key and payload["worker"] == "victim"
        assert not fq.done_path(key).exists()
        assert len(cache) == 0
        assert fq.read_failures(key) == []

        # fsck sees only the expired lease; repair republishes the cell
        time.sleep(0.3)
        findings = audit(fq.root, lease_timeout=0.2)
        assert [f.kind for f in findings] == ["expired_lease"]
        audit(fq.root, lease_timeout=0.2, repair=True)
        assert not claim.exists()
        requeued = json.loads(fq.task_path(key).read_text())
        assert requeued["key"] == key
        assert "worker" not in requeued
        assert requeued["spec"] == SPEC.to_dict()


class TestKeyboardInterrupt:
    def test_process_one_releases_lease_and_stops_heartbeat(self, tmp_path):
        spec = ScenarioSpec(
            "executor_probe", seed=11, extra={"x": 2, "interrupt": 2}
        )
        fq, cache, key = _enqueue(tmp_path, spec)
        baseline = set(threading.enumerate())

        with pytest.raises(KeyboardInterrupt):
            sweep_worker.process_one(
                fq,
                worker_id="ctrl-c",
                heartbeat_interval=0.05,
                verbose=False,
            )

        # heartbeat thread joined (stopped *before* the release, so it
        # cannot touch a lease another worker re-claims on the same path)
        assert set(threading.enumerate()) == baseline

        # lease released cleanly: no claim left to expire, and no partial
        # result, done marker, or failure record for the interrupted cell
        assert list(fq.claims.glob("*.json")) == []
        assert not fq.done_path(key).exists()
        assert len(cache) == 0
        assert fq.read_failures(key) == []

    def test_interrupt_mid_batch_releases_every_lease(self, tmp_path):
        interrupting = ScenarioSpec(
            "executor_probe", seed=11, extra={"x": 2, "interrupt": 2}
        )
        innocent = ScenarioSpec("executor_probe", seed=11, extra={"x": 3})
        fq, cache, _ = _enqueue(tmp_path, interrupting)
        _enqueue(tmp_path, innocent)
        baseline = set(threading.enumerate())

        with pytest.raises(KeyboardInterrupt):
            # whichever cell the loop reaches first, every claim it took
            # must be released on the way out
            while True:
                sweep_worker.process_one(
                    fq,
                    worker_id="ctrl-c",
                    heartbeat_interval=0.05,
                    verbose=False,
                )

        assert set(threading.enumerate()) == baseline
        assert list(fq.claims.glob("*.json")) == []
        assert fq.read_failures(f"{interrupting.scenario}-{interrupting.spec_hash()}") == []
