"""Deterministic fault injection for the sweep fabric.

The file-queue fabric (:mod:`repro.scenarios.filequeue`, its coordinator
in :mod:`repro.scenarios.executors` and :mod:`repro.scenarios.worker`)
promises that a sweep survives worker crashes, torn writes, clock skew,
and poison cells, and that the reassembled
:class:`~repro.scenarios.sweep.SweepResult` is byte-identical to a clean
serial run.  This module makes that promise testable: a seeded
:class:`FaultPlan` schedules faults at named **sites** inside the queue
and cache I/O paths, and the chaos soak (``tests/test_chaos.py``) runs a
real multi-worker sweep under the plan and asserts the clean-run bytes.

Design constraints, in order:

1. **Deterministic and replayable.**  Whether a fault fires depends only
   on ``(plan.seed, site, cell key, attempt)`` -- never on call order,
   timing, or which worker happens to claim the cell -- so a plan produces
   the same fault schedule across any number of processes and reruns, and
   a failing seed reproduces exactly.
2. **Zero overhead when disabled.**  Every hook first calls
   :func:`active`, which is a cached ``None`` check; no plan object, no
   hashing, no I/O.  The simulation hot path has no hooks at all -- faults
   live strictly in the fabric's file I/O layer.
3. **Cross-process.**  Worker processes activate the same plan through
   the :data:`ENV_VAR` environment variable (pointing at a plan JSON
   written by :meth:`FaultPlan.dump`) and through nothing else.  The
   coordinator's local workers are its ``multiprocessing`` children, so
   they inherit its environment -- and, when forked, a copy of this
   module's state, which their first act (:func:`uninstall`) discards: a
   plan the coordinator only passed to :func:`install` stays there.

Fault sites (the keys of :attr:`FaultPlan.rates`):

``worker_kill``
    The worker "dies" (raises :class:`WorkerKilled`) after claiming a cell
    but before publishing any result: the lease goes stale and the
    coordinator must reclaim and requeue.
``torn_cache_write``
    The cell executes, but the worker crashes mid cache commit leaving a
    **torn** (truncated, checksum-failing) entry at the final path -- the
    state an unsynced rename can leave after power loss.  Corruption
    detection on read must quarantine the entry and re-execute the cell.
``corrupt_task_write``
    A task publication is torn: the ``tasks/<key>.json`` payload is
    truncated garbage.  ``FileQueue.claim_task`` must quarantine it (with
    a ``corrupt_task`` failure record) and the coordinator's liveness
    backstop must republish the cell.
``heartbeat_stall``
    The worker's heartbeat thread stalls for :attr:`FaultPlan.stall_seconds`
    (longer than the lease timeout): the coordinator reclaims a lease whose
    worker is actually still healthy, and the resulting duplicate
    execution must stay byte-identical (idempotent cache writes).
``clock_skew``
    The worker stamps its claim/heartbeats ``skew_seconds`` in the past,
    as a worker on an NFS mount with a skewed clock would: reclaim must
    not corrupt the sweep even when it fires against a live worker.
``delayed_rename``
    The tmp-file -> final atomic rename is delayed by
    :attr:`FaultPlan.delay_seconds`, widening every publication race
    window the fabric claims to tolerate.

Fired faults are logged (one JSON file per distinct decision, so
re-evaluated decisions never double-count) under :attr:`FaultPlan.log_dir`
when set; the soak asserts the required fault-kind coverage from that log.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Set

from repro.scenarios._fsio import atomic_write_json

#: environment variable naming a FaultPlan JSON file; worker processes
#: (which inherit the coordinator's environment) activate the plan from it.
ENV_VAR = "TFRC_FAULT_PLAN"

#: every recognized fault site, for validation and docs.
FAULT_SITES = (
    "worker_kill",
    "torn_cache_write",
    "corrupt_task_write",
    "heartbeat_stall",
    "clock_skew",
    "delayed_rename",
)


class WorkerKilled(BaseException):
    """A simulated hard worker death (fault injection only).

    Deliberately **not** an :class:`Exception`: the worker's failure
    handling must not catch it, record it, release the lease, or requeue
    the cell -- a real ``kill -9`` does none of those.  The worker loop
    handles it explicitly by abandoning its leases (which then expire and
    are reclaimed by the coordinator) and moving on, exactly as if a
    replacement worker had started.
    """


class FaultInjectionError(RuntimeError):
    """A malformed fault plan (bad site name, bad rate, unreadable file)."""


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of fabric faults.

    ``rates`` maps a fault site to the probability that the fault fires
    for a given ``(cell key, attempt)`` -- the decision is a pure hash of
    ``(seed, site, key, attempt)``, so it is identical in every process
    and on every rerun.  Retried cells get fresh decisions (the attempt
    number changes), which is what lets a chaos sweep converge: a fault
    that fired on attempt 0 almost never fires again on attempt 1.
    """

    seed: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    #: delayed_rename: how long the tmp -> final rename sleeps.
    delay_seconds: float = 0.05
    #: heartbeat_stall: how long the beat thread goes silent.
    stall_seconds: float = 3.0
    #: clock_skew: how far in the past a skewed worker stamps its lease.
    skew_seconds: float = 300.0
    #: directory for fired-fault records (None = no logging).
    log_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for site, rate in self.rates.items():
            if site not in FAULT_SITES:
                raise FaultInjectionError(
                    f"unknown fault site {site!r}; choose from {FAULT_SITES}"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise FaultInjectionError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate!r}"
                )
        self._logged: Set[str] = set()
        self._log_lock = threading.Lock()

    # ------------------------------------------------------------ decisions

    def _digest(self, site: str, key: str, attempt: int) -> "hashlib._Hash":
        return hashlib.sha256(
            f"{self.seed}:{site}:{key}:{attempt}".encode("utf-8")
        )

    def decide(self, site: str, key: str, attempt: int = 0) -> bool:
        """Pure decision: does ``site`` fire for ``(key, attempt)``?

        Free of side effects (no logging) so callers may re-evaluate it --
        e.g. the heartbeat thread checking its stall schedule every beat --
        without double-counting.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        digest = self._digest(site, key, attempt).digest()
        # 6 bytes -> uniform in [0, 1) with plenty of resolution.
        u = int.from_bytes(digest[:6], "big") / float(1 << 48)
        return u < rate

    def fires(self, site: str, key: str, attempt: int = 0) -> bool:
        """:meth:`decide`, plus a fired-fault log record on True."""
        if not self.decide(site, key, attempt):
            return False
        self._log(site, key, attempt)
        return True

    # -------------------------------------------------------------- logging

    def _log(self, site: str, key: str, attempt: int) -> None:
        if self.log_dir is None:
            return
        # One file per distinct decision: duplicate executions of the same
        # (site, key, attempt) -- e.g. after a lease is reclaimed from a
        # live worker -- overwrite rather than double-count.
        name = f"{site}.{self._digest(site, key, attempt).hexdigest()[:16]}"
        with self._log_lock:
            if name in self._logged:
                return
            self._logged.add(name)
        try:
            root = Path(self.log_dir)
            root.mkdir(parents=True, exist_ok=True)
            # Atomic but not fsynced: losing a log record on power loss is
            # harmless, a torn one would corrupt the soak's coverage count.
            atomic_write_json(
                root / f"{name}.json",
                {"site": site, "key": key, "attempt": attempt},
                durable=False,
                _fault_hook=False,
            )
        except OSError:  # pragma: no cover - log loss must never fault the run
            pass

    # ---------------------------------------------------------- (de)serialize

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rates": dict(self.rates),
            "delay_seconds": self.delay_seconds,
            "stall_seconds": self.stall_seconds,
            "skew_seconds": self.skew_seconds,
            "log_dir": self.log_dir,
        }

    def dump(self, path: "str | os.PathLike[str]") -> Path:
        """Write the plan JSON that :data:`ENV_VAR` points workers at.

        Committed via the shared tmp+fsync+rename helper: the fault layer
        injects torn writes, it must not be able to tear its own state
        file (a half-written plan would crash every spawned worker).
        """
        path = Path(path)
        atomic_write_json(path, self.to_dict(), _fault_hook=False)
        return path

    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "FaultPlan":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise FaultInjectionError(
                f"unreadable fault plan {path!r}: {exc}"
            ) from exc
        return cls(
            seed=int(data.get("seed", 0)),
            rates={k: float(v) for k, v in dict(data.get("rates", {})).items()},
            delay_seconds=float(data.get("delay_seconds", 0.05)),
            stall_seconds=float(data.get("stall_seconds", 3.0)),
            skew_seconds=float(data.get("skew_seconds", 300.0)),
            log_dir=data.get("log_dir"),
        )


# ------------------------------------------------------------------ activation

#: the installed plan; None = fault injection disabled (the normal state).
_ACTIVE: Optional[FaultPlan] = None
#: False until the environment has been consulted once; the cached result
#: keeps the per-I/O-op cost of `active()` at a single attribute check.
_ENV_CHECKED = False


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` in this process (None = deactivate)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = plan
    _ENV_CHECKED = True


def uninstall() -> None:
    """Deactivate fault injection and forget the cached env lookup."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = False


def active() -> Optional[FaultPlan]:
    """The plan in effect, lazily loaded from :data:`ENV_VAR` once."""
    global _ACTIVE, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(ENV_VAR)
        if path:
            _ACTIVE = FaultPlan.load(path)
    return _ACTIVE


def fires(site: str, key: str, attempt: int = 0) -> bool:
    """Hook: does ``site`` fire here?  False (fast) when no plan is active."""
    plan = active()
    return plan is not None and plan.fires(site, key, attempt)


# ------------------------------------------------------------ I/O fault hooks


def on_atomic_write(path: Path) -> None:
    """Hook inside the tmp-write/rename sequence (``delayed_rename``).

    Called by :func:`repro.scenarios._fsio.atomic_write_json` between the
    tmp-file write and the rename; keyed by the target file name so the
    delay schedule is stable no matter which process performs the write.
    """
    plan = active()
    if plan is None:
        return
    if plan.fires("delayed_rename", path.name):
        time.sleep(plan.delay_seconds)


def write_torn(path: Path, payload: Dict[str, Any]) -> None:
    """Leave a torn (truncated, unparseable) JSON file at ``path``.

    Simulates the on-disk state of a write that crashed without fsync:
    the file exists at its final name but holds only a prefix of the
    payload.  Used by the ``torn_cache_write`` / ``corrupt_task_write``
    sites; production code never calls this.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    # This IS the simulated crashed-write state the atomic helper prevents.
    # tfrc-audit: ignore[fsio.raw-write] -- deliberately torn
    with path.open("w", encoding="utf-8") as fh:
        fh.write(text[: max(1, len(text) // 2)])


def skewed_claim_time(key: str, attempt: int = 0) -> Optional[float]:
    """The (past) timestamp a ``clock_skew``-faulted worker stamps leases
    with, or None when the fault does not fire for this cell."""
    plan = active()
    if plan is None or not plan.fires("clock_skew", key, attempt):
        return None
    return time.time() - plan.skew_seconds


def heartbeat_stalled(key: str, attempt: int = 0) -> float:
    """Seconds the heartbeat thread should stall for this cell (0 = none).

    Uses :meth:`FaultPlan.decide` on re-evaluation paths so the beat loop
    can poll it without duplicate log records; the single log entry is
    written on the first call via :meth:`FaultPlan.fires`.
    """
    plan = active()
    if plan is None or not plan.fires("heartbeat_stall", key, attempt):
        return 0.0
    return plan.stall_seconds
