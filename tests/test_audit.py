"""``tfrc-audit``: per-rule fixtures (hit / suppressed / allowlisted),
the stale-allowlist check, the CLI's shape, the shared findings schema,
and the repo smoke test asserting the tree is audit-clean."""

import importlib.util
import json
import time
from pathlib import Path
from textwrap import dedent

import pytest

import repro.analysis.audit as audit_pkg
from repro.analysis.audit import (
    AllowEntry,
    run_audit,
    run_audit_report,
)
from repro.analysis.audit import engine as audit_engine
from repro.analysis.audit.cli import (
    build_parser,
    main as audit_main,
    rules_markdown,
)
from repro.analysis.audit.records import finding_record, read_findings
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios import faults

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(text), encoding="utf-8")


def _rules(findings):
    return [f.rule for f in findings]


def _tree(tmp_path: Path) -> Path:
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    return tmp_path


# --------------------------------------------------------- determinism rules


class TestDeterminismRules:
    def test_wall_clock_hit_aliased_and_suppressed(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/probe.py", """\
            import time as t
            from datetime import datetime

            def sample():
                return t.time()

            def stamp():
                return datetime.now()

            def excused():
                return t.time()  # tfrc-audit: ignore[determinism.wall-clock] -- why
            """)
        findings = run_audit(root)
        assert _rules(findings) == ["determinism.wall-clock"] * 2
        assert findings[0].line == 5

    def test_wall_clock_not_checked_in_apps_layer(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/apps/pacer.py", """\
            import time

            def now():
                return time.time()
            """)
        assert run_audit(root) == []

    def test_global_rng_from_import_alias(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/core/jitter.py", """\
            from random import choice
            import random

            def pick(xs):
                return choice(xs)

            def draw():
                return random.random()

            def seeded():
                return random.Random(7).random()  # instance: fine
            """)
        assert _rules(run_audit(root)) == ["determinism.global-rng"] * 2

    def test_unsorted_listdir_vs_sanitized(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/net/walk.py", """\
            import os

            def bad(d):
                return [n for n in os.listdir(d)]

            def good(d):
                return sorted(os.listdir(d))

            def counted(p):
                return sum(1 for _ in p.glob("*.json"))

            def raw(p):
                for entry in p.iterdir():
                    yield entry
            """)
        findings = run_audit(root)
        assert _rules(findings) == ["determinism.unsorted-listdir"] * 2
        assert [f.line for f in findings] == [4, 13]

    def test_set_iteration(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/tcp/order.py", """\
            def bad(xs):
                return [x for x in set(xs)]

            def worse(xs):
                return list(set(xs))

            def good(xs):
                return sorted(set(xs))
            """)
        assert _rules(run_audit(root)) == ["determinism.set-iteration"] * 2


# ------------------------------------------------------------- fs-protocol


class TestFsioRules:
    def test_raw_writes_flagged_outside_fsio(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/leaky.py", """\
            import json

            def save(path, payload):
                path.write_text("boom")
                with open(path, "w") as fh:
                    json.dump(payload, fh, allow_nan=False)
            """)
        assert _rules(run_audit(root)) == [
            "fsio.raw-write", "fsio.raw-write", "fsio.stream-dump",
        ]

    def test_blessed_module_and_suppression(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/_fsio.py", """\
            def atomic(path, text):
                with path.open("w") as fh:
                    fh.write(text)
            """)
        _write(root, "src/repro/scenarios/torn.py", """\
            def tear(path):
                # tfrc-audit: ignore[fsio] -- deliberately torn
                with path.open("w") as fh:
                    fh.write("ha")
            """)
        assert run_audit(root) == []

    def test_append_mode_is_not_a_content_write(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/clock.py", """\
            def touch(sentinel):
                with sentinel.open("a"):
                    pass
            """)
        assert run_audit(root) == []


# ------------------------------------------------------------ cache contract


class TestCacheRules:
    def test_non_finite_in_registered_scenario(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/experiments/figx.py", """\
            import math
            from repro.scenarios import register_scenario

            @register_scenario("figx_cell")
            def run(spec):
                return {"metric": float("nan"), "bound": math.inf}

            def helper():
                return float("inf")  # not a scenario function: fine
            """)
        findings = run_audit(root)
        assert _rules(findings) == ["cache.non-finite-literal"] * 2

    def test_lenient_json_dump(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/apps/export.py", """\
            import json

            def bad(d):
                return json.dumps(d)

            def good(d):
                return json.dumps(d, allow_nan=False)
            """)
        assert _rules(run_audit(root)) == ["cache.lenient-json-dump"]


# -------------------------------------------------------- registry coherence


class TestRegistryRules:
    def test_duplicate_scenario(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/dupes.py", """\
            from repro.scenarios.spec import register_scenario

            @register_scenario("twice")
            def a(spec):
                return {}

            @register_scenario("twice")
            def b(spec):
                return {}
            """)
        assert _rules(run_audit(root)) == ["registry.duplicate-scenario"]

    def test_executor_name_drift_all_directions(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/executors.py", """\
            EXECUTOR_FACTORIES = {"serial": object}
            EXECUTOR_NAMES = tuple(EXECUTOR_FACTORIES)

            def wants_queue(executor):
                return executor == "bogus"
            """)
        _write(root, "src/repro/experiments/runner.py", """\
            def build(parser):
                parser.add_argument("--executor", choices=("serial",))
            """)
        rules = _rules(run_audit(root))
        assert rules.count("registry.executor-name-drift") == 2
        details = [f.detail for f in run_audit(root)]
        assert any("'bogus'" in d for d in details)  # compared, unknown
        assert any("choices" in d for d in details)  # CLI not on the table

    def test_executor_tables_in_agreement(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/executors.py", """\
            EXECUTOR_FACTORIES = {"serial": object}
            EXECUTOR_NAMES = tuple(EXECUTOR_FACTORIES)

            def wants_serial(executor):
                return executor == "serial"
            """)
        _write(root, "src/repro/experiments/runner.py", """\
            from repro.scenarios.executors import EXECUTOR_NAMES

            def build(parser):
                parser.add_argument("--executor", choices=EXECUTOR_NAMES)
            """)
        assert run_audit(root) == []

    def test_unregistered_scenario_ref_and_constant_resolution(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/scenarios/cells.py", """\
            from repro.scenarios.spec import register_scenario

            GRID_NAME = "grid_cell"

            @register_scenario(GRID_NAME)
            def run(spec):
                return {}
            """)
        _write(root, "src/repro/experiments/use.py", """\
            from repro.scenarios import ScenarioSpec

            def good():
                return ScenarioSpec(scenario="grid_cell")

            def bad():
                return ScenarioSpec(scenario="grid_cel")
            """)
        findings = run_audit(root)
        assert _rules(findings) == ["registry.unregistered-scenario-ref"]
        assert "grid_cel" in findings[0].detail


# --------------------------------------------------------- test-tier hygiene


class TestTestTierRules:
    HEAVY = dedent("""\
        import pytest
        from repro.scenarios import ScenarioSpec, SweepRunner

        def test_heavy():
            base = ScenarioSpec(scenario="x", duration=120.0)
            SweepRunner(base, {"a": [1, 2, 3, 4, 5], "b": [1, 2]}).run()
        """)

    def test_unmarked_heavy_test_flagged(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "tests/test_heavy.py", self.HEAVY)
        findings = run_audit(root)
        assert _rules(findings) == ["tests.missing-slow-marker"]
        assert "10 cell(s)" in findings[0].detail

    def test_marked_variants_pass(self, tmp_path):
        root = _tree(tmp_path)
        marked = self.HEAVY.replace(
            "def test_heavy():",
            "@pytest.mark.slow\ndef test_heavy():",
        )
        _write(root, "tests/test_marked.py", marked)
        _write(
            root, "tests/test_module_marked.py",
            "import pytest\npytestmark = pytest.mark.slow\n" + self.HEAVY,
        )
        assert run_audit(root) == []

    def test_small_grid_with_small_duration_passes(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "tests/test_light.py", """\
            from repro.scenarios import ScenarioSpec, SweepRunner

            def test_light():
                base = ScenarioSpec(scenario="x", duration=1.0)
                SweepRunner(base, {"a": [1, 2, 3, 4]}).run()
            """)
        assert run_audit(root) == []

    def test_huge_grid_flagged_even_without_duration(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "tests/test_wide.py", """\
            from repro.scenarios import SweepRunner

            def test_wide(base):
                grid = {"a": list(range(2)), "b": [1] * 3}
                SweepRunner(base, {
                    "a": [1, 2, 3, 4, 5, 6, 7, 8],
                    "b": [1, 2, 3, 4, 5, 6, 7, 8],
                    "c": [1, 2, 3, 4],
                }).run()
            """)
        findings = run_audit(root)
        assert _rules(findings) == ["tests.missing-slow-marker"]


# ----------------------------------------------------------- stale allowlist


class TestStaleAllowlist:
    def test_entry_matching_no_file_is_stale(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/ok.py", "X = 1.0\n")
        report = run_audit_report(root, (
            AllowEntry("src/repro/nowhere/", ("determinism",), "why"),
        ))
        assert len(report.stale_allowlist) == 1
        assert "matches no scanned file" in report.stale_allowlist[0]

    def test_entry_suppressing_nothing_is_stale(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/ok.py", "X = 1.0\n")
        report = run_audit_report(root, (
            AllowEntry("src/repro/sim/", ("determinism",), "why"),
        ))
        assert len(report.stale_allowlist) == 1
        assert "suppresses no finding" in report.stale_allowlist[0]

    def test_live_entry_is_not_stale(self, tmp_path):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/probe.py", """\
            import time

            def sample():
                return time.time()
            """)
        report = run_audit_report(root, (
            AllowEntry("src/repro/sim/", ("determinism",), "why"),
        ))
        assert report.findings == []
        assert report.stale_allowlist == []


# --------------------------------------------------- GitHub Actions rendering


class TestAnnotationsOutput:
    def test_error_annotation_per_finding(self, tmp_path, capsys):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/probe.py", """\
            import time

            def sample():
                return time.time()
            """)
        assert audit_main(["--root", str(root), "--annotations"]) == 1
        out = capsys.readouterr().out
        assert (
            "::error file=src/repro/sim/probe.py,line=4,"
            "title=tfrc-audit determinism.wall-clock::" in out
        )

    def test_clean_tree_emits_no_annotations(self, tmp_path, capsys):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/ok.py", "X = 1.0\n")
        assert audit_main(["--root", str(root), "--annotations"]) == 0
        assert "::error" not in capsys.readouterr().out


# ----------------------------------------------------------- rule-table sync


class TestRulesDocSync:
    def test_readme_rule_table_is_generated(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        begin = "<!-- tfrc-audit-rules:begin"
        end = "<!-- tfrc-audit-rules:end -->"
        assert begin in readme and end in readme, (
            "README must embed the generated rule table between "
            "tfrc-audit-rules markers"
        )
        start = readme.index(begin)
        start = readme.index("\n", start) + 1
        embedded = readme[start:readme.index(end)].strip()
        assert embedded == rules_markdown().strip(), (
            "README rule table drifted; paste the output of "
            "`tfrc-audit --rules-markdown` between the markers"
        )

    def test_cli_rules_markdown_flag(self, capsys):
        assert audit_main(["--rules-markdown"]) == 0
        out = capsys.readouterr().out
        assert out == rules_markdown()
        assert "`determinism.wall-clock`" in out


# ------------------------------------------------------------ the CLI gate


class TestBaselineGate:
    """The CLI gate: whole tree, exit 1 on any finding, 2 on a bad root.
    (The class name predates the baseline file's removal; it is kept so
    the test ids below stay stable.)"""

    def test_bad_root_is_a_usage_error(self, tmp_path):
        assert audit_main(["--root", str(tmp_path / "nowhere")]) == 2

    def test_one_way_to_run(self):
        """No baseline file, no partial-run mode, no config object: the
        only option besides the output format is the root."""
        options = {
            option
            for action in build_parser()._actions
            for option in action.option_strings
        }
        assert options == {
            "-h", "--help", "--root", "--json", "--annotations",
            "--rules-markdown",
        }
        assert importlib.util.find_spec("repro.analysis.audit.baseline") is None
        assert not hasattr(audit_pkg, "AuditConfig")
        assert not hasattr(audit_engine, "AuditConfig")


class TestSharedSchema:
    def test_audit_json_matches_shared_reader(self, tmp_path, capsys):
        root = _tree(tmp_path)
        _write(root, "src/repro/sim/probe.py", """\
            import time

            def sample():
                return time.time()
            """)
        assert audit_main(["--root", str(root), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "tfrc-audit"
        records = read_findings(report)
        assert [r["rule"] for r in records] == ["determinism.wall-clock"]
        assert records[0]["path"] == "src/repro/sim/probe.py"
        assert records[0]["line"] == 4
        assert records[0]["severity"] == "error"

    def test_reader_rejects_schema_regressions(self):
        good = finding_record(rule="x.y", path="p", detail="d")
        assert read_findings([good]) == [good]
        with pytest.raises(ValueError):
            read_findings([{"rule": "x.y", "path": "p"}])  # no detail/line
        with pytest.raises(ValueError):
            read_findings({"findings": "nope"})


def test_repo_audits_clean(capsys):
    """The whole tree audits clean, and every allowlist entry still
    suppresses something (a stale entry is a hole to delete)."""
    report = run_audit_report(REPO_ROOT)
    assert report.findings == []
    assert report.stale_allowlist == []
    assert audit_main(["--root", str(REPO_ROOT)]) == 0


# ---------------------------------------------- fabric regression (satellites)


@register_scenario("audit_probe")
def _audit_probe(spec: ScenarioSpec):
    return {"x": spec.extra.get("x", 0), "rtt": spec.topology.get("rtt", 0.0)}


class TestWallClockInvariance:
    def test_cached_cell_bytes_ignore_wall_clock(self, tmp_path, monkeypatch):
        """Satellite regression: no wall-clock value may reach cached cell
        results -- identical sweeps run under wildly different clocks must
        produce byte-identical cache entries."""
        base = ScenarioSpec(scenario="audit_probe", extra={"x": 1})

        def run_with_offset(offset: float, cache_dir: Path) -> bytes:
            real_time = time.time
            monkeypatch.setattr(
                time, "time", lambda: real_time() + offset
            )
            try:
                SweepRunner(
                    base, {"extra.x": [1, 2]}, cache_dir=str(cache_dir)
                ).run()
            finally:
                monkeypatch.setattr(time, "time", real_time)
            entries = sorted(cache_dir.glob("*.json"))
            assert len(entries) == 2
            return b"".join(p.read_bytes() for p in entries)

        first = run_with_offset(0.0, tmp_path / "a")
        second = run_with_offset(86_400.0, tmp_path / "b")
        assert first == second


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
