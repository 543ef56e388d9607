"""Tests of the benchmark itself.

Run with ``python -m pytest bench/tests -q`` from the repository root;
this directory is outside ``testpaths``, so the tier-1 suite is unchanged.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
import spans
import timing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]

WORKLOAD_NAMES = [
    "packet_dumbbell", "packet_traced", "lossy_path_grid",
    "equation_grid_vector", "cache_warm_replay", "fabric_pool_queue",
    "figures_quick",
]
END_TO_END = ["setup_s", "wall_s", "cells_per_s", "peak_rss_mb"]


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ declaration


def test_benchmark_json_declares_what_the_issue_names():
    spec = declared()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert len(spec["per_layer"]) <= 128
    names = [
        m["name"]
        for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = spec["end_to_end"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_every_probe_metric_is_declared():
    per_layer = {m["name"] for m in declared()["per_layer"]}
    assert set(layers.probe_metrics()) <= per_layer


# ------------------------------------------------------------------ smoke


def test_tiny_smoke_emits_every_declared_metric():
    """Every workload, plain and traced, at smoke scale, in under a minute."""
    spec = declared()
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--repeats", "1", "--scale", "tiny", "--seconds", "0.2"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 60.0
    printed = {
        tuple(line.split()[:2]) for line in done.stdout.splitlines()
    }
    for workload in WORKLOAD_NAMES:
        for metric in END_TO_END + ["failed_frac"]:
            assert (workload, metric) in printed
        for metric in spec["per_layer"]:
            assert (workload, metric["name"]) in printed
    result = json.loads((BENCH / "out" / "result.json").read_text())
    for workload in WORKLOAD_NAMES:
        entry = result["workloads"][workload]
        assert entry["failed_frac"] == 0
        assert entry["traced"]["probe_missing"] == {}
        for metric in END_TO_END:
            assert entry["end_to_end"][metric]["median"] > 0
        trace = json.loads((ROOT / entry["traced"]["trace_file"]).read_text())
        assert trace["fields"] == [
            "name", "start", "end", "parent", "key", "count",
        ]


def test_driver_line_has_exactly_the_contract_keys():
    done = subprocess.run(
        RUN + ["--workload", "lossy_path_grid", "--seed", "3", "--seconds",
               "0.1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == END_TO_END
    for body in last["metrics"].values():
        assert set(body) == {"value", "unit"} and body["value"] > 0


def test_refuses_to_run_under_a_fault_plan(tmp_path):
    from repro.scenarios import faults

    plan = tmp_path / "plan.json"
    plan.write_text("{}")
    done = subprocess.run(
        RUN + ["--workload", "packet_dumbbell", "--scale", "tiny"],
        cwd=ROOT, env={**os.environ, faults.ENV_VAR: str(plan)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode == 2
    assert faults.ENV_VAR in done.stderr
    assert done.stdout == ""


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "packet_dumbbell",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------- correctness


def test_tampered_cache_entry_raises_failed_frac(tmp_path):
    workload = workloads.LossyPathGrid(0, tmp_path, tiny=True)
    workload.setup()
    observations = []
    for tamper in (False, True):
        workload.prepare()
        workload.run()
        if tamper:
            entry = sorted(workload.cache_dir.glob("*.json"))[0]
            entry.write_bytes(entry.read_bytes().replace(b"1", b"2", 1))
        observations.append(workload.finish())
    clean, _ = workloads.count_failed(observations[:1], None, workload.cells)
    assert clean == 0
    failed, notes = workloads.count_failed(observations, None, workload.cells)
    assert failed == workload.cells
    assert "different bytes" in notes[0]
    # ... and against a golden digest, even when every pass agrees.
    failed, notes = workloads.count_failed(
        observations[1:], observations[0].digest, workload.cells
    )
    assert failed == workload.cells and "golden" in notes[0]


def test_golden_mismatch_counts_the_parts_that_differ():
    golden = {"fig02": "a", "fig03": "b", "fig05": "c"}
    assert workloads.mismatched_cells(dict(golden), golden, 3) == 0
    assert workloads.mismatched_cells(dict(golden, fig03="x"), golden, 3) == 1
    assert workloads.mismatched_cells("abc", "abc", 24) == 0
    assert workloads.mismatched_cells("abc", "abd", 24) == 24


def test_golden_file_covers_every_workload_for_seeds_0_and_1():
    golden = json.loads((BENCH / "golden.json").read_text())
    assert set(golden["env"]) == {"python", "numpy", "machine"}
    assert sorted(golden["digests"]) == sorted(WORKLOAD_NAMES)
    for digests in golden["digests"].values():
        assert sorted(digests) == ["0", "1"]


def test_removed_entry_point_degrades_the_probe(monkeypatch, tmp_path):
    import repro.sim.rng

    # Bound by name where the program uses it, so only the probe misses it.
    monkeypatch.delattr(repro.sim.rng, "DrawLanes")
    probes = layers.Probes(
        clock=lambda fn, concurrent=False: (fn(), 1e-3)[1],
        scratch=tmp_path, scale=0.01,
    )
    results = probes.run_all()
    assert results["sim.vector_kernel.lane_cell_ms"] is None
    assert "DrawLanes" in probes.missing["sim.rng.drawlanes_take_us"]
    assert results["net.link.red_pkt_ns"] > 0  # the other probes still ran


def test_removed_span_boundary_is_listed_not_fatal(monkeypatch):
    import repro.scenarios.vector

    monkeypatch.delattr(repro.scenarios.vector, "run_vector_batch")
    recorder = spans.SpanRecorder()
    try:
        spans.instrument(recorder)
    finally:
        recorder.restore()
    assert recorder.missing == ["repro.scenarios.vector.run_vector_batch"]


# ------------------------------------------------------------- arithmetic


def test_self_time_is_duration_minus_what_children_cover():
    #        name start  end parent
    tree = [
        ["root", 0.0, 10.0, -1, None, 0],
        ["a", 1.0, 4.0, 0, None, 0],      # self 3 - 1 = 2
        ["a.x", 2.0, 3.0, 1, None, 0],    # self 1
        ["b", 3.5, 6.0, 0, None, 0],      # overlaps a: covers only 4.0..6.0 anew
        ["c", 8.0, 12.0, 0, None, 7],     # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([10 - (3 + 2 + 2), 2.0, 1.0, 2.5, 4.0])
    table = spans.summarize(tree)
    assert table["c"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0, "count": 7}
    assert spans.root_seconds(tree) == 10.0


def test_recorder_nests_spans_and_splits_generators():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    def inner():
        return "x"

    wrapped_inner = recorder.wrap("inner", inner)

    def produce():
        yield wrapped_inner()
        yield wrapped_inner()

    outer = recorder.wrap_generator("gen", produce)
    assert list(outer()) == ["x", "x"]
    names = [span[spans.NAME] for span in recorder.spans]
    assert names == ["gen", "inner", "gen", "inner", "gen"]
    parents = [span[spans.PARENT] for span in recorder.spans]
    assert parents == [-1, 0, -1, 2, -1]
    assert all(span[spans.END] > span[spans.START] for span in recorder.spans)


def test_region_subtracts_calibration_and_normalises():
    calibrator = timing.Calibrator()
    with calibrator.region() as region:
        # Two slices "ran" inside, each twice as slow as the reference.
        calibrator.slices_s += [2 * calibrator.ref_ms / 1e3] * 2
        calibrator.busy_s += 0.25
        time.sleep(0.3)
    assert region.slices == 2
    assert region.raw_s == pytest.approx(region.elapsed_s - 0.25)
    assert region.norm_s == pytest.approx(region.raw_s / 2)
    with calibrator.region(concurrent=True) as other:
        calibrator.busy_s += 0.25
    assert other.raw_s == other.elapsed_s


# ---------------------------------------------------------------- compare


def result(samples, failed_frac=0.0):
    return {
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "cells_per_s", "unit": "cells/s", "better": "higher",
             "bound": 0.1},
        ],
        "workloads": {"w": {
            "failed_frac": failed_frac,
            "end_to_end": {
                "wall_s": {"samples": samples},
                "cells_per_s": {"samples": [1.0 / s for s in samples]},
            },
        }},
    }


def verdicts(a, b, overrides=None):
    return {
        row["metric"]: row["verdict"]
        for row in compare.compare(a, b, overrides)
    }


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    same = result(base)
    assert set(verdicts(same, result(base)).values()) == {"ok"}
    slower = result([x * 1.2 for x in base])
    assert verdicts(same, slower)["wall_s"] == "worse"
    assert verdicts(same, slower)["cells_per_s"] == "worse"
    assert verdicts(same, result([x * 1.05 for x in base]))["wall_s"] == "ok"
    noisy = result([0.8, 1.0, 1.3, 0.9, 1.2])
    assert verdicts(same, noisy)["wall_s"] == "unresolved"
    # Wide spread, yet every sample of B beats every sample of A.
    faster = result([0.5, 0.7, 0.9, 0.6, 0.8])
    assert verdicts(same, faster)["wall_s"] == "ok"
    assert verdicts(same, result(base, failed_frac=0.01))["failed_frac"] == "worse"
    loose = {"wall_s": {"w": {"bound": 0.25, "spread": 0.08}}}
    assert verdicts(same, slower, loose)["wall_s"] == "ok"
    assert verdicts(same, slower, loose)["cells_per_s"] == "worse"


def test_compare_cli_exit_code(tmp_path):
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result(base)))
    b.write_text(json.dumps(result([x * 1.5 for x in base])))
    same = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(a), str(a)],
        stdout=subprocess.PIPE, text=True,
    )
    assert same.returncode == 0 and "ok" in same.stdout
    worse = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(a), str(b)],
        stdout=subprocess.PIPE, text=True,
    )
    assert worse.returncode == 1 and "worse" in worse.stdout
