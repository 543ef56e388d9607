"""The archived fast-vs-legacy record stays intact.

``BENCH_PR2.json`` ... ``BENCH_PR6.json`` are the measurements on which the
per-event implementations were deleted: no scenario on which they won.
Nothing regenerates them (current numbers come from ``bench/``); these
tests keep them present, well-formed and saying what the README quotes.
"""

from __future__ import annotations

import json
import os
import re

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _load(name):
    with open(os.path.join(REPO_ROOT, name)) as fh:
        return json.load(fh)


class TestCommittedTrajectory:
    def test_bench_files_committed_and_well_formed(self):
        names = [f"BENCH_PR{n}.json" for n in range(2, 7)]
        assert sorted(
            name for name in os.listdir(REPO_ROOT)
            if re.fullmatch(r"BENCH_PR\d+\.json", name)
        ) == names
        for name in names:
            report = _load(name)
            assert report["schema"] == "tfrc-bench/v1", name
            for scale in ("smoke", "full"):
                scenarios = report["suites"][scale]
                for scenario in (
                    "dumbbell_steady", "fig06_grid_cell", "onoff_churn",
                    "red_ecn",
                ):
                    cell = scenarios[scenario]
                    for mode in ("fast", "legacy"):
                        assert cell[mode]["events"] > 0, (name, scenario)
                        assert cell[mode]["wall_seconds"] > 0, (name, scenario)
                        assert cell[mode]["events_per_sec"] > 0, (name, scenario)
                    assert cell["speedup"] > 1.0, (name, scenario)

    def test_acceptance_speedup_on_endpoint_heavy_dumbbell(self):
        """PR-2 acceptance: >= 1.5x events/sec vs the per-event path on
        the endpoint-heavy dumbbell, as recorded in the newest file (speedup
        is the wall ratio over a byte-identical workload, i.e. the
        normalized events/sec ratio)."""
        report = _load("BENCH_PR6.json")
        speedup = report["suites"]["full"]["dumbbell_steady"]["speedup"]
        assert speedup >= 1.5, (
            f"committed dumbbell_steady speedup {speedup:.2f}x < 1.5x"
        )

    def test_pr6_acceptance_vector_sweep(self):
        """PR-6 acceptance, pinned on the committed trajectory: the vector
        executor must clear 3x serial cells/sec on a single process over a
        supported grid of at least 64 cells."""
        report = _load("BENCH_PR6.json")
        for scale in ("smoke", "full"):
            sweep = report["suites"][scale]["vector_sweep"]
            assert sweep["cells"] >= 64, scale
            for executor in ("serial", "vector"):
                assert sweep[executor]["wall_seconds"] > 0, (scale, executor)
                assert sweep[executor]["cells_per_sec"] > 0, (scale, executor)
        full = report["suites"]["full"]["vector_sweep"]
        assert full["speedup"] >= 3.0, (
            f"committed vector_sweep speedup {full['speedup']:.2f}x < 3x"
        )

    def test_pr4_acceptance_network_layer_fast_path(self):
        """PR-4 acceptance, pinned file-vs-file (both committed on the
        same machine, so the comparison is stable anywhere): the network
        -layer fast path must lift the RED+ECN cell's fast-path events/sec
        by >= 1.15x over the PR-3 trajectory, and the new SACK-heavy
        recovery cell must be present with a healthy fast/legacy speedup.
        """
        base = _load("BENCH_PR3.json")
        report = _load("BENCH_PR4.json")
        for scale in ("smoke", "full"):
            before = base["suites"][scale]["red_ecn"]["fast"]["events_per_sec"]
            after = report["suites"][scale]["red_ecn"]["fast"]["events_per_sec"]
            assert after >= 1.15 * before, (
                f"{scale}/red_ecn fast path {after:,.0f} ev/s is not 1.15x "
                f"the PR-3 baseline {before:,.0f} ev/s"
            )
            sack = report["suites"][scale]["red_sack_recovery"]
            assert sack["speedup"] >= 1.15, (
                f"{scale}/red_sack_recovery speedup {sack['speedup']:.2f}x"
            )
