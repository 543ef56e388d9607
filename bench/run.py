#!/usr/bin/env python3
"""The repository's benchmark: seven workloads, end to end and by layer.

Two ways in:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  ``--trace 0`` measures the end-to-end
    metrics with nothing wrapped; ``--trace 1`` runs one plain and one
    span-wrapped pass plus the layer probes and reports every per-layer
    metric.  The last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 bench/run.py``
    Every workload, each in a fresh child process, round-robin over
    ``--repeats`` rounds so machine drift hits all of them alike; then the
    traced runs.  Prints ``workload metric value unit`` lines, writes
    ``bench/out/result.json``, exits 1 if any ``failed_frac`` is above 0.

``BENCHMARK.json`` is the one list of metric names and units; this file
reports exactly those.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"
GOLDEN_SEEDS = (0, 1)
#: set-ups per run (the median is reported) and fewest timed passes.
SETUPS = 3
MIN_PASSES = 3

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import timing  # noqa: E402  (needs bench/ on the path)


def declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_values(names: List[Dict[str, Any]], measured: Dict[str, Any]) -> Dict[str, Any]:
    """Every declared metric, with its unit; 0.0 where nothing was measured.

    A per-layer metric reads 0.0 on a workload that never enters the layer
    and when its probe's entry point is gone (the DETAIL line says which).
    """
    out = {}
    for metric in names:
        value = measured.get(metric["name"])
        out[metric["name"]] = {
            "value": 0.0 if value is None else float(value),
            "unit": metric["unit"],
        }
    return out


# ------------------------------------------------------------ one workload


class Run:
    """One workload in this process, under the calibrator."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tiny = args.scale == "tiny"
        self.cal = timing.Calibrator(
            timing.CALIB_ITERATIONS // (10 if self.tiny else 1)
        )
        tmp = Path(args.tmpdir) if args.tmpdir else OUT / "tmp"
        self.scratch = tmp / f"{args.workload}-{os.getpid()}"

    def execute(self) -> int:
        self.cal.start()
        try:
            with self.cal.region() as imported:
                try:
                    import workloads
                    from repro.scenarios import faults
                except ImportError as exc:
                    print(f"bench: cannot import the program: {exc}", file=sys.stderr)
                    return 3
            if os.environ.get(faults.ENV_VAR) or faults.active() is not None:
                print(
                    f"bench: a fault plan is active ({faults.ENV_VAR}); "
                    f"refusing to measure a sabotaged fabric",
                    file=sys.stderr,
                )
                return 2
            self.imported = imported
            self.scratch.mkdir(parents=True, exist_ok=True)
            self.workload = workloads.WORKLOADS[self.args.workload](
                self.args.seed, self.scratch, tiny=self.tiny
            )
            self.workload.region = self.cal.region
            self.golden = self._golden_digest()
            if self.args.trace:
                measured, detail = self.traced()
                names = declared()["per_layer"]
            else:
                measured, detail = self.end_to_end()
                names = declared()["end_to_end"]
        finally:
            self.cal.stop()
            shutil.rmtree(self.scratch, ignore_errors=True)
        detail.update(
            workload=self.args.workload,
            seed=self.args.seed,
            scale=self.args.scale,
            env=timing.environment(str(self.scratch.parent)),
            calib_ms=self.cal.median_ms(),
            golden="checked" if self.golden is not None else "not applicable",
        )
        detail["noisy"] = abs(detail["calib_ms"] / self.cal.ref_ms - 1.0) > 0.10
        print("DETAIL " + json.dumps(detail))
        print(json.dumps({
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metric_values(names, measured),
        }))
        return 0

    def quiet_clock(self) -> float:
        """A clock that stands still during calibration slices."""
        return time.perf_counter() - self.cal.busy_s

    def _golden_digest(self) -> Any:
        """The committed digest for this (workload, seed), if it applies."""
        if self.tiny or self.args.no_golden or not GOLDEN.exists():
            return None
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        here = timing.environment()
        if any(golden["env"].get(k) != here[k] for k in ("python", "numpy", "machine")):
            print(
                f"bench: golden digests were taken on {golden['env']}, not "
                f"this python/numpy/machine; in-run identity checks only",
                file=sys.stderr,
            )
            return None
        return golden["digests"].get(self.args.workload, {}).get(str(self.args.seed))

    # ---------------------------------------------------------- phases

    def one_pass(self, layers: bool = False) -> Tuple[timing.Region, Any, Dict[str, float]]:
        """(region, observation, layer extras); ``region.wall_s`` is set."""
        workload = self.workload
        workload.prepare()
        gc.collect()
        if workload.children:
            with self.cal.paused(), self.cal.region(concurrent=True) as region:
                workload.run()
        else:
            with self.cal.region() as region:
                workload.run()
        region.wall_s = workload.wall(region)
        extras = workload.layers() if layers else {}
        return region, workload.finish(), extras

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, Any]]:
        import workloads

        workload, cal = self.workload, self.cal
        setups = []
        for _ in range(1 if self.tiny else SETUPS):
            with cal.region() as region:
                workload.setup()
            setups.append(region.norm_s)
        observations = []
        warm_s = 0.0
        if workload.warmup and not self.tiny:
            region, obs, _ = self.one_pass()
            warm_s = region.wall_s
            observations.append(obs)
        passes: List[timing.Region] = []
        elapsed = 0.0
        least = self.args.min_passes
        while len(passes) < least or elapsed < self.args.seconds:
            region, obs, _ = self.one_pass()
            passes.append(region)
            observations.append(obs)
            elapsed += region.elapsed_s
        failed, notes = workloads.count_failed(
            observations, self.golden, workload.cells
        )
        wall = timing.quartiles([r.wall_s for r in passes])
        setup_s = (
            self.imported.norm_s + timing.quartiles(setups)["median"] + warm_s
        )
        measured = {
            "setup_s": setup_s,
            "wall_s": wall["median"],
            "cells_per_s": workload.cells / wall["median"],
            "peak_rss_mb": timing.peak_rss_mib(children=workload.children),
        }
        detail = {
            "attempted": workload.cells * len(observations),
            "failed": failed,
            "notes": notes,
            "digest": observations[0].digest,
            "cells": workload.cells,
            "passes": [
                {"wall_s": r.wall_s, "raw_s": r.raw_s, "calib_ms": r.calib_ms}
                for r in passes
            ],
            "setup": {
                "import_s": self.imported.norm_s,
                "setups_s": setups,
                "warmup_s": warm_s,
            },
            "counts": observations[0].counts,
        }
        return measured, detail

    def traced(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        import layers
        import spans
        import workloads

        workload, cal = self.workload, self.cal
        workload.setup()
        plain, plain_obs, _ = self.one_pass()
        recorder = spans.SpanRecorder(clock=self.quiet_clock)
        spans.instrument(recorder)
        try:
            traced, traced_obs, extras = self.one_pass(layers=True)
        finally:
            recorder.restore()
        failed, notes = workloads.count_failed(
            [plain_obs, traced_obs], self.golden, workload.cells
        )
        trace_path = OUT / f"trace-{workload.name}.json"
        spans.write_trace(
            str(trace_path), workload.name, recorder.spans, recorder.missing
        )

        probes = layers.Probes(
            clock=self.probe_clock, scratch=self.scratch,
            scale=0.04 if self.tiny else 1.0,
        )
        measured: Dict[str, Any] = probes.run_all()
        measured.update(extras)
        measured.update(traced_obs.counts)
        measured.update(self.span_metrics(spans, recorder.spans, traced, plain))
        events = measured.get("sim.engine.events", 0)
        null_ns = measured.get("sim.engine.null_event_ns") or 0.0
        measured.update({
            "sim.engine.events_per_s": events / plain.wall_s,
            "sim.engine.share_est": events * null_ns / (1e9 * plain.wall_s),
            "calib.pyloop_ms": cal.median_ms(),
            "host.load1": os.getloadavg()[0],
            "host.cpu_s": timing.cpu_seconds(),
            "host.wall_raw_s": plain.raw_s,
        })
        detail = {
            "attempted": 2 * workload.cells,
            "failed": failed,
            "notes": notes,
            "digest": plain_obs.digest,
            "cells": workload.cells,
            "probe_missing": dict(
                probes.missing, **{name: "span" for name in recorder.missing}
            ),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "spans": len(recorder.spans),
        }
        return measured, detail

    def probe_clock(self, fn: Any, concurrent: bool = False) -> float:
        gc.collect()
        with self.cal.region(concurrent) as region:
            fn()
        return region.norm_s

    #: span-name prefix -> the layer its self time is charged to.
    LAYER_OF_SPAN = (
        ("experiments.", "experiments"),
        ("analysis.", "analysis"),
        ("scenarios.sweep.", "sweep"),
        ("scenarios.executors.", "executors"),
        ("scenario.", "scenario"),
        ("sim.Simulator.", "sim"),
        ("sim.vector_kernel.", "vector_kernel"),
        ("scenarios.cache.", "cache"),
        ("scenarios.fsio.", "fsio"),
        ("os.fsync", "fsync"),
    )

    def span_metrics(
        self, spans: Any, recorded: List[list], traced: timing.Region,
        plain: timing.Region,
    ) -> Dict[str, float]:
        table = spans.summarize(recorded)
        wall = traced.quiet_s  # the spans' clock skips calibration too
        out = {f"trace.self_s.{layer}": 0.0 for _, layer in self.LAYER_OF_SPAN}
        for name, row in table.items():
            for prefix, layer in self.LAYER_OF_SPAN:
                if name.startswith(prefix):
                    out[f"trace.self_s.{layer}"] += row["self_s"]
                    break

        def total(name: str, field: str = "total_s") -> float:
            return table.get(name, {}).get(field, 0.0)

        out.update({
            "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
            "trace.attributed_frac": spans.root_seconds(recorded) / wall,
            "analysis.share": out["trace.self_s.analysis"] / wall,
            "scenarios.cache.commit_share": total("scenarios.cache.put") / wall,
            "scenarios.cache.len_calls": total("scenarios.cache.len", "calls"),
            "sim.engine.events": total("sim.Simulator.run", "count"),
        })
        return out


# ------------------------------------------------------------ every workload


def child(args: argparse.Namespace, workload: str, seed: int, trace: int,
          seconds: float, min_passes: int, *extra: str
          ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload in a fresh process; (result line, detail line)."""
    command = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--seconds", str(seconds), "--scale", args.scale,
        "--min-passes", str(min_passes), *extra,
    ]
    if args.tmpdir:
        command += ["--tmpdir", args.tmpdir]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    lines = done.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len("DETAIL "):])
        for line in lines if line.startswith("DETAIL ")
    )
    return json.loads(lines[-1]), detail


def run_everything(args: argparse.Namespace) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    least = 1 if args.scale == "tiny" else MIN_PASSES
    results: Dict[str, Any] = {
        name: {"end_to_end": {}, "per_layer": {}, "runs": [], "failed": 0,
               "attempted": 0}
        for name in names
    }
    for _ in range(args.repeats):
        for name in names:
            result, detail = child(args, name, args.seed, 0, seconds, least)
            entry = results[name]
            entry["runs"].append(detail)
            entry["failed"] += result["failed"]
            entry["attempted"] += result["attempted"]
            samples = entry["end_to_end"]
            walls = [p["wall_s"] for p in detail["passes"]]
            samples.setdefault("wall_s", []).extend(walls)
            samples.setdefault("cells_per_s", []).extend(
                detail["cells"] / wall for wall in walls
            )
            for metric in ("setup_s", "peak_rss_mb"):
                samples.setdefault(metric, []).append(
                    result["metrics"][metric]["value"]
                )
    for name in names:
        result, detail = child(args, name, args.seed, 1, seconds, least)
        entry = results[name]
        entry["traced"] = detail
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        entry["per_layer"] = {
            metric: body["value"] for metric, body in result["metrics"].items()
        }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    any_failed = False
    for name in names:
        entry = results[name]
        for metric, samples in entry["end_to_end"].items():
            entry["end_to_end"][metric] = dict(
                timing.quartiles(samples), samples=samples
            )
            print(name, metric, entry["end_to_end"][metric]["median"], units[metric])
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        any_failed = any_failed or entry["failed"] > 0
        print(name, "failed_frac", entry["failed_frac"], "fraction")
        for metric, value in entry["per_layer"].items():
            print(name, metric, value, units[metric])
    OUT.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "run_seconds": seconds,
        "env": timing.environment(args.tmpdir or str(OUT)),
        "end_to_end": spec["end_to_end"],
        "workloads": results,
    }
    with open(OUT / "result.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(f"wrote {(OUT / 'result.json').relative_to(ROOT)}", file=sys.stderr)
    return 1 if any_failed else 0


def update_golden(args: argparse.Namespace) -> int:
    """Regenerate ``bench/golden.json``; the only writer of that file."""
    digests: Dict[str, Dict[str, Any]] = {}
    for name in (w["name"] for w in declared()["workloads"]):
        for seed in GOLDEN_SEEDS:
            result, detail = child(args, name, seed, 0, 0.0, 1, "--no-golden")
            if result["failed"]:
                print(f"bench: {name} seed {seed} fails its in-run checks: "
                      f"{detail['notes']}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = detail["digest"]
    here = timing.environment()
    payload = {
        "env": {k: here[k] for k in ("python", "numpy", "machine")},
        "digests": digests,
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every spec seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes of one run last "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload to a smoke test")
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds over all workloads when none is named")
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--no-golden", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tmpdir", default=None,
                        help="where scratch directories go (default: "
                        "bench/out/tmp; its filesystem type is recorded)")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate bench/golden.json for seeds 0 and 1")
    args = parser.parse_args(argv)
    if args.update_golden:
        return update_golden(args)
    if args.workload is None:
        return run_everything(args)
    try:
        names = [w["name"] for w in declared()["workloads"]]
    except OSError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    return Run(args).execute()


if __name__ == "__main__":
    sys.exit(main())
