"""Tests for the scenarios subsystem: spec/registry, hashing, cache
round-trips, and sweep determinism (serial vs parallel)."""

import io
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro.experiments import fig20_halving as fig20
from repro.scenarios import (
    FileQueueExecutor,
    LocalExecutor,
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    get_scenario,
    list_scenarios,
    print_progress,
    register_scenario,
    run_scenario,
    steady_state_window,
)
from repro.scenarios.spec import _REGISTRY


@register_scenario("test_echo")
def _echo_scenario(spec):
    """Deterministic toy scenario: echoes back derived spec values."""
    return {
        "seed": spec.seed,
        "duration": spec.duration,
        "x": spec.extra.get("x", 0),
        "product": spec.seed * spec.extra.get("x", 0),
    }


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            "mixed_dumbbell",
            topology={"bandwidth_bps": 2e6},
            flows={"n_tfrc": 2, "n_tcp": 2},
            queue={"type": "red"},
            loss={"model": "none"},
            seed=7,
            duration=30.0,
            extra={"measure_fraction": 0.5},
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"scenario": "x", "bogus": 1})
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"duration": 1.0})

    def test_hash_stable_and_sensitive(self):
        spec = ScenarioSpec("test_echo", seed=1, extra={"x": 3})
        same = ScenarioSpec.from_dict(spec.to_dict())
        assert spec.spec_hash() == same.spec_hash()
        assert spec.spec_hash() != spec.override({"seed": 2}).spec_hash()
        assert spec.spec_hash() != spec.override({"extra.x": 4}).spec_hash()

    def test_hash_survives_json_round_trip(self):
        spec = ScenarioSpec("test_echo", topology={"bw": 1.5e6}, seed=3)
        reloaded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reloaded.spec_hash() == spec.spec_hash()

    def test_override_dotted_paths(self):
        spec = ScenarioSpec("test_echo", topology={"bw": 1e6, "delay": 0.1})
        new = spec.override({"topology.bw": 2e6, "seed": 9, "duration": 5.0})
        assert new.topology == {"bw": 2e6, "delay": 0.1}
        assert (new.seed, new.duration) == (9, 5.0)
        # the original is untouched
        assert spec.topology["bw"] == 1e6 and spec.seed == 0

    def test_override_rejects_non_mapping_intermediates(self):
        # descending through the scalar top-level `seed` field would turn
        # it into a dict and corrupt derive_seed/hashing downstream
        spec = ScenarioSpec("test_echo", topology={"a": 5})
        with pytest.raises(ValueError, match="'seed'"):
            spec.override({"seed.x": 1})
        with pytest.raises(ValueError, match="topology.a"):
            spec.override({"topology.a.b": 1})
        # untouched paths stay intact after the rejected override
        assert spec.topology == {"a": 5} and spec.seed == 0

    def test_override_still_creates_missing_intermediates(self):
        spec = ScenarioSpec("test_echo")
        new = spec.override({"extra.foo.bar": 1})
        assert new.extra == {"foo": {"bar": 1}}

    def test_derive_seed_deterministic_and_distinct(self):
        spec = ScenarioSpec("test_echo", seed=5)
        a = spec.derive_seed({"flows.total": 8})
        assert a == spec.derive_seed({"flows.total": 8})
        assert a != spec.derive_seed({"flows.total": 16})
        assert a != ScenarioSpec("test_echo", seed=6).derive_seed(
            {"flows.total": 8}
        )


_JUNK = st.one_of(st.none(), st.text(), st.lists(st.integers(), max_size=3))
_GROUPS = ("topology", "flows", "queue", "loss", "extra")

#: per field, values no scenario can run.
MALFORMED = {
    "scenario": st.one_of(st.just(""), st.none(), st.integers(), st.binary()),
    "duration": st.one_of(
        _JUNK, st.booleans(), st.integers(max_value=-1),
        st.floats(max_value=-1e-300), st.sampled_from([math.nan, math.inf]),
    ),
    "seed": st.one_of(_JUNK, st.booleans(), st.floats()),
    **{
        group: st.one_of(
            _JUNK, st.integers(), st.lists(st.tuples(st.text(), st.integers()))
        )
        for group in _GROUPS
    },
}


class TestSpecValidation:
    """ROADMAP 1d: a malformed spec fails at construction with a
    ``ValueError`` naming the field -- not later, from ``spec_hash()`` or
    inside a builder, as whatever the value happened to break."""

    @pytest.mark.parametrize(
        "field, value",
        [("duration", -1.0), ("duration", math.nan), ("seed", "abc"),
         ("topology", [1, 2])],
    )
    def test_unrunnable_values_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"ScenarioSpec\.{field} .*got "):
            ScenarioSpec("test_echo", **{field: value})

    @given(field=st.sampled_from(sorted(MALFORMED)), data=st.data())
    def test_malformed_field_raises_value_error_naming_it(self, field, data):
        bad = data.draw(MALFORMED[field])
        named = rf"ScenarioSpec\.{field}\b"
        kwargs = {"scenario": "test_echo", field: bad}
        with pytest.raises(ValueError, match=named):
            ScenarioSpec(**kwargs)
        with pytest.raises(ValueError, match=named):
            ScenarioSpec.from_dict(kwargs)
        with pytest.raises(ValueError, match=named):
            ScenarioSpec("test_echo").override({field: bad})

    @given(
        duration=st.one_of(
            st.integers(min_value=0, max_value=10**6),
            st.floats(min_value=0.0, allow_infinity=False),
        ),
        seed=st.integers(),
        group=st.sampled_from(_GROUPS),
        params=st.dictionaries(st.text(), st.integers(), max_size=3),
    )
    @example(duration=0.0, seed=0, group="extra", params={})  # fig05's
    def test_well_formed_specs_construct_and_hash(
        self, duration, seed, group, params
    ):
        spec = ScenarioSpec(
            "test_echo", duration=duration, seed=seed, **{group: params}
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert len(spec.override({"seed": seed + 1}).spec_hash()) == 16


    #: axis names and override paths, well formed and not (ROADMAP 5c)
    _PATHS = st.one_of(
        st.sampled_from(
            ["seed", "duration", "extra.x", "topology.rtt", "topology.",
             ".x", "", "seed.x", "bogus", "topology"]
        ),
        st.integers(), st.none(),
    )
    _VALUES = st.one_of(
        st.integers(), st.text(max_size=3), st.none(),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    _AXES = st.one_of(
        st.tuples(_PATHS, st.one_of(_VALUES, st.lists(_VALUES, max_size=3))),
        st.tuples(  # zipped: values should be tuples as long as the axis
            st.tuples(_PATHS, _PATHS),
            st.one_of(
                _VALUES,
                st.lists(
                    st.one_of(_VALUES, st.lists(_VALUES, max_size=3).map(tuple)),
                    max_size=2,
                ),
            ),
        ),
    )

    @given(axes=st.lists(_AXES, max_size=2))
    @example(axes=[(3, [3])])
    @example(axes=[("topology.", [3])])
    @example(axes=[("seed", "12")])
    @example(axes=[("seed", 5)])
    @example(axes=[(("seed", "duration"), [5])])
    def test_malformed_grid_or_override_map_names_its_axis(
        self, axes, tmp_path_factory
    ):
        """Expansion succeeds or raises ``ValueError`` naming the axis --
        never another exception -- from ``SweepRunner.__init__`` / ``cells()``
        / ``override``, before any directory is created."""
        cache_dir = tmp_path_factory.mktemp("grid") / "cache"
        grid = dict(axes)
        names = [
            path.split(".")[0] if isinstance(path, str) and path[:1] not in ("", ".")
            else repr(path)
            for axis in grid
            for path in (axis if isinstance(axis, tuple) else (axis,))
        ]
        base = ScenarioSpec("test_echo")

        def assert_named(exc):
            assert any(name in str(exc) for name in names), (str(exc), names)

        try:
            runner = SweepRunner(base, grid, cache_dir=str(cache_dir))
        except ValueError as exc:
            assert_named(exc)
            assert not cache_dir.exists()  # rejected before any directory
        else:
            try:
                runner.cells()
            except ValueError as exc:
                assert_named(exc)
        single = {
            axis: values[0] for axis, values in grid.items()
            if not isinstance(axis, tuple) and isinstance(values, list) and values
        }
        try:
            base.override(single)
        except ValueError as exc:
            assert_named(exc)


class TestRegistry:
    def test_known_scenarios_registered(self):
        # builders register these at import time
        assert {"mixed_dumbbell", "tfrc_lossy_path"} <= set(list_scenarios())

    def test_figure_scenarios_registered_on_import(self):
        from repro.experiments import (  # noqa: F401
            fig02_loss_interval,
            fig03_oscillation,
            fig06_fairness_grid,
            fig08_smoothness,
            fig09_equivalence,
            fig11_onoff,
            fig14_queue_dynamics,
            fig18_predictor,
            fig19_increase,
            fig20_halving,
            internet,
        )

        assert {
            "fig02_loss_interval",
            "fig03_pipe",
            "fig06_cell",
            "fig08_smoothness",
            "fig09_replication",
            "fig11_onoff",
            "fig14_queue_dynamics",
            "fig18_trace",
            "fig19_increase",
            "fig20_halving",
            "internet_path",
        } <= set(list_scenarios())

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no_such_scenario")

    def test_reregistering_same_function_is_idempotent(self):
        register_scenario("test_echo")(_echo_scenario)
        assert get_scenario("test_echo") is _echo_scenario

    def test_name_collision_rejected(self):
        # the only guard against duplicate scenario names
        with pytest.raises(ValueError, match="'test_echo' already registered"):
            @register_scenario("test_echo")
            def _other(spec):  # pragma: no cover - never runs
                return {}

        assert _REGISTRY["test_echo"] is _echo_scenario

    def test_run_scenario_dispatches(self):
        result = run_scenario(ScenarioSpec("test_echo", seed=4, extra={"x": 2}))
        assert result == {"seed": 4, "duration": 60.0, "x": 2, "product": 8}


class TestSteadyStateWindow:
    def test_last_fraction_of_the_run(self):
        assert steady_state_window(60.0) == (30.0, 60.0)
        assert steady_state_window(60.0, 1) == (0.0, 60.0)

    @pytest.mark.parametrize("fraction", [1.5, math.nan, 0, -1])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\], got"):
            steady_state_window(60.0, fraction)

    def test_scenario_names_the_fraction_it_was_handed(self):
        spec = ScenarioSpec(
            "mixed_dumbbell", duration=1.0, extra={"measure_fraction": 1.5}
        )
        with pytest.raises(ValueError, match="fraction.*1.5"):
            run_scenario(spec)


class TestDumbbellTestbed:
    def test_normalized_throughput_is_rate_over_fair_share(self):
        """1.0 = the bottleneck divided evenly over the bed's flows."""
        from repro.net import DumbbellConfig, Packet
        from repro.scenarios import DumbbellTestbed

        bed = DumbbellTestbed(DumbbellConfig(bandwidth_bps=40e6))
        bed.tfrc("a", 0.05)
        bed.tcp("b", 0.05)
        for i in range(10):  # a: 1.25 MB/s = 10 Mb/s; b: twice that
            bed.flow_monitor.on_packet(i + 0.5, Packet("a", i, 1_250_000))
            bed.flow_monitor.on_packet(i + 0.5, Packet("b", i, 2_500_000))
        assert bed.normalized_throughput("a", 0.0, 10.0) == pytest.approx(0.5)
        assert bed.normalized_throughput("b", 0.0, 10.0) == pytest.approx(1.0)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = ScenarioSpec("test_echo", seed=1, extra={"x": 2})
        assert cache.get(spec) is None
        cache.put(spec, {"value": 42})
        assert cache.get(spec) == {"value": 42}
        assert len(cache) == 1
        (entry,) = (tmp_path / "cache").glob("*.json")
        assert json.loads(entry.read_text())["spec"]["scenario"] == "test_echo"

    def test_different_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = ScenarioSpec("test_echo", seed=1)
        b = ScenarioSpec("test_echo", seed=2)
        cache.put(a, {"who": "a"})
        cache.put(b, {"who": "b"})
        assert cache.get(a) == {"who": "a"}
        assert cache.get(b) == {"who": "b"}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("test_echo", seed=1)
        path = cache.put(spec, {"value": 1})
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None

    def test_failed_put_leaves_no_tmp_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("test_echo", seed=1)
        with pytest.raises(TypeError):
            cache.put(spec, {"bad": object()})  # not JSON-serializable
        assert list(tmp_path.iterdir()) == []
        assert cache.get(spec) is None

    def test_nan_and_infinity_results_rejected(self, tmp_path):
        # canonical_json hashes specs with allow_nan=False; entries must be
        # strict JSON too, not silently non-portable
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("test_echo", seed=1)
        with pytest.raises(ValueError, match="NaN"):
            cache.put(spec, {"metric": float("nan")})
        with pytest.raises(ValueError):
            cache.put(spec, {"metric": float("inf")})
        assert list(tmp_path.iterdir()) == []
        assert cache.get(spec) is None


class TestSweepRunner:
    BASE = ScenarioSpec("test_echo", seed=3)
    GRID = {"extra.x": [1, 2, 3], "seed": [10, 20]}

    def test_expansion_order_and_overrides(self):
        cells = SweepRunner(self.BASE, self.GRID).cells()
        assert [c.overrides for c in cells] == [
            {"extra.x": 1, "seed": 10}, {"extra.x": 1, "seed": 20},
            {"extra.x": 2, "seed": 10}, {"extra.x": 2, "seed": 20},
            {"extra.x": 3, "seed": 10}, {"extra.x": 3, "seed": 20},
        ]
        assert len({c.key for c in cells}) == len(cells)

    def test_serial_matches_parallel(self):
        serial = SweepRunner(self.BASE, self.GRID, parallel=1).run()
        parallel = SweepRunner(self.BASE, self.GRID, parallel=3).run()
        assert [c.result for c in serial.cells] == [
            c.result for c in parallel.cells
        ]

    def test_zipped_axis_varies_paths_together(self):
        cells = SweepRunner(
            self.BASE, {("extra.x", "seed"): [(1, 10), (2, 20)]}
        ).cells()
        assert [c.overrides for c in cells] == [
            {"extra.x": 1, "seed": 10}, {"extra.x": 2, "seed": 20},
        ]
        assert [c.spec.seed for c in cells] == [10, 20]

    def test_zipped_axis_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SweepRunner(
                self.BASE, {("extra.x", "seed"): [(1, 10, 99)]}
            ).cells()

    def test_describe_lists_uncut_overrides_verbatim(self):
        cells = SweepRunner(self.BASE, {"extra.x": [1], "seed": [10]}).cells()
        assert cells[0].describe() == "test_echo[extra.x=1, seed=10]"
        assert SweepRunner(self.BASE, {}).cells()[0].describe() == "test_echo"

    def test_describe_tells_apart_cells_cut_alike(self):
        """Figure 21's drop periods 100 and 10 share the first 45 characters
        of their loss phases: the spec hash follows the cut text."""
        described = []
        fig20.run_sweep(
            initial_periods=(100, 10),
            progress=lambda done, total, cell: described.append(
                (cell.describe(), cell.key)
            ),
        )
        assert described[0][0] != described[1][0]
        for text, key in described:
            assert text.startswith("fig20_halving[loss.phases=[{")
            assert "...]#" in text and text.endswith(key.rsplit("-", 1)[1])

    def test_shared_seed_mode_keeps_base_seed(self):
        cells = SweepRunner(self.BASE, {"extra.x": [1, 2]}).cells()
        assert [c.spec.seed for c in cells] == [3, 3]

    def test_derived_seed_mode_is_deterministic(self):
        first = SweepRunner(
            self.BASE, {"extra.x": [1, 2]}, seed_mode="derived"
        ).cells()
        second = SweepRunner(
            self.BASE, {"extra.x": [1, 2]}, seed_mode="derived"
        ).cells()
        assert [c.spec.seed for c in first] == [c.spec.seed for c in second]
        assert first[0].spec.seed != first[1].spec.seed
        # explicit seed axes are respected verbatim
        explicit = SweepRunner(
            self.BASE, {"seed": [7, 8]}, seed_mode="derived"
        ).cells()
        assert [c.spec.seed for c in explicit] == [7, 8]

    def test_cache_hits_skip_execution(self, tmp_path):
        cache_dir = str(tmp_path / "sweep")
        first = SweepRunner(self.BASE, self.GRID, cache_dir=cache_dir).run()
        assert first.cache_hits == 0
        second = SweepRunner(self.BASE, self.GRID, cache_dir=cache_dir).run()
        assert second.cache_hits == len(second.cells)
        assert [c.result for c in first.cells] == [
            c.result for c in second.cells
        ]

    def test_cache_lookup_never_counts_the_cache(self, tmp_path, monkeypatch):
        """``ResultCache.__len__`` globs the whole directory; the per-cell
        lookup must test ``cache is not None``, not cache truthiness."""
        cache_dir = str(tmp_path / "sweep")
        SweepRunner(self.BASE, self.GRID, cache_dir=cache_dir).run()
        calls = []
        monkeypatch.setattr(
            ResultCache, "__len__", lambda cache: calls.append(cache) or 1
        )
        replay = SweepRunner(self.BASE, self.GRID, cache_dir=cache_dir).run()
        assert replay.cache_hits == len(replay.cells)
        assert calls == []

    def test_progress_callback_sees_every_cell(self):
        seen = []
        SweepRunner(
            self.BASE, {"extra.x": [1, 2, 3]},
            progress=lambda done, total, cell: seen.append((done, total)),
        ).run()
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_result_says_what_ran_it_and_for_how_long(self, tmp_path):
        grid, cache_dir = {"extra.x": [1, 2, 3]}, str(tmp_path / "sweep")
        ran = {
            label: SweepRunner(self.BASE, grid, **options).run()
            for label, options in [
                ("serial", {}),
                ("pool x2", {"parallel": 2, "cache_dir": cache_dir}),
                ("", {"cache_dir": cache_dir}),  # all hits: nothing executes
            ]
        }
        assert [result.executor for result in ran.values()] == list(ran)
        assert all(result.wall_seconds > 0.0 for result in ran.values())
        # first executed completion: inside the wall, absent when all hit
        for label in ("serial", "pool x2"):
            first = ran[label].first_result_seconds
            assert 0.0 < first <= ran[label].wall_seconds
        assert ran[""].first_result_seconds is None
        # wall-clock stays out of the bytes: every run holds the same results
        assert len(
            {json.dumps(r.results(), sort_keys=True) for r in ran.values()}
        ) == 1
        # the pool never starts more processes than it has cells
        assert LocalExecutor(workers=8).describe(3) == "pool x3"
        assert LocalExecutor(batch_limit=None).describe(3) == "vector"
        queue = FileQueueExecutor(tmp_path / "queue", local_workers=2)
        assert queue.describe(3) == "queue x2"

    def test_print_progress_closes_each_sweep_with_one_line(self, tmp_path):
        stream = io.StringIO()
        options = {
            "cache_dir": str(tmp_path / "sweep"),
            "progress": print_progress(stream),
        }
        SweepRunner(self.BASE, {"extra.x": [1, 2]}, **options).run()
        SweepRunner(self.BASE, {"extra.x": [1, 2, 3]}, **options).run()
        SweepRunner(self.BASE, {"extra.x": [3]}, **options).run()
        closing = [
            line for line in stream.getvalue().splitlines()
            if line.startswith("[sweep] ")
        ]
        assert len(stream.getvalue().splitlines()) == 2 + 3 + 1 + len(closing)
        assert [re.sub(r"\d+\.\d+", "N", line) for line in closing] == [
            "[sweep] 2 cells: 0 cached, 2 run on serial in Ns, "
            "first result Ns (cell time Ns, Nx)",
            "[sweep] 3 cells: 2 cached, 1 run on serial in Ns, "
            "first result Ns (cell time Ns, Nx)",
            "[sweep] 1 cell: 1 cached, 0 run in Ns",
        ]

    def test_corrupt_entry_found_on_read_is_counted_and_re_run(self, tmp_path):
        grid, cache_dir = {"extra.x": [1, 2], "seed": [10, 20]}, tmp_path / "c"
        clean = SweepRunner(self.BASE, grid, cache_dir=str(cache_dir)).run()
        assert clean.corrupt_entries == 0
        victim = cache_dir / f"{clean.cells[2].key}.json"
        victim.write_bytes(victim.read_bytes()[:40])

        stream = io.StringIO()
        rerun = SweepRunner(
            self.BASE, grid, cache_dir=str(cache_dir),
            progress=print_progress(stream),
        ).run()
        assert (rerun.corrupt_entries, rerun.cache_hits) == (1, 3)
        assert not rerun.cells[2].from_cache
        quarantined = [p.name for p in (cache_dir / "quarantine").iterdir()]
        assert [name.split(".json.")[0] for name in quarantined] == [victim.stem]
        assert rerun.results() == clean.results()
        assert stream.getvalue().splitlines()[-1].endswith(
            ", 1 corrupt entries re-run"
        )
        # the re-run committed a whole entry again: the next replay is clean
        replay = SweepRunner(self.BASE, grid, cache_dir=str(cache_dir)).run()
        assert (replay.corrupt_entries, replay.cache_hits) == (0, 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SweepRunner(self.BASE, parallel=0)
        with pytest.raises(ValueError):
            SweepRunner(self.BASE, seed_mode="weird")
        with pytest.raises(ValueError):
            SweepRunner(self.BASE, {"extra.x": []})
        with pytest.raises(KeyError):
            SweepRunner(ScenarioSpec("missing_scenario")).run()


class TestDumbbellSweepDeterminism:
    """End-to-end: a real (tiny) simulation sweep is reproducible and
    identical across serial and process-parallel execution."""

    BASE = ScenarioSpec(
        "mixed_dumbbell",
        topology={"bandwidth_bps": 1.5e6},
        flows={"n_tfrc": 1, "n_tcp": 1},
        queue={"type": "red"},
        duration=8.0,
        seed=11,
    )
    GRID = {"queue.type": ["red", "droptail"]}

    @pytest.mark.slow
    def test_same_seeds_identical_results_serial_vs_parallel(self):
        serial = SweepRunner(self.BASE, self.GRID, parallel=1).run()
        parallel = SweepRunner(self.BASE, self.GRID, parallel=2).run()
        assert [c.result for c in serial.cells] == [
            c.result for c in parallel.cells
        ]
        rerun = SweepRunner(self.BASE, self.GRID, parallel=1).run()
        assert [c.result for c in serial.cells] == [
            c.result for c in rerun.cells
        ]

    @pytest.mark.slow
    def test_cache_round_trip_preserves_results(self, tmp_path):
        cache_dir = str(tmp_path)
        live = SweepRunner(self.BASE, self.GRID, cache_dir=cache_dir).run()
        cached = SweepRunner(self.BASE, self.GRID, cache_dir=cache_dir).run()
        assert cached.cache_hits == 2
        # JSON round trip preserves every metric bit-for-bit
        assert [c.result for c in live.cells] == [c.result for c in cached.cells]


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
