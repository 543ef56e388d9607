"""Unit tests for the RNG registry and tracer."""

from array import array

import pytest

from repro.sim.rng import RngRegistry
from repro.sim.trace import CHUNK, TraceRecord, Tracer


class TestRngRegistry:
    def test_same_name_same_stream_instance(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(42)
        r2 = RngRegistry(42)
        _ = r1.stream("first")
        a_after = r1.stream("target").random(5)
        a_only = r2.stream("target").random(5)
        assert a_after.tolist() == a_only.tolist()

    def test_different_names_differ(self):
        registry = RngRegistry(0)
        a = registry.stream("a").random(10)
        b = registry.stream("b").random(10)
        assert a.tolist() != b.tolist()

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(10)
        b = RngRegistry(2).stream("x").random(10)
        assert a.tolist() != b.tolist()

    def test_reproducible_across_instances(self):
        a = RngRegistry(7).stream("traffic").random(10)
        b = RngRegistry(7).stream("traffic").random(10)
        assert a.tolist() == b.tolist()



    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")  # type: ignore[arg-type]

    def test_contains(self):
        registry = RngRegistry(0)
        assert "x" not in registry
        registry.stream("x")
        assert "x" in registry


class TestTracer:
    def test_record_and_select_by_category(self):
        tracer = Tracer()
        tracer.record(1.0, "send", "flow-a", 1000)
        tracer.record(2.0, "recv", "flow-a", 1000)
        sends = tracer.select(category="send")
        assert len(sends) == 1
        assert sends[0].time == 1.0

    def test_select_by_source(self):
        tracer = Tracer()
        for t in range(5):
            tracer.record(float(t), "send", "a", t)
            tracer.record(float(t), "send", "b", t)
        picked = tracer.select(source="a")
        assert [(r.time, r.source) for r in picked] == [
            (float(t), "a") for t in range(5)
        ]

    def test_sources_listing(self):
        tracer = Tracer()
        tracer.record(1.0, "send", "b")
        tracer.record(1.0, "recv", "a")
        assert tracer.sources() == ["a", "b"]

    def test_meta_preserved(self):
        tracer = Tracer()
        tracer.record(1.0, "send", "a", 5, meta={"seq": 3})
        assert tracer.select()[0].meta == {"seq": 3}


class TestTracerColumns:
    """Parallel-array storage behind record-object views."""

    @staticmethod
    def _fill(tracer):
        tracer.record(1.0, "send", "a", 100, meta={"seq": 1})
        tracer.record(1.5, "queue", "link", 7)
        tracer.record(2.0, "recv", "b", 100)
        tracer.record(2.5, "send", "a", 200, meta={"seq": 2})

    def test_records_select_sources_and_series(self):
        tracer = Tracer()
        self._fill(tracer)
        records = [
            TraceRecord(1.0, "send", "a", 100, {"seq": 1}),
            TraceRecord(1.5, "queue", "link", 7),
            TraceRecord(2.0, "recv", "b", 100),
            TraceRecord(2.5, "send", "a", 200, {"seq": 2}),
        ]
        assert list(tracer) == records
        assert len(tracer) == 4
        assert tracer.select(category="send") == [records[0], records[3]]
        assert tracer.select(source="a") == [records[0], records[3]]
        assert tracer.select("send", "b") == []
        assert tracer.sources() == ["a", "b", "link"]
        times, values = tracer.series(category="queue")
        assert (times, values) == (array("d", [1.5]), [7])

    def test_lazy_records_carry_meta(self):
        tracer = Tracer()
        self._fill(tracer)
        records = tracer.select(category="send")
        assert records[0].meta == {"seq": 1}
        assert records[1].meta == {"seq": 2}
        assert tracer.select(category="recv")[0].meta is None

    def test_series_returns_columns(self):
        tracer = Tracer()
        self._fill(tracer)
        times, values = tracer.series(category="send")
        assert times == array("d", [1.0, 2.5])
        assert values == [100, 200]

    def test_ints_of_any_size_read_back_exactly(self):
        tracer = Tracer()
        tracer.record(1.0, "send", "a", 2 ** 63, meta={"seq": -(2 ** 70)})
        tracer.record(2.0, "send", "a", 2 ** 63 - 1, meta={"seq": 2 ** 64})
        assert list(tracer) == [
            TraceRecord(1.0, "send", "a", 2 ** 63, {"seq": -(2 ** 70)}),
            TraceRecord(2.0, "send", "a", 2 ** 63 - 1, {"seq": 2 ** 64}),
        ]

    def test_unstorable_record_is_named_and_nothing_changes(self):
        """A field pickle cannot store fails the pack that meets it, with a
        ValueError naming the record, and leaves every column as it was."""
        tracer = Tracer()
        tracer.record(1.0, "send", "a", 100, meta={"seq": 1})
        tracer.record(2.0, "drop", "link", 100, meta={"flow": lambda: 0})
        message = r"the meta \{'flow': .*\} of a 'drop' record from 'link'"
        for _ in range(2):  # every later pack raises it again
            with pytest.raises(ValueError, match=message):
                tracer.select()
        assert len(tracer) == 2
        with pytest.raises(ValueError, match=message):
            for i in range(CHUNK):
                tracer.record(3.0, "queue", "link", i)
        assert len(tracer) == CHUNK  # the 2 records and those up to the pack

    def test_record_builds_no_record_objects(self, monkeypatch):
        """record() appends scalars; TraceRecord is built only on reads."""
        import repro.sim.trace as trace_mod

        def boom(*args, **kwargs):
            raise AssertionError("TraceRecord constructed by record()")

        tracer = Tracer()
        monkeypatch.setattr(trace_mod, "TraceRecord", boom)
        tracer.record(1.0, "send", "a", 1.0)  # must not raise
        assert len(tracer) == 1

    def test_untraced_run_never_touches_a_tracer(self, monkeypatch):
        """Tracing off is ``tracer=None``: a dumbbell run with TFRC, TCP and
        both monitors never builds a tracer, a record or a record object."""
        from repro.net import DumbbellConfig
        from repro.scenarios import DumbbellTestbed
        import repro.sim.trace as trace_mod

        def boom(*args, **kwargs):
            raise AssertionError("tracing reached with tracer=None")

        monkeypatch.setattr(trace_mod, "TraceRecord", boom)
        monkeypatch.setattr(Tracer, "__init__", boom)
        monkeypatch.setattr(Tracer, "record", boom)
        bed = DumbbellTestbed(DumbbellConfig(bandwidth_bps=2e6), sample_queue=True)
        bed.tfrc("tfrc", 0.05).start()
        bed.tcp("tcp", 0.05).start()
        bed.run(2.0)
        assert bed.flow_monitor.bytes_by_flow["tfrc"] > 0
        assert bed.link_monitor.tracer is None
