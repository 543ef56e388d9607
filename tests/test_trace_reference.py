"""Columnar ``Tracer`` and monitors against plain-list reference sinks.

``ListSink`` keeps every record as the object it was given, the way the
tracer stored traces before its columns were typed.  The same ``record()``
stream is teed into both -- from a traced mixed-dumbbell run and from
hypothesis-generated streams (int and float values, ints past 64 bits,
``-0.0``, subnormals, every trace schema's ``meta`` shape, lengths across
chunk boundaries) -- and every read path must agree, down to the type and ``repr`` of each value
and meta field.  ``FlowMonitor`` and ``LinkMonitor`` are checked against
the streams they fed the reference sink, or against a plain list fed by the
same link hook.

Unlike the golden digests, which skip off their recorded
python/numpy/machine triple, these run everywhere.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_models import rate_series_reference
from repro.net.monitor import LinkMonitor
from repro.scenarios.builders import build_mixed_dumbbell
from repro.sim.trace import CHUNK, TraceRecord, Tracer


class ListSink:
    """Reference trace sink: one record object per ``record()`` call."""

    def __init__(self):
        self.rows = []

    def record(self, time, category, source, value=0.0, meta=None):
        self.rows.append(TraceRecord(time, category, source, value, meta))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def select(self, category=None, source=None):
        return [
            r for r in self.rows
            if (category is None or r.category == category)
            and (source is None or r.source == source)
        ]

    def series(self, category=None):
        rows = self.select(category)
        return [r.time for r in rows], [r.value for r in rows]

    def sources(self):
        return sorted({r.source for r in self.rows})


class Tee:
    def __init__(self, *sinks):
        self.sinks = sinks

    def record(self, *args, **kwargs):
        for sink in self.sinks:
            sink.record(*args, **kwargs)


def exact(value):
    """A value's type and repr: ``1000`` != ``1000.0``, ``-0.0`` != ``0.0``."""
    return type(value), repr(value)


def signature(records):
    return [
        (exact(r.time), r.category, r.source, exact(r.value),
         None if r.meta is None
         else [(name, exact(field)) for name, field in r.meta.items()])
        for r in records
    ]


def assert_same_reads(tracer, reference, filters):
    assert len(tracer) == len(reference)
    assert signature(tracer) == signature(reference)
    assert tracer.sources() == reference.sources()
    for kwargs in filters:
        assert signature(tracer.select(**kwargs)) == signature(
            reference.select(**kwargs)
        )
    for category in {None, *(r.category for r in reference)}:
        times, values = tracer.series(category)
        ref_times, ref_values = reference.series(category)
        assert list(map(exact, times)) == list(map(exact, ref_times))
        assert list(map(exact, values)) == list(map(exact, ref_values))


# ------------------------------------------------------- traced dumbbell


def test_traced_mixed_dumbbell_reads_match_the_reference():
    tracer, reference = Tracer(), ListSink()
    built = build_mixed_dumbbell(
        n_tfrc=2, n_tcp=2, bandwidth_bps=4e6, queue_type="red", seed=5,
        tracer=Tee(tracer, reference), sample_queue=True,
    )
    built.sim.run(until=14.0)  # the flows start within the first 10 s

    assert len(tracer) > 3 * CHUNK
    assert {r.category for r in reference} == {
        "send", "recv", "drop", "queue", "rate"
    }
    link = built.dumbbell.forward_link.name
    assert_same_reads(tracer, reference, [
        {}, {"category": "send"}, {"category": "queue"},
        {"source": "tfrc-0"}, {"category": "drop", "source": link},
    ])

    # The monitors' own series are the streams they fed the reference.
    link_monitor = built.link_monitor
    queue_ref = [(r.time, r.value) for r in reference.select("queue", link)]
    assert link_monitor.queue_series() == queue_ref
    edges = [queue_ref[len(queue_ref) // 3][0], queue_ref[len(queue_ref) // 2][0]]
    for t_min in (0.0, 10.5, 13.9, 15.0, *edges):
        assert link_monitor.queue_series(t_min) == [
            (t, d) for t, d in queue_ref if t >= t_min
        ]
    assert link_monitor.drops == [
        (r.time, r.meta["flow"]) for r in reference.select("drop", link)
    ]
    flow_monitor = built.flow_monitor
    assert flow_monitor.flows() == sorted({r.source for r in reference.select("recv")})
    for fid in sorted({r.source for r in reference.select("recv")}):
        pairs = [(r.time, r.value) for r in reference.select("recv", fid)]
        assert flow_monitor.arrival_series(fid) == pairs
        for tau in (0.15, 0.5, 1.0):
            assert flow_monitor.rate_series(fid, 6.0, 14.0, tau).tobytes() == (
                rate_series_reference(pairs, 6.0, 14.0, tau).tobytes()
            )
        assert flow_monitor.bytes_by_flow[fid] == sum(s for _, s in pairs)
        assert flow_monitor.packets_by_flow[fid] == len(pairs)
        edges = (pairs[len(pairs) // 4][0], pairs[len(pairs) // 2][0])
        for t_min, t_max in [(0.0, 14.0), (10.0, 11.5), (13.5, 17.0), edges]:
            total = sum(s for t, s in pairs if t_min <= t <= t_max)
            assert flow_monitor.throughput_bps(fid, t_min, t_max) == (
                total * 8 / (t_max - t_min)
            )


def test_untraced_linkmonitor_matches_a_plain_list():
    """An untraced ``LinkMonitor`` (the reverse link's ACK queue)."""
    built = build_mixed_dumbbell(
        n_tfrc=1, n_tcp=1, bandwidth_bps=2e6, seed=2, sample_queue=False,
    )
    link = built.dumbbell.reverse_link
    monitor = LinkMonitor(built.sim, link, sample_queue=True)
    samples = []
    link.add_queue_sample_hook(lambda now, depth: samples.append((now, depth)))
    built.sim.run(until=16.0)
    assert len(samples) > CHUNK
    assert monitor.queue_series() == samples
    assert monitor.queue_series(12.0) == [(t, d) for t, d in samples if t >= 12.0]


# ------------------------------------------------------- generated streams

names = st.sampled_from(["send", "recv", "drop", "queue", "rate", "x"])
sources = st.sampled_from(["tfrc-0", "tcp-1", "bottleneck-fwd", ""])
ints = st.integers()  # of any size, 64-bit overflow included
floats = st.one_of(
    st.floats(),  # inf, nan, -0.0 and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)
metas = st.one_of(
    st.none(),
    st.fixed_dictionaries({"seq": ints}),  # core/sender.py send
    st.fixed_dictionaries({"seq": ints, "retx": st.booleans()}),  # tcp/base.py
    st.fixed_dictionaries({"flow": sources, "seq": ints}),  # net/monitor.py drop
    st.dictionaries(  # any other shape: flags, names, floats, empty
        st.sampled_from(["a", "b", "seq"]),
        st.one_of(ints, floats, st.booleans(), st.text(max_size=3)),
        max_size=3,
    ),
)
records = st.tuples(floats, names, sources, st.one_of(ints, floats, st.booleans()), metas)
# short streams, and streams ending or read next to a chunk boundary
lengths = st.one_of(
    st.integers(min_value=0, max_value=50),
    st.sampled_from([1, 2]).flatmap(
        lambda chunks: st.integers(chunks * CHUNK - 2, chunks * CHUNK + 2)
    ),
)


@settings(max_examples=30)
@given(
    pattern=st.lists(records, min_size=1, max_size=40),
    length=lengths,
    read_at=lengths,
)
def test_generated_streams_read_back_exactly(pattern, length, read_at):
    tracer, reference = Tracer(), ListSink()
    sink = Tee(tracer, reference)
    for i in range(length):
        time, category, source, value, meta = pattern[i % len(pattern)]
        if i == read_at:  # a read in mid-stream packs a partial chunk
            assert_same_reads(tracer, reference, [{}])
        if meta is None and i % 2:
            sink.record(time, category, source, value)
        else:
            sink.record(time, category, source, value, meta=meta)
    _, category, source, _, _ = pattern[0]
    assert_same_reads(tracer, reference, [
        {}, {"category": category}, {"source": source},
        {"category": category, "source": source},
    ])


def test_default_value_is_the_float_zero():
    tracer = Tracer()
    tracer.record(1.0, "send", "a")
    [record] = tracer
    assert exact(record.value) == exact(0.0)
