"""Memory guard: a traced run keeps at most 50 bytes per trace record.

A short traced mixed dumbbell (the ``packet_traced`` shape, smaller) runs
under ``tracemalloc`` with the tracer, sampled queues and a second
``LinkMonitor``, and without them (after one unmeasured run, so one-time
allocations count against neither).  The difference in memory still held
after the run, divided by the number of trace records, is what tracing
costs to keep.  The columnar ``Tracer`` and monitors hold about 28 B per
record here; per-record ``meta`` dicts and boxed floats, as the tracer kept
them before, held 118.  Keeping the boxed times alone would add ~24 B.
"""

import gc
import tracemalloc

from repro.net.monitor import LinkMonitor
from repro.scenarios.builders import build_mixed_dumbbell
from repro.sim.trace import Tracer

MAX_BYTES_PER_RECORD = 50


def _retained_after_run(traced):
    """(bytes still allocated after the run, trace records)."""
    gc.collect()
    tracemalloc.start()
    try:
        tracer = Tracer() if traced else None
        built = build_mixed_dumbbell(
            n_tfrc=4, n_tcp=4, bandwidth_bps=8e6, queue_type="red", seed=1,
            tracer=tracer, sample_queue=traced,
        )
        if traced:
            LinkMonitor(
                built.sim, built.dumbbell.reverse_link, tracer=tracer,
                sample_queue=True,
            )
        built.sim.run(until=16.0)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        return retained, len(tracer) if traced else 0
    finally:
        tracemalloc.stop()


def test_traced_run_retains_at_most_50_bytes_per_record():
    _retained_after_run(traced=False)  # imports, caches, interned names
    plain, _ = _retained_after_run(traced=False)
    traced, records = _retained_after_run(traced=True)
    assert records > 20_000
    per_record = (traced - plain) / records
    assert per_record <= MAX_BYTES_PER_RECORD, (
        f"{per_record:.1f} B retained per trace record"
    )
