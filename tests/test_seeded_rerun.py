"""Same seed, same bytes: the traced dumbbell and ON/OFF runs repeat exactly.

``tests/test_golden_digests.py`` pins these runs to committed digests, but
skips off its python/numpy/machine triple; a run repeated in one interpreter
must match itself everywhere (exact floats via ``float.hex``).
"""

from test_golden_digests import RUNS


class TestSeededRunsRepeat:
    def test_dumbbell_traces_byte_identical(self):
        trace, outcome = RUNS["traced_mixed_dumbbell"]()
        assert trace, "scenario produced no trace records"
        assert outcome["rev_queue_samples"], "reverse link never sampled"
        assert (trace, outcome) == RUNS["traced_mixed_dumbbell"]()

    def test_onoff_run_byte_identical(self):
        trace, outcome = RUNS["fig11_onoff"]()
        assert trace, "scenario produced no trace records"
        assert (trace, outcome) == RUNS["fig11_onoff"]()
