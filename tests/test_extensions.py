"""Tests for the experiment helpers."""

from repro.experiments.fig09_equivalence import _cross_pairs, _pair_up


class TestPairingHelpers:
    def test_pair_up_disjoint_adjacent(self):
        assert _pair_up(["a", "b", "c", "d"]) == [("a", "b"), ("c", "d")]

    def test_pair_up_odd_drops_last(self):
        assert _pair_up(["a", "b", "c"]) == [("a", "b")]

    def test_cross_pairs(self):
        assert _cross_pairs(["a", "b"], ["x", "y"]) == [("a", "x"), ("b", "y")]
