"""Unit tests for the rank/CDF/quantile estimator on hand-built levels."""
import numpy as np
import pytest

from repro.core import estimator as E


class FakeSketch:
    """Minimal WeightedLevels implementation for arithmetic-exact tests."""

    def __init__(self, levels):
        self._levels = [(w, np.asarray(a, dtype=np.float64)) for w, a in levels]

    def level_arrays(self):
        return self._levels


class TestRanks:
    def test_single_level_weight_one(self):
        sk = FakeSketch([(1, [1.0, 2.0, 3.0, 4.0])])
        assert E.estimate_rank(sk, 2.5) == 2
        assert E.estimate_rank(sk, 2.0) == 2  # inclusive
        assert E.estimate_rank(sk, 0.0) == 0
        assert E.estimate_rank(sk, 9.0) == 4

    def test_weighted_levels_sum(self):
        sk = FakeSketch([(1, [1.0, 5.0]), (2, [2.0, 6.0]), (4, [3.0])])
        # R(4) = 1*|{1}| + 2*|{2}| + 4*|{3}| = 1 + 2 + 4 = 7
        assert E.estimate_rank(sk, 4.0) == 7
        assert E.estimate_rank(sk, 0.5) == 0
        assert E.estimate_rank(sk, 10.0) == 1 * 2 + 2 * 2 + 4 * 1

    def test_vectorized_matches_scalar(self):
        sk = FakeSketch([(1, np.arange(10.0)), (2, np.arange(0.5, 10.5))])
        qs = np.linspace(-1, 11, 37)
        vec = E.estimate_ranks(sk, qs)
        assert list(vec) == [E.estimate_rank(sk, q) for q in qs]

    def test_empty_levels_skipped(self):
        sk = FakeSketch([(1, []), (2, [1.0])])
        assert E.estimate_rank(sk, 1.0) == 2

    def test_duplicates(self):
        sk = FakeSketch([(1, [2.0, 2.0, 2.0])])
        assert E.estimate_rank(sk, 2.0) == 3
        assert E.estimate_rank(sk, 1.9) == 0


class TestTotalWeightAndCoreset:
    def test_total_weight(self):
        sk = FakeSketch([(1, [1.0, 2.0]), (4, [3.0, 4.0, 5.0])])
        assert E.total_weight(sk) == 2 + 12

    def test_total_weight_empty(self):
        assert E.total_weight(FakeSketch([])) == 0

    def test_coreset_sorted_and_weighted(self):
        sk = FakeSketch([(1, [5.0, 1.0]), (2, [3.0])])
        vals, wts = E.weighted_coreset(sk)
        assert list(vals) == [1.0, 3.0, 5.0]
        assert list(wts) == [1, 2, 1]

    def test_coreset_empty(self):
        vals, wts = E.weighted_coreset(FakeSketch([]))
        assert vals.size == 0 and wts.size == 0


class TestCdf:
    def test_values(self):
        sk = FakeSketch([(1, [1.0, 2.0, 3.0, 4.0])])
        c = E.estimate_cdf(sk, [0.0, 2.0, 4.0])
        assert list(c) == [0.0, 0.5, 1.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            E.estimate_cdf(FakeSketch([]), [1.0])


class TestQuantiles:
    def test_exact_small(self):
        sk = FakeSketch([(1, [10.0, 20.0, 30.0, 40.0])])
        assert E.estimate_quantile(sk, 0.0) == 10.0
        assert E.estimate_quantile(sk, 0.25) == 10.0
        assert E.estimate_quantile(sk, 0.5) == 20.0
        assert E.estimate_quantile(sk, 1.0) == 40.0

    def test_weighted(self):
        sk = FakeSketch([(1, [1.0]), (3, [2.0])])  # weights: 1@1, 3@2
        assert E.estimate_quantile(sk, 0.25) == 1.0
        assert E.estimate_quantile(sk, 0.5) == 2.0

    def test_out_of_range_rejected(self):
        sk = FakeSketch([(1, [1.0])])
        with pytest.raises(ValueError):
            E.estimate_quantiles(sk, [1.5])
        with pytest.raises(ValueError):
            E.estimate_quantiles(sk, [-0.1])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            E.estimate_quantile(FakeSketch([]), 0.5)

    def test_monotone_in_phi(self):
        rng = np.random.default_rng(0)
        sk = FakeSketch([(1, np.sort(rng.random(50))), (2, np.sort(rng.random(20)))])
        qs = E.estimate_quantiles(sk, np.linspace(0, 1, 50))
        assert np.all(np.diff(qs) >= 0)


class TestNanRejected:
    """NaN is unordered: every query path raises instead of answering."""

    SK = FakeSketch([(1, [1.0, 2.0, 3.0]), (2, [1.5])])

    @pytest.mark.parametrize(
        "query, arg",
        [
            (E.estimate_rank, np.nan),
            (E.estimate_ranks, [1.0, np.nan, 3.0]),
            (E.estimate_cdf, [2.0, np.nan]),
            (E.estimate_quantile, np.nan),
            (E.estimate_quantiles, [0.5, np.nan]),
        ],
        ids=["rank", "ranks", "cdf", "quantile", "quantiles"],
    )
    def test_estimator(self, query, arg):
        with pytest.raises(ValueError):
            query(self.SK, arg)

    def test_infinities_still_answered(self):
        assert E.estimate_rank(self.SK, np.inf) == 5
        assert E.estimate_rank(self.SK, -np.inf) == 0

    @pytest.mark.parametrize("make", ["req", "kll"])
    def test_sketch_methods(self, make):
        from repro.baselines.kll import KllSketch
        from repro.core.req_sketch import ReqSketch

        sk = ReqSketch(8, seed=0) if make == "req" else KllSketch(8, seed=0)
        sk.update(np.arange(100.0))
        for call, arg in [
            (sk.rank, np.nan),
            (sk.ranks, [1.0, np.nan]),
            (sk.quantile, np.nan),
            (sk.quantiles, [np.nan]),
        ] + ([(sk.cdf, [np.nan])] if make == "req" else []):
            with pytest.raises(ValueError):
                call(arg)
