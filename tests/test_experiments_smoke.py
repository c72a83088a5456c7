"""Smoke tests: every table harness runs (quick mode) and its measured
shape agrees with the paper's qualitative claim."""
import numpy as np
import pytest

from repro.experiments import (
    t1_space_vs_n,
    t2_space_vs_eps,
    t3_accuracy_tails,
    t4_mergeability,
    t5_throughput,
    t6_all_quantiles,
)


@pytest.fixture(scope="module")
def t1():
    return t1_space_vs_n.run(quick=True)


@pytest.fixture(scope="module")
def t3():
    return t3_accuracy_tails.run(quick=True)


class TestT1:
    def test_columns(self, t1):
        for c in ("n", "req_retained", "naive_retained", "kll_retained"):
            assert c in t1.columns

    def test_req_space_grows_sublinearly(self, t1):
        """16x more data -> far less than 16x more space (polylog growth)."""
        ratio = t1["req_retained"].iloc[-1] / t1["req_retained"].iloc[0]
        data_ratio = t1["n"].iloc[-1] / t1["n"].iloc[0]
        assert ratio < data_ratio / 3

    def test_naive_bigger_than_req(self, t1):
        assert (t1["naive_retained"] > t1["req_retained"]).all()

    def test_kll_flat(self, t1):
        assert t1["kll_retained"].max() < 3 * t1["kll_retained"].min()


class TestT2:
    def test_linear_vs_quadratic_eps(self):
        df = t2_space_vs_eps.run(quick=True)
        # Naive's blow-up factor over REQ grows as eps shrinks.
        assert df["naive_over_req"].is_monotonic_increasing

    def test_k_scaling(self):
        df = t2_space_vs_eps.run(quick=True)
        # k quadruples for naive when eps halves; roughly doubles for REQ.
        req_ratio = df["req_k"].iloc[-1] / df["req_k"].iloc[0]
        naive_ratio = df["naive_k"].iloc[-1] / df["naive_k"].iloc[0]
        assert naive_ratio > 2.5 * req_ratio


class TestT3:
    def test_req_flat_relative_error(self, t3):
        assert t3["req_max_rel"].max() < 0.02

    def test_kll_blows_up_at_low_ranks(self, t3):
        low = t3[t3["rank"] <= 10]["kll_max_rel"].max()
        high = t3[t3["rank"] >= t3.attrs["n"] // 4]["kll_max_rel"].max()
        assert low > 10 * max(high, 1e-4)

    def test_sampling_bad_at_low_ranks(self, t3):
        assert t3[t3["rank"] <= 10]["sample_max_rel"].max() > 0.3

    def test_space_budgets_comparable(self, t3):
        s = t3.attrs["space"]
        assert 0.5 < s["kll"] / s["req"] < 2.0
        assert 0.5 < s["sample"] / s["req"] < 2.0


class TestT4:
    def test_all_builds_within_band(self, spark):
        df = t4_mergeability.run(spark, quick=True)
        # Every build covers the whole input, the executor tree included.
        assert (df["n"] == df.attrs["n"]).all()
        assert (df["weight_ok"]).all()
        assert "rdd_tree_reduce" in set(df["build"])
        assert df["max_rel_err"].max() < 0.08
        stream_err = df[df["build"] == "driver_stream"]["max_rel_err"].iloc[0]
        # No distributed build an order of magnitude worse than streaming.
        assert df["max_rel_err"].max() <= max(10 * max(stream_err, 0.005), 0.05)

    def test_requires_spark(self):
        with pytest.raises(ValueError):
            t4_mergeability.run(None, quick=True)


class TestT5:
    def test_log_not_linear_cost(self):
        df = t5_throughput.run(quick=True)
        # k grows 16x; per-item cost must NOT grow 16x (log claim).
        assert df["cost_ratio_vs_first"].iloc[-1] < 4.0

    def test_compactions_shrink_with_k(self):
        df = t5_throughput.run(quick=True)
        assert df["compactions"].is_monotonic_decreasing


class TestT6:
    def test_all_quantiles_bound(self):
        df = t6_all_quantiles.run(quick=True)
        assert (df["head_exact"]).all()
        assert df["max_rel_all_y"].max() < 0.02
