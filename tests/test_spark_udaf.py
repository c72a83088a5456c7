"""Grouped-sketch (applyInPandas UDAF shape) tests, oracle-checked."""
import os
import subprocess
import sys

import numpy as np
import pytest
from pyspark.sql import functions as F

import repro
from repro import synth_data as sd
from repro.core import serde
from repro.oracle import assert_equivalent
from repro.spark import udaf


@pytest.fixture(scope="module")
def li(spark):
    df = sd.lineitem(spark, sf=0.002, seed=3).cache()
    df.count()
    return df


class TestGroupSketches:
    def test_one_row_per_group(self, spark, li):
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=1)
        rows = out.collect()
        flags = {r["l_returnflag"] for r in rows}
        assert flags == {"N", "R", "A"}

    def test_group_counts_match_sql(self, spark, li):
        """The sketch's n per group == COUNT(*) — checked against DuckDB."""
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=2)
        got = out.select("l_returnflag", F.col("n").alias("cnt")).orderBy("l_returnflag")
        assert_equivalent(
            got,
            "SELECT l_returnflag, COUNT(*) AS cnt FROM li GROUP BY l_returnflag "
            "ORDER BY l_returnflag",
            li=li,
        )

    def test_sketches_deserializable_and_weighted(self, spark, li):
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=3)
        for r in out.collect():
            sk = serde.from_bytes(r["sketch"])
            assert sk.total_weight() == r["n"]

    def test_multi_column_group(self, spark, li):
        out = udaf.group_sketches(
            li, ["l_returnflag", "l_linestatus"], "l_extendedprice", k=16, seed=4
        )
        assert out.count() == li.select("l_returnflag", "l_linestatus").distinct().count()


class TestGroupQuantiles:
    def test_within_relative_tolerance_of_duckdb(self, spark, li):
        """Estimated per-group quantiles sit at a *rank* within eps-ish of
        the target rank (the paper's guarantee is on ranks, not values)."""
        phis = [0.01, 0.5, 0.99]
        out = udaf.group_quantiles(
            li, ["l_returnflag"], "l_extendedprice", phis, k=32, seed=5
        ).collect()
        pdf = li.toPandas()
        for r in out:
            grp = pdf[pdf["l_returnflag"] == r["l_returnflag"]]["l_extendedprice"]
            n = len(grp)
            true_rank = (grp <= r["value"]).sum()
            target = r["phi"] * n
            assert abs(true_rank - target) <= max(0.05 * target, 40), (
                r["l_returnflag"], r["phi"], true_rank, target
            )

    def test_output_schema(self, spark, li):
        out = udaf.group_quantiles(li, ["l_returnflag"], "l_quantity", [0.5], k=16)
        assert out.columns == ["l_returnflag", "phi", "value"]


class TestRollup:
    def test_merge_groups_equals_global(self, spark, li):
        """Rolling up per-group sketches gives a valid global sketch."""
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=6)
        merged = udaf.merge_group_sketches(out)
        assert merged.total_weight() == li.count()
        # Global median from rolled-up sketch lands near the true median.
        pdf = li.toPandas()["l_extendedprice"]
        est = merged.quantile(0.5)
        true_rank = (pdf <= est).sum()
        assert abs(true_rank - 0.5 * len(pdf)) <= 0.05 * len(pdf)

    def test_empty_rollup_rejected(self, spark, li):
        empty = udaf.group_sketches(
            li.filter("l_extendedprice < 0"), ["l_returnflag"], "l_extendedprice"
        )
        with pytest.raises(ValueError):
            udaf.merge_group_sketches(empty)


class TestGroupSeed:
    KEY = ("R", 42, 1.5)
    DRAW = (
        "from repro.spark.udaf import _group_seed; "
        "print(_group_seed(7, ('R', 42, 1.5)).integers(0, 2**32, 4).tolist())"
    )

    def test_same_draws_in_any_process(self):
        """The group seed does not depend on the process's hash salt."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            run = subprocess.run(
                [sys.executable, "-c", self.DRAW],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outs.append(run.stdout.strip())
        here = udaf._group_seed(7, self.KEY).integers(0, 2**32, 4).tolist()
        assert outs == [str(here), str(here)]

    def test_keys_get_different_seeds(self):
        a = udaf._group_seed(7, ("R",)).integers(0, 2**32, 4)
        b = udaf._group_seed(7, ("N",)).integers(0, 2**32, 4)
        assert not np.array_equal(a, b)
