"""Distributed-build tests: the Arrow kernel's partials and their merge
trees, on the driver and on the executors."""
import hashlib
import math

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.baselines.exact import ExactRanks, relative_errors
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark import aggregate as agg

N = 40_000
PHI = [1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0]


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def stream(spark):
    arr = sd.stream_array("permutation", N, seed=0)
    df = sd.stream_df(spark, "permutation", N, seed=0, num_partitions=8).cache()
    df.count()
    return arr, df


@pytest.fixture(scope="module")
def stream16(spark):
    df = sd.stream_df(spark, "permutation", N, seed=0, num_partitions=16).cache()
    df.count()
    yield df
    df.unpersist()


class TestPartitionSketches:
    def test_one_sketch_per_nonempty_partition(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=1)
        assert 1 <= len(parts) <= 8
        assert sum(p.n for p in parts) == N

    def test_partials_weight_conserved(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=2)
        assert all(p.total_weight() == p.n for p in parts)

    def test_deterministic_given_seed_and_layout(self, spark, stream):
        _, df = stream
        a = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=3)
        b = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=3)
        qs = np.linspace(1, N, 20)
        ra = agg.merge_balanced(a).ranks(qs)
        rb = agg.merge_balanced(b).ranks(qs)
        assert np.array_equal(ra, rb)

    def test_nulls_skipped(self, spark):
        import pandas as pd

        pdf = pd.DataFrame({"x": [1.0, None, 3.0, None, 5.0]})
        df = spark.createDataFrame(pdf)
        parts = agg.partition_sketches(df, "x", template=ReqSketch(8), seed=4)
        assert sum(p.n for p in parts) == 3


class TestArrowKernel:
    def test_partials_bit_identical_to_driver_build(self, spark):
        """Each partial equals a driver-side sketch fed the same partition's
        rows in order (nulls and NaNs dropped), seeded (seed, partition id)."""
        rng = np.random.default_rng(0)
        rows = [(float(v),) for v in rng.random(8000)]
        rows[2000:4000:7] = [(None,)] * len(rows[2000:4000:7])
        rows[4000:6000:5] = [(math.nan,)] * len(rows[4000:6000:5])
        rows[6000:] = [(None,)] * 2000
        df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), "x double")
        layout = df.rdd.glom().collect()
        assert sum(r.x is None for r in layout[1]) > 0  # a partition with nulls
        expected = []
        for pid, part in enumerate(layout):
            vals = np.array([r.x for r in part if r.x is not None], dtype=np.float64)
            vals = vals[~np.isnan(vals)]
            if vals.size:
                sk = ReqSketch(8)
                sk.rng = np.random.default_rng(np.random.SeedSequence([11, pid]))
                expected.append(serde.to_bytes(sk.update(vals)))
        got = agg.partition_sketches(df, "x", template=ReqSketch(8), seed=11)
        assert len(expected) == 3  # the all-null partition emits nothing
        assert [serde.to_bytes(p) for p in got] == expected

    def test_partials_pinned(self, spark):
        """Same seed and layout, same partials and merged sketch: schedule
        states, every level's sorted bytes and quantiles are pinned.

        ``spark.range`` fixes the layout (four contiguous id ranges) for
        any core count, and ``randn(3)`` is seeded per partition.
        """
        df = spark.range(0, 60_000, 1, 4).select(F.exp(3 + 1.5 * F.randn(3)).alias("x"))
        parts = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=7)
        assert [p.n for p in parts] == [15_000] * 4
        assert [[lv.state for lv in p.levels] for p in parts] == [[460, 176, 71, 29, 7, 0]] * 4
        m = agg.merge_balanced(parts)
        assert [lv.state for lv in m.levels] == [461, 177, 72, 30, 8, 1, 0]
        assert [_sha(lv.sorted_values()) for lv in m.levels] == [
            "6ab5416f613773843115ec8cea422d0f4acd1e91d67b68da0f73ef55a67c9f76",
            "1d7e7c2b5536f882ca01bc2b3dfcd66a8b12463d794057da955832ac38b73d53",
            "6223bff03504526249b5bd849ad58e47759193af007d2e48146297c43d08cf97",
            "1f23c5f9182c35af9dc6f5905549edf7d70004e1a11f341282cd425d8b774f9b",
            "3feef8e097d25d8fbf65b2e7f19687b26464637e63b63499e560d9a2c40c9eda",
            "beb4b8dc88af17096958777586ea56d1b37ce0e6ec68551ca27b4569073fd1b6",
            "10f82c7d82443bbb322e9bee52b07714d50898fd97ca6f8b65fbb5546fd8c1d7",
        ]
        assert _sha(m.quantiles(PHI)) == (
            "5fff6639a2fd0fb3c46c70bef88c6df25583896ed5b5917201b546424b315408"
        )

    def test_keeps_callers_layout(self, spark, stream16):
        parts = agg.partition_sketches(stream16, "x", template=ReqSketch(16), seed=1)
        assert len(parts) == 16

    def test_build_merges_one_partial_per_core(self, spark, stream16):
        """build_sketch coalesces to defaultParallelism partitions first."""
        cores = spark.sparkContext.defaultParallelism
        parts = agg.partition_sketches(
            stream16.coalesce(cores), "x", template=ReqSketch(16), seed=9
        )
        assert len(parts) <= cores
        built = agg.build_sketch(stream16, "x", k=16, seed=9)
        assert serde.to_bytes(built) == serde.to_bytes(agg.merge_balanced(parts))


class TestMergeShapes:
    def test_balanced_weight(self, spark, stream):
        _, df = stream
        sk = agg.build_sketch(df, "x", k=16, seed=5)
        assert sk.total_weight() == N

    def test_sequential_weight(self, spark, stream):
        _, df = stream
        sk = agg.merge_sequential(
            agg.partition_sketches(df, "x", template=ReqSketch(16), seed=6)
        )
        assert sk.total_weight() == N

    def test_merge_helpers_leave_inputs_alone(self):
        parts = [
            ReqSketch(16, seed=i).update(sd.stream_array("lognormal", 15_000, seed=i))
            for i in range(4)
        ]
        qs = np.linspace(0, 60, 25)

        def snapshot():
            return [
                (
                    p.n,
                    [(lv.state, lv.sorted_values().tobytes()) for lv in p.levels],
                    p.ranks(qs).tobytes(),
                )
                for p in parts
            ]

        before = snapshot()
        assert agg.merge_balanced(parts).n == 60_000
        assert snapshot() == before
        assert agg.merge_sequential(parts).n == 60_000
        assert snapshot() == before

    def test_merge_helpers_reject_empty(self):
        with pytest.raises(ValueError):
            agg.merge_balanced([])
        with pytest.raises(ValueError):
            agg.merge_sequential([])

    def test_accuracy_balanced(self, spark, stream):
        arr, df = stream
        sk = agg.build_sketch(df, "x", k=32, seed=7)
        ex = ExactRanks(arr)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(N), 25).astype(int), 1, N))
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.06, rel.max()

    def test_accuracy_matches_driver_build(self, spark, stream):
        """Distributed error in the same band as a single-stream build."""
        arr, df = stream
        ex = ExactRanks(arr)
        ranks = np.unique(np.clip(np.logspace(1, np.log10(N), 20).astype(int), 1, N))
        ys = ex.values_at_ranks(ranks)
        true = ex.ranks(ys)
        dist = agg.build_sketch(df, "x", k=32, seed=8)
        drv = ReqSketch(32, seed=8).update(arr)
        rel_d = relative_errors(dist.ranks(ys), true).max()
        rel_s = relative_errors(drv.ranks(ys), true).max()
        assert rel_d < 0.06 and rel_s < 0.06


def tree_reduce(df, *, k, seed, depth=2):
    """Executor-side merge tree over the kernel's partials (T4's shape)."""
    blobs = agg._partial_bytes(df, "x", template=ReqSketch(k), seed=seed)
    root = blobs.rdd.map(lambda r: r[0]).treeReduce(agg._merge_bytes, depth=depth)
    return serde.from_bytes(root)


class TestTreeAggregate:
    """RDD ``treeReduce`` (PySpark runs it as a ``treeAggregate``) merging
    the Arrow kernel's partials on the executors."""

    def test_weight_and_accuracy(self, spark):
        n = 5_000
        arr = sd.stream_array("permutation", n, seed=9)
        df = sd.stream_df(spark, "permutation", n, seed=9, num_partitions=6)
        sk = tree_reduce(df, k=16, seed=10)
        assert sk.n == n and sk.total_weight() == n
        ex = ExactRanks(arr)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 15).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.1, rel.max()

    def test_merge_bytes_is_merge(self):
        """The combOp is ``merge`` between a decode and an encode."""
        a = ReqSketch(8, seed=1).update(sd.stream_array("uniform", 3_000, seed=1))
        b = ReqSketch(8, seed=2).update(sd.stream_array("uniform", 5_000, seed=2))
        got = agg._merge_bytes(serde.to_bytes(a), serde.to_bytes(b))
        want = serde.to_bytes(serde.from_bytes(serde.to_bytes(a)).merge(b))
        assert got == want

    def test_depth_variants(self, spark):
        n = 3_000
        df = sd.stream_df(spark, "uniform", n, seed=11, num_partitions=6)
        for depth in (1, 2, 3):
            sk = tree_reduce(df, k=16, seed=12, depth=depth)
            assert sk.total_weight() == n

    def test_empty_input_raises(self, spark):
        import pandas as pd

        df = spark.createDataFrame(pd.DataFrame({"x": [1.0]})).filter("x > 2")
        with pytest.raises(ValueError, match="empty"):
            tree_reduce(df, k=16, seed=0)

    def test_empty_input_raises_map_partitions(self, spark):
        import pandas as pd

        df = spark.createDataFrame(pd.DataFrame({"x": [1.0]})).filter("x > 2")
        with pytest.raises(ValueError):
            agg.build_sketch(df, "x")


class TestTpchColumn:
    def test_lineitem_price_sketch(self, spark):
        li = sd.lineitem(spark, sf=0.002, seed=1)
        vals = li.toPandas()["l_extendedprice"].to_numpy()
        sk = agg.build_sketch(li.repartition(4), "l_extendedprice", k=32, seed=13)
        assert sk.total_weight() == len(vals)
        ex = ExactRanks(vals)
        ranks = np.unique(
            np.clip(np.logspace(0, np.log10(len(vals)), 15).astype(int), 1, len(vals))
        )
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.08, rel.max()
