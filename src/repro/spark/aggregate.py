"""Distributed sketch builders — the paper's mergeability put to work.

Two dataflow shapes, both exercising Algorithm 4's merge:

* ``build_sketch(..., method="map_partitions")`` — an Arrow kernel
  (``mapInArrow``): each partition reads its column's Arrow batches
  straight into numpy, builds one partial sketch (vectorized ``update``)
  and emits it as bytes; the driver merges the partials in a *balanced
  binary tree* so the merge tree has logarithmic depth like a parallel
  reduction would.  The input is first coalesced (narrowly, no shuffle)
  to ``defaultParallelism`` partitions, so a build is one wave of at most
  one task per core and ships at most that many partials.  Every wave of
  Python tasks pays a fixed start-up (≈0.25–0.3 s on a 4-core host, more
  than the sketch work of a 600k-row column), and full mergeability
  (App. C) keeps the guarantee for any split of the input, so the number
  of partials is purely a cost choice.  ``partition_sketches`` itself
  keeps the caller's layout: one partial per non-empty input partition.

* ``build_sketch(..., method="tree_aggregate")`` — the classic RDD
  ``treeAggregate(zero, seqOp, combOp, depth)``: insertion and merging
  both happen on executors, with intermediate combiner levels — the
  "mergeable summary as an Aggregator" shape.  Per-row seqOp is the
  semantics-faithful form; for throughput use map_partitions.

Randomness: each partition's sketch is seeded by SeedSequence(seed,
partition_id) so distributed builds are reproducible and partitions are
independent (the paper's guarantee needs independent coin flips, not a
shared RNG).
"""
from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np
import pyarrow as pa
from pyspark import TaskContext
from pyspark.sql import DataFrame

from repro.core import serde
from repro.core.req_sketch import ReqSketch


def _partition_rng_seed(seed: int, partition_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, partition_id]))


def _make_sketch(proto: dict, seed: int, partition_id: int) -> ReqSketch:
    """Build an empty sketch from a parameter prototype + partition seed."""
    sk = ReqSketch(
        proto["k"],
        schedule=proto["schedule"],
        khat=proto["khat"],
        k_const=proto["k_const"],
    )
    sk.rng = _partition_rng_seed(seed, partition_id)
    return sk


def _proto(template: ReqSketch) -> dict:
    """Parameter prototype of a sketch (picklable, tiny)."""
    return {
        "k": template.k,
        "schedule": template.schedule,
        "khat": template._khat,
        "k_const": template._k_const,
    }


def partition_sketches(
    df: DataFrame, col: str, *, template: ReqSketch, seed: int = 0
) -> List[ReqSketch]:
    """One partial REQ sketch per non-empty partition of ``df`` (mapInArrow).

    Keeps the caller's layout: ``df`` is not repartitioned or coalesced.
    """
    proto = _proto(template)

    def build(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        ctx = TaskContext.get()
        pid = ctx.partitionId() if ctx is not None else 0
        sk: Optional[ReqSketch] = None
        for batch in batches:
            col_arr = batch.column(0).cast(pa.float64(), safe=False)
            vals = col_arr.to_numpy(zero_copy_only=False)  # nulls become NaN
            vals = vals[~np.isnan(vals)]
            if vals.size == 0:
                continue
            if sk is None:
                sk = _make_sketch(proto, seed, pid)
            sk.update(vals)
        if sk is not None:
            yield pa.RecordBatch.from_arrays(
                [pa.array([serde.to_bytes(sk)], type=pa.binary())], names=["sketch"]
            )

    out = df.select(col).mapInArrow(build, schema="sketch binary").collect()
    return [serde.from_bytes(row["sketch"]) for row in out]


def merge_balanced(sketches: List[ReqSketch]) -> ReqSketch:
    """Merge partials pairwise in rounds — a balanced binary merge tree.

    Matches the merge topology of a parallel reduction, the shape
    App. C's "arbitrary merge tree" analysis must survive.
    """
    if not sketches:
        raise ValueError("no partial sketches to merge (empty input?)")
    layer = list(sketches)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(layer[i].merge(layer[i + 1]))
        if len(layer) % 2 == 1:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def merge_sequential(sketches: List[ReqSketch]) -> ReqSketch:
    """Left-fold merge — the most unbalanced merge tree (worst case)."""
    if not sketches:
        raise ValueError("no partial sketches to merge (empty input?)")
    acc = sketches[0]
    for sk in sketches[1:]:
        acc = acc.merge(sk)
    return acc


def tree_aggregate_sketch(
    df: DataFrame,
    col: str,
    *,
    template: ReqSketch,
    seed: int = 0,
    depth: int = 2,
) -> ReqSketch:
    """Build via RDD ``treeAggregate``: per-row seqOp inserts, combOp merges.

    The zero value is a parameter prototype (not a live sketch) so every
    task starts from a fresh, partition-seeded instance.
    """
    proto = _proto(template)

    def seq_op(acc, value):
        if value is None:
            return acc
        if not isinstance(acc, ReqSketch):
            ctx = TaskContext.get()
            pid = ctx.partitionId() if ctx is not None else 0
            acc = _make_sketch(proto, seed, pid)
        acc.update(float(value))
        return acc

    def comb_op(a, b):
        a_is = isinstance(a, ReqSketch)
        b_is = isinstance(b, ReqSketch)
        if a_is and b_is:
            return a.merge(b)
        return a if a_is else b

    rdd = df.select(col).rdd.map(lambda r: r[0])
    result = rdd.treeAggregate(proto, seq_op, comb_op, depth=depth)
    if not isinstance(result, ReqSketch):
        raise ValueError("no rows to aggregate (empty input?)")
    return result


def build_sketch(
    df: DataFrame,
    col: str,
    *,
    k: int = 32,
    seed: int = 0,
    schedule: str = "req",
    khat: Optional[float] = None,
    k_const: int = 2 ** 5,
    method: str = "map_partitions",
    merge_shape: str = "balanced",
    depth: int = 2,
) -> ReqSketch:
    """Build a REQ sketch of ``df[col]`` with the chosen dataflow.

    ``method``: "map_partitions" (Arrow partials from at most
    ``defaultParallelism`` partitions + driver merge tree) or
    "tree_aggregate" (RDD treeAggregate, executor-side merges).
    ``merge_shape``: "balanced" or "sequential" (map_partitions only).
    """
    template = ReqSketch(k, schedule=schedule, khat=khat, k_const=k_const)
    if method == "tree_aggregate":
        return tree_aggregate_sketch(df, col, template=template, seed=seed, depth=depth)
    if method != "map_partitions":
        raise ValueError(f"unknown method {method!r}")
    # One wave of tasks, one partial per core: coalesce never adds partitions.
    cores = df.sparkSession.sparkContext.defaultParallelism
    partials = partition_sketches(df.coalesce(cores), col, template=template, seed=seed)
    if merge_shape == "balanced":
        return merge_balanced(partials)
    if merge_shape == "sequential":
        return merge_sequential(partials)
    raise ValueError(f"unknown merge_shape {merge_shape!r}")
