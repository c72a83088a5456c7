"""Distributed sketch builders — the paper's mergeability put to work.

One kernel turns rows into sketches: a ``mapInArrow`` task reads its
partition's Arrow batches straight into numpy, builds one partial sketch
(vectorized ``update``) and emits it as one ``binary`` row.  Full
mergeability (Thm 1, App. C) keeps the guarantee for any split of the
input and any merge tree, so every distributed shape is that kernel plus
a choice of where the partials meet:

* ``build_sketch`` — the whole-column build.  The input is first
  coalesced (narrowly, no shuffle) to ``defaultParallelism`` partitions,
  so a build is one wave of at most one task per core and ships at most
  that many partials; the driver merges them in a *balanced binary
  tree*, the logarithmic-depth shape of a parallel reduction.  Every
  wave of Python tasks pays a fixed start-up (≈0.25–0.3 s on a 4-core
  host, more than the sketch work of a 600k-row column), so the number
  of partials is purely a cost choice.
* ``partition_sketches`` — the partials themselves, one per non-empty
  input partition in the caller's layout, for any driver-side merge
  (``merge_balanced``, ``merge_sequential``) or sketch template
  (adaptive k, ``schedule="all"``).
* executor-side merge trees — ``_partial_bytes(...).rdd`` reduced with
  ``treeReduce(_merge_bytes, depth)``: partials are merged on executors
  in intermediate combiner levels and only the root reaches the driver
  (T4's ``rdd_tree_reduce`` row).

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


def _partial_bytes(
    df: DataFrame, col: str, *, template: ReqSketch, seed: int = 0
) -> DataFrame:
    """The Arrow kernel: one ``sketch binary`` row per non-empty partition."""
    # The template's constructor arguments: picklable and tiny.
    params = dict(
        k=template.k,
        schedule=template.schedule,
        khat=template._khat,
        k_const=template._k_const,
    )

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
                sk = ReqSketch(**params)
                sk.rng = np.random.default_rng(np.random.SeedSequence([seed, pid]))
            sk.update(vals)
        if sk is not None:
            yield pa.RecordBatch.from_arrays(
                [pa.array([serde.to_bytes(sk)], type=pa.binary())], names=["sketch"]
            )

    return df.select(col).mapInArrow(build, schema="sketch binary")


def _merge_bytes(a: bytes, b: bytes) -> bytes:
    """Merge two encoded sketches into one encoded sketch (executor combOp)."""
    return serde.to_bytes(serde.from_bytes(a).merge(serde.from_bytes(b)))


def partition_sketches(
    df: DataFrame, col: str, *, template: ReqSketch, seed: int = 0
) -> List[ReqSketch]:
    """One partial REQ sketch per non-empty partition of ``df``.

    Keeps the caller's layout: ``df`` is not repartitioned or coalesced.
    """
    rows = _partial_bytes(df, col, template=template, seed=seed).collect()
    return [serde.from_bytes(row["sketch"]) for row in rows]


def merge_balanced(sketches: List[ReqSketch]) -> ReqSketch:
    """Merge partials pairwise in rounds — a balanced binary merge tree.

    Matches the merge topology of a parallel reduction, the shape
    App. C's "arbitrary merge tree" analysis must survive.  It merges
    into copies: the inputs are left unchanged.
    """
    if not sketches:
        raise ValueError("no partial sketches to merge (empty input?)")
    layer = [sk.copy() for sk in sketches]
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(layer[i].merge(layer[i + 1]))
        if len(layer) % 2 == 1:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def merge_sequential(sketches: List[ReqSketch]) -> ReqSketch:
    """Left-fold merge into a copy of the first input — the most
    unbalanced merge tree (worst case)."""
    if not sketches:
        raise ValueError("no partial sketches to merge (empty input?)")
    acc = sketches[0].copy()
    for sk in sketches[1:]:
        acc.merge(sk)
    return acc


def build_sketch(df: DataFrame, col: str, *, k: int = 32, seed: int = 0) -> ReqSketch:
    """REQ sketch of ``df[col]``: Arrow partials from at most
    ``defaultParallelism`` partitions, merged on the driver in a balanced tree.
    """
    # One wave of tasks, one partial per core: coalesce never adds partitions.
    cores = df.sparkSession.sparkContext.defaultParallelism
    partials = partition_sketches(df.coalesce(cores), col, template=ReqSketch(k), seed=seed)
    return merge_balanced(partials)
