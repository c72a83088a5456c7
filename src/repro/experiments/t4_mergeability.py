"""T4 — full mergeability in a real distributed dataflow (Theorem 1, App. C).

Paper claim: splitting the input arbitrarily, sketching pieces
separately, and combining partial sketches through *any* sequence of
merge operations preserves the same relative-error guarantee and space
as one-pass streaming.  We build the sketch over TPC-H-lite
``lineitem.l_extendedprice`` four ways, every distributed one from the
same ``mapInArrow`` kernel's per-partition partials —

* driver-side single stream (reference),
* partials + balanced merge tree on the driver (4/16/64 parts),
* partials + *sequential* (maximally unbalanced) merge chain,
* partials merged on the executors by RDD ``treeReduce`` (depth 2,
  32 parts), so only the root sketch reaches the driver,

and report the max/mean relative error of each against oracle-checked
exact ranks, plus retained space.  Every row covers the whole input
(``weight_ok``: total weight == input row count).  Shape to reproduce:
every row's error is in the same band; space is within a constant of
streaming.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines.exact import relative_errors
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import (
    _merge_bytes,
    _partial_bytes,
    merge_balanced,
    merge_sequential,
    partition_sketches,
)
from repro.spark.queries import exact_ranks

PAPER_CLAIM = (
    "Merged-anyhow sketch == streaming sketch: same eps guarantee, same space "
    "up to constants, for any merge tree (balanced, chain, executor treeReduce)."
)

K = 64


def _error_row(name, sk, truth, ys, parts, n):
    est = sk.ranks(ys)
    rel = relative_errors(est, truth)
    return {
        "build": name,
        "partitions": parts,
        "n": sk.n,
        "retained": sk.num_retained(),
        "levels": sk.num_levels,
        "max_rel_err": float(rel.max()),
        "mean_rel_err": float(rel.mean()),
        "weight_ok": sk.total_weight() == n,
    }


def run(spark, *, quick: bool = False, sf: float | None = None) -> pd.DataFrame:
    if spark is None:
        raise ValueError("T4 needs a SparkSession")
    sf = sf if sf is not None else (0.01 if quick else 0.1)
    df = synth_data.lineitem(spark, sf=sf, seed=0).select("l_extendedprice")
    df = df.cache()
    n = df.count()

    # Query grid: log-spaced percentiles of the price column incl. tails.
    pdf = df.toPandas()
    values = np.sort(pdf["l_extendedprice"].to_numpy())
    target_ranks = np.unique(
        np.clip(np.round(np.logspace(0, np.log10(n), 25)).astype(int), 1, n)
    )
    ys = values[target_ranks - 1]
    # ys is ascending (sorted values at increasing ranks), matching the
    # ORDER BY y of exact_ranks, so truth aligns positionally with ys.
    truth_df = exact_ranks(df, "l_extendedprice", list(ys))
    truth = np.array([r["rank"] for r in truth_df.collect()])

    rows = []
    stream = ReqSketch(K, seed=11).update(values)
    rows.append(_error_row("driver_stream", stream, truth, ys, 1, n))

    part_list = [4, 16] if quick else [4, 16, 64]
    for parts in part_list:
        d = df.repartition(parts)
        partials = partition_sketches(d, "l_extendedprice", template=ReqSketch(K), seed=21)
        rows.append(
            _error_row("map_partitions/balanced", merge_balanced(partials), truth, ys, parts, n)
        )
        partials = partition_sketches(d, "l_extendedprice", template=ReqSketch(K), seed=22)
        rows.append(
            _error_row("map_partitions/chain", merge_sequential(partials), truth, ys, parts, n)
        )
    # Executor-side merge tree over the same kernel's partials.
    tr_parts = 8 if quick else 32
    blobs = _partial_bytes(
        df.repartition(tr_parts), "l_extendedprice", template=ReqSketch(K), seed=23
    )
    root = blobs.rdd.map(lambda r: r[0]).treeReduce(_merge_bytes, depth=2)
    rows.append(_error_row("rdd_tree_reduce", serde.from_bytes(root), truth, ys, tr_parts, n))

    out = pd.DataFrame(rows)
    out.attrs["n"] = n
    df.unpersist()
    return out
