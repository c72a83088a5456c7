"""T4 — full mergeability in a real distributed dataflow (Theorem 1, App. C).

Paper claim: splitting the input arbitrarily, sketching pieces
separately, and combining partial sketches through *any* sequence of
merge operations preserves the same relative-error guarantee and space
as one-pass streaming.  We build the sketch over TPC-H-lite
``lineitem.l_extendedprice`` five ways —

* driver-side single stream (reference),
* Spark ``mapInArrow`` partials + balanced merge tree (4/16/64 parts),
* partials + *sequential* (maximally unbalanced) merge chain,
* RDD ``treeAggregate`` with executor-side combiners,

and report the max/mean relative error of each against oracle-checked
exact ranks, plus retained space.  Shape to reproduce: every row's
error is in the same band; space is within a constant of streaming.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines.exact import relative_errors
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import (
    build_sketch,
    merge_balanced,
    merge_sequential,
    partition_sketches,
)
from repro.spark.queries import exact_ranks

PAPER_CLAIM = (
    "Merged-anyhow sketch == streaming sketch: same eps guarantee, same space "
    "up to constants, for any merge tree (balanced, chain, treeAggregate)."
)

K = 64


def _error_row(name, sk, truth, ys, parts):
    est = sk.ranks(ys)
    rel = relative_errors(est, truth)
    return {
        "build": name,
        "partitions": parts,
        "retained": sk.num_retained(),
        "levels": sk.num_levels,
        "max_rel_err": float(rel.max()),
        "mean_rel_err": float(rel.mean()),
        "weight_ok": sk.total_weight() == sk.n,
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
    rows.append(_error_row("driver_stream", stream, truth, ys, 1))

    part_list = [4, 16] if quick else [4, 16, 64]
    for parts in part_list:
        d = df.repartition(parts)
        partials = partition_sketches(d, "l_extendedprice", template=ReqSketch(K), seed=21)
        rows.append(
            _error_row("map_partitions/balanced", merge_balanced(partials), truth, ys, parts)
        )
        partials = partition_sketches(d, "l_extendedprice", template=ReqSketch(K), seed=22)
        rows.append(
            _error_row("map_partitions/chain", merge_sequential(partials), truth, ys, parts)
        )
    # treeAggregate is per-row Python; cap its input so the experiment
    # stays fast — this row is about merge correctness, not throughput.
    ta_parts = 8 if quick else 32
    if quick or n <= 50_000:
        sub, ta_ys, ta_truth = df, ys, truth
    else:
        sub = df.limit(50_000).cache()
        sub_n = sub.count()
        sub_vals = np.sort(sub.toPandas()["l_extendedprice"].to_numpy())
        tr = np.unique(
            np.clip(np.round(np.logspace(0, np.log10(sub_n), 25)).astype(int), 1, sub_n)
        )
        ta_ys = sub_vals[tr - 1]
        ta_truth_df = exact_ranks(sub, "l_extendedprice", list(ta_ys))
        ta_truth = np.array([r["rank"] for r in ta_truth_df.collect()])
    ta = build_sketch(
        sub.repartition(ta_parts),
        "l_extendedprice",
        k=K,
        seed=23,
        method="tree_aggregate",
        depth=2,
    )
    rows.append(_error_row("rdd_tree_aggregate", ta, ta_truth, ta_ys, ta_parts))

    out = pd.DataFrame(rows)
    out.attrs["n"] = n
    df.unpersist()
    return out
