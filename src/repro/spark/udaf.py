"""Grouped sketching — the "UDAF" usage shape (applyInPandas).

``group_sketches`` returns one serialized REQ sketch per group key —
i.e. ``SELECT key, REQ_SKETCH(x) ... GROUP BY key`` — and
``group_quantiles`` evaluates quantile fractions on those sketches,
returning an exploded (key, phi, value) frame.

Why not a real Catalyst UDAF: PySpark's pandas GROUPED_AGG UDFs cannot
carry partial aggregation state across partitions (no merge hook), and
a JVM ``TypedImperativeAggregate`` needs Scala compilation that the
offline container cannot do (see DESIGN.md).  ``applyInPandas`` gives
the same semantics: Spark shuffles each group to one task, the task
builds the group's sketch with a deterministic per-group seed.
"""
from __future__ import annotations

import zlib
from typing import List, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import merge_sequential


def _group_seed(seed: int, key_values: tuple) -> np.random.Generator:
    """Per-group RNG from the CRC-32 of each key's UTF-8 text.

    ``hash(str)`` would be salted per process (``PYTHONHASHSEED``); CRC-32
    gives the same seed in every process.
    """
    ent = [seed] + [zlib.crc32(str(v).encode("utf-8")) for v in key_values]
    return np.random.default_rng(np.random.SeedSequence(ent))


def group_sketches(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    *,
    k: int = 32,
    seed: int = 0,
) -> DataFrame:
    """One REQ sketch per group: columns ``group_cols + [sketch, n]``."""
    key_fields = [df.schema[c] for c in group_cols]
    out_schema = T.StructType(
        list(key_fields)
        + [
            T.StructField("sketch", T.BinaryType(), False),
            T.StructField("n", T.LongType(), False),
        ]
    )

    def build(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        vals = pdf[value_col].to_numpy(dtype=np.float64, na_value=np.nan)
        vals = vals[~np.isnan(vals)]
        sk = ReqSketch(k)
        sk.rng = _group_seed(seed, key)
        sk.update(vals)
        row = {c: [v] for c, v in zip(group_cols, key)}
        row["sketch"] = [serde.to_bytes(sk)]
        row["n"] = [sk.n]
        return pd.DataFrame(row)

    return df.groupBy(*group_cols).applyInPandas(build, schema=out_schema)


def group_quantiles(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    phis: Sequence[float],
    *,
    k: int = 32,
    seed: int = 0,
) -> DataFrame:
    """Per-group quantile estimates: ``group_cols + [phi, value]``.

    Evaluation happens on the driver (sketches are tiny); the result is
    returned as a Spark DataFrame so callers can join/compare it with
    SQL ground truth.
    """
    sketch_df = group_sketches(df, group_cols, value_col, k=k, seed=seed)
    rows = sketch_df.collect()
    spark = df.sparkSession
    out = []
    for r in rows:
        sk = serde.from_bytes(r["sketch"])
        vals = sk.quantiles(list(phis))
        for phi, v in zip(phis, vals):
            out.append(
                tuple(r[c] for c in group_cols) + (float(phi), float(v))
            )
    schema = T.StructType(
        [df.schema[c] for c in group_cols]
        + [
            T.StructField("phi", T.DoubleType(), False),
            T.StructField("value", T.DoubleType(), False),
        ]
    )
    return spark.createDataFrame(out, schema=schema).orderBy(*group_cols, "phi")


def merge_group_sketches(sketch_df: DataFrame) -> ReqSketch:
    """Merge every group's sketch into one — mergeability across GROUP BY.

    Demonstrates that per-group summaries can be rolled up to the global
    summary without touching the raw data (paper's mergeability pitch).
    """
    rows = sketch_df.select("sketch").collect()
    if not rows:
        raise ValueError("no group sketches to merge")
    return merge_sequential([serde.from_bytes(r["sketch"]) for r in rows])
