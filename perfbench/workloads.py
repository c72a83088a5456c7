"""The benchmark's three workloads and the checks on their outputs.

Each workload calls only the library's public entry points with their
defaults, so a later change behind them is measured without editing this
file:

* ``column_tail``  -- ``repro.spark.build_sketch`` over one lineitem column,
  then ``quantiles(PHI)``: the whole-column Spark job.
* ``group_tail``   -- ``repro.spark.group_quantiles`` over ~30-row groups:
  the high-cardinality GROUP BY, dominated by per-group fixed costs.
* ``stream_mixed`` -- driver-only ``ReqSketch`` ingest of a lognormal
  stream in batches of 500, with one ``rank`` and one ``quantile`` call
  after every batch: the core compactor and estimator.

A workload builds its inputs from the seed in ``load`` (outside the timed
region), runs one operation in ``op`` and checks the output against exact
ranks in ``check``, which returns a list of failure messages.
"""
from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

import repro.spark
from repro import synth_data
from repro.core import serde
from repro.core.req_sketch import ReqSketch

PHI = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99)
K = 32
COL = "l_extendedprice"
KEY = "l_partkey"
# A query pass times this many single rank and quantile calls (>= 20
# samples beyond p99). Passes repeat for QUERY_SECONDS (at least
# MIN_QUERY_PASSES) and a latency percentile is that of the best pass: on
# a shared machine the same call runs up to 1.5x slower for seconds at a
# time.
QUERIES = 2000
QUERY_PHIS = [PHI[j % len(PHI)] for j in range(QUERIES)]
QUERY_SECONDS = 3.0
MIN_QUERY_PASSES = 3
# Sanity limit on any answer's relative rank error. REQ at k=32 stays far
# below it; an estimator that returns garbage does not.
REL_ERR_LIMIT = 0.1


def quantile_targets(phis, n) -> np.ndarray:
    """Exact rank ceil(phi*n) a phi-quantile answer should have, in [1, n]."""
    return np.clip(np.ceil(np.asarray(phis, dtype=np.float64) * n), 1, n).astype(np.int64)


def quantile_errors(what: str, lo, hi, target, head: int) -> Tuple[List[str], np.ndarray]:
    """Check quantile answers given their exact strict (``lo``) and
    inclusive (``hi``) ranks. An answer is exact when lo < target <= hi;
    targets within the protected head must be exact."""
    lo, hi, target = (np.asarray(a, dtype=np.int64) for a in (lo, hi, target))
    exact = (lo < target) & (target <= hi)
    rel = np.where(exact, 0.0, np.abs(hi - target) / target)
    errs = []
    bad = np.flatnonzero((target <= head) & ~exact)
    if bad.size:
        errs.append(f"{what}: {bad.size} head quantiles not exact (target rank {target[bad[0]]})")
    bad = np.flatnonzero(rel > REL_ERR_LIMIT)
    if bad.size:
        errs.append(f"{what}: {bad.size} quantiles with relative rank error > {REL_ERR_LIMIT}")
    return errs, rel


def rank_errors(what: str, est, true, head: int) -> List[str]:
    est, true = np.asarray(est, dtype=np.int64), np.asarray(true, dtype=np.int64)
    errs = []
    bad = np.flatnonzero((true <= head) & (est != true))
    if bad.size:
        errs.append(f"{what}: {bad.size} head ranks not exact (rank {true[bad[0]]})")
    rel = np.abs(est - true) / np.maximum(true, 1)
    bad = np.flatnonzero(rel > REL_ERR_LIMIT)
    if bad.size:
        errs.append(f"{what}: {bad.size} ranks with relative error > {REL_ERR_LIMIT}")
    return errs


def monotone_errors(what: str, values) -> List[str]:
    if np.any(np.diff(np.asarray(values, dtype=np.float64)) < 0):
        return [f"{what}: quantiles decrease in phi"]
    return []


def weight_errors(what: str, sk: ReqSketch, n: int) -> List[str]:
    w = sk.total_weight()
    return [] if w == n else [f"{what}: total_weight {w} != n {n}"]


def log_uniform_ranks(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Ranks in [1, n] spread evenly in log scale, so tails get queried."""
    return np.minimum(n, np.floor(np.exp(rng.uniform(0, np.log(n + 1), size)))).astype(np.int64)


def query_passes(sketches, ys, true_ranks, targets, answer_ranks, head: int) -> Tuple[dict, int, List[str]]:
    """Timed passes of one closed-loop client: query j calls
    ``sketches[j].rank(ys[j])`` then ``sketches[j].quantile(QUERY_PHIS[j])``.

    ``true_ranks`` and ``targets`` are the exact rank of each ``ys[j]`` and
    the exact rank each quantile answer should have; ``answer_ranks(values,
    side)`` ranks answers in the data each query's sketch summarizes.
    """
    lat: Dict[str, list] = {"rank_s": [], "quantile_s": []}
    errs: List[str] = []
    t_end = time.perf_counter() + QUERY_SECONDS
    while len(lat["rank_s"]) < MIN_QUERY_PASSES or time.perf_counter() < t_end:
        ranks, quants, rl, ql = timed_queries(sketches, ys, QUERY_PHIS)
        lat["rank_s"].append(rl)
        lat["quantile_s"].append(ql)
        errs += rank_errors("rank", ranks, true_ranks, head)
        e, _ = quantile_errors(
            "quantile",
            answer_ranks(quants, "left"),
            answer_ranks(quants, "right"),
            targets,
            head,
        )
        errs += e
    return lat, 2 * QUERIES * len(lat["rank_s"]), errs


def timed_queries(sketches, ys, phis) -> Tuple[List[int], List[float], List[float], List[float]]:
    """Single rank then single quantile calls, one per sketch in
    ``sketches``; returns answers and per-call latencies."""
    ranks, quants, rank_lat, quant_lat = [], [], [], []
    clock = time.perf_counter
    for sk, y, phi in zip(sketches, ys, phis):
        t0 = clock()
        r = sk.rank(y)
        t1 = clock()
        q = sk.quantile(phi)
        t2 = clock()
        ranks.append(r)
        quants.append(q)
        rank_lat.append(t1 - t0)
        quant_lat.append(t2 - t1)
    return ranks, quants, rank_lat, quant_lat


class Workload:
    name = ""
    uses_spark = False
    k = K
    # Arguments of the untimed warm-up op.
    warm_up: dict = {}

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def load(self, spark, seed: int) -> None:
        raise NotImplementedError

    def op(self, index: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> List[str]:
        raise NotImplementedError

    def fetch_sketches(self) -> List[str]:
        """Fetch, while Spark still runs, what ``query_phase`` queries;
        returns failure messages."""
        return []

    def query_phase(self, outs: List[dict]) -> Tuple[dict, int, List[str]]:
        """Single rank/quantile latencies on what the ops built: returns the
        latencies of each pass, the number of calls made here, and failure
        messages."""
        raise NotImplementedError

    def result_sketches(self, outs: List[dict]) -> List[List[ReqSketch]]:
        """Per op, the sketches it produced (for ``sketch_bytes``)."""
        raise NotImplementedError

    # End-to-end times are the best of the run, not the median: on a
    # shared host the same op runs up to 1.35x slower for stretches of
    # 10-30 s, so a run's median depends on when it ran, while its fastest
    # op repeats better from run to run.

    def wall_s(self, outs: List[dict]) -> float:
        """Time of one op, the fastest of the run."""
        return min(o["wall_s"] for o in outs)

    def ingest_s(self, outs: List[dict]) -> float:
        """Time one op spends ingesting its input, in the op that spent
        least on it."""
        return min(o["ingest_s"] for o in outs)

    def all_values(self) -> np.ndarray:
        """The workload's whole input, for the single-threaded baseline."""
        raise NotImplementedError

    def native(self) -> Tuple[float, float]:
        """Spark ``percentile_approx`` on the same data: (seconds, tail error)."""
        return 0.0, 0.0


class _SparkTable(Workload):
    """Shared loading for the two lineitem workloads."""

    uses_spark = True
    columns: Tuple[str, ...] = (COL,)
    sf = 0.1
    tiny_sf = 0.005

    def load(self, spark, seed: int) -> None:
        old = getattr(self, "df", None)
        if old is not None:
            old.unpersist()
        self.seed = seed
        sf = self.tiny_sf if self.tiny else self.sf
        df = synth_data.lineitem(spark, sf=sf, seed=seed).select(*self.columns)
        self.df = df.repartition(4 if self.tiny else 16).cache()
        self.n = self.df.count()
        self.pdf = self.df.toPandas()
        self.rng = np.random.default_rng([seed, 1])
        self.load_truth()

    def load_truth(self) -> None:
        raise NotImplementedError

    def all_values(self) -> np.ndarray:
        return self.pdf[COL].to_numpy(dtype=np.float64)


class ColumnTail(_SparkTable):
    name = "column_tail"

    def load_truth(self) -> None:
        self.sorted = np.sort(self.all_values())
        self.query_ys = self.sorted[log_uniform_ranks(self.rng, self.n, QUERIES) - 1]

    def op(self, index: int) -> dict:
        t0 = time.perf_counter()
        sk = repro.spark.build_sketch(self.df, COL, k=K, seed=self.seed * 1000 + index)
        t1 = time.perf_counter()
        q = sk.quantiles(list(PHI))
        return {"sketch": sk, "quantiles": q, "ingest_s": t1 - t0}

    def check(self, out: dict) -> List[str]:
        sk, q = out["sketch"], out["quantiles"]
        lo = np.searchsorted(self.sorted, q, side="left")
        hi = np.searchsorted(self.sorted, q, side="right")
        errs, rel = quantile_errors("quantiles", lo, hi, quantile_targets(PHI, self.n), sk.protected_head)
        out["tail_rel_err"] = float(rel.max())
        return errs + monotone_errors("quantiles", q) + weight_errors("sketch", sk, self.n)

    def query_phase(self, outs):
        sketches = [o["sketch"] for o in outs]
        return query_passes(
            [sketches[j % len(sketches)] for j in range(QUERIES)],
            self.query_ys,
            np.searchsorted(self.sorted, self.query_ys, side="right"),
            quantile_targets(QUERY_PHIS, self.n),
            lambda values, side: np.searchsorted(self.sorted, values, side=side),
            min(sk.protected_head for sk in sketches),
        )

    def result_sketches(self, outs):
        return [[o["sketch"]] for o in outs]

    def native(self):
        from pyspark.sql import functions as F

        t0 = time.perf_counter()
        q = self.df.agg(F.percentile_approx(COL, list(PHI), 10000)).collect()[0][0]
        dt = time.perf_counter() - t0
        lo = np.searchsorted(self.sorted, q, side="left")
        hi = np.searchsorted(self.sorted, q, side="right")
        _, rel = quantile_errors("native", lo, hi, quantile_targets(PHI, self.n), 0)
        return dt, float(rel.max())


class GroupTail(_SparkTable):
    name = "group_tail"
    columns = (KEY, COL)
    # 75k rows over 2.5k keys: groups of ~30 rows, far below one buffer
    # (B = 256), so no compaction runs and every answer must be exact.
    sf = 0.0125
    tiny_sf = 0.002

    def load_truth(self) -> None:
        keys = self.pdf[KEY].to_numpy()
        vals = self.all_values()
        order = np.lexsort((vals, keys))
        self.keys_sorted, self.vals_sorted = keys[order], vals[order]
        self.group_keys, self.group_start, self.group_n = np.unique(
            self.keys_sorted, return_index=True, return_counts=True
        )
        g = self.rng.integers(0, self.group_keys.size, QUERIES)
        r = self.rng.integers(0, self.group_n[g])
        self.query_groups = g
        self.query_ys = self.vals_sorted[self.group_start[g] + r]

    def _group_ranks(self, groups, values, side: str) -> np.ndarray:
        out = np.empty(len(groups), dtype=np.int64)
        for j, (g, v) in enumerate(zip(groups, values)):
            s, n = self.group_start[g], self.group_n[g]
            out[j] = np.searchsorted(self.vals_sorted[s : s + n], v, side=side)
        return out

    def op(self, index: int) -> dict:
        t0 = time.perf_counter()
        rows = repro.spark.group_quantiles(self.df, [KEY], COL, list(PHI), k=K).collect()
        return {"rows": rows, "ingest_s": time.perf_counter() - t0}

    def check(self, out: dict) -> List[str]:
        rows = out["rows"]
        G, P = self.group_keys.size, len(PHI)
        if len(rows) != G * P:
            return [f"groups: {len(rows)} rows, expected {G} keys x {P} phis"]
        keys = np.array([r[KEY] for r in rows]).reshape(G, P)
        phis = np.array([r["phi"] for r in rows]).reshape(G, P)
        vals = np.array([r["value"] for r in rows], dtype=np.float64).reshape(G, P)
        if not (np.all(keys == keys[:, :1]) and np.array_equal(keys[:, 0], self.group_keys)):
            return ["groups: keys differ from the distinct input keys"]
        if not np.all(phis == np.asarray(PHI)):
            return ["groups: a key lacks exactly one row per phi"]
        errs = []
        if np.any(np.diff(vals, axis=1) < 0):
            errs.append("groups: quantiles decrease in phi")
        target = quantile_targets(np.asarray(PHI)[None, :], self.group_n[:, None])
        truth = self.vals_sorted[self.group_start[:, None] + target - 1]
        rel = np.zeros(vals.shape)
        wrong = np.argwhere(vals != truth)
        if wrong.size:
            g, p = wrong[:, 0], wrong[:, 1]
            e, rel_w = quantile_errors(
                "groups",
                self._group_ranks(g, vals[g, p], "left"),
                self._group_ranks(g, vals[g, p], "right"),
                target[g, p],
                ReqSketch(K).protected_head,
            )
            errs += e
            rel[g, p] = rel_w
        out["tail_rel_err"] = float(rel.max())
        return errs

    def fetch_sketches(self) -> List[str]:
        rows = repro.spark.group_sketches(self.df, [KEY], COL, k=K).collect()
        rows.sort(key=lambda r: r[KEY])
        self._sketches = [serde.from_bytes(r["sketch"]) for r in rows]
        keys = np.array([r[KEY] for r in rows])
        if not np.array_equal(keys, self.group_keys):
            return ["group sketches: keys differ from the distinct input keys"]
        ns = np.array([r["n"] for r in rows])
        weights = np.array([sk.total_weight() for sk in self._sketches])
        if not (np.array_equal(ns, self.group_n) and np.array_equal(weights, self.group_n)):
            return ["group sketches: total_weight or n differs from the group size"]
        return []

    def query_phase(self, outs):
        g = self.query_groups
        lat, calls, errs = query_passes(
            [self._sketches[i] for i in g],
            self.query_ys,
            self._group_ranks(g, self.query_ys, "right"),
            quantile_targets(QUERY_PHIS, self.group_n[g]),
            lambda values, side: self._group_ranks(g, values, side),
            ReqSketch(K).protected_head,
        )
        return lat, calls + 1, errs  # + the fetch of the group sketches

    def result_sketches(self, outs):
        return [self._sketches]

    def native(self):
        from pyspark.sql import functions as F

        t0 = time.perf_counter()
        rows = self.df.groupBy(KEY).agg(F.percentile_approx(COL, list(PHI), 10000).alias("q")).collect()
        dt = time.perf_counter() - t0
        rows.sort(key=lambda r: r[KEY])
        q = np.array([r["q"] for r in rows], dtype=np.float64)
        target = quantile_targets(np.asarray(PHI)[None, :], self.group_n[:, None])
        g = np.repeat(np.arange(self.group_keys.size), len(PHI))
        _, rel = quantile_errors(
            "native",
            self._group_ranks(g, q.ravel(), "left"),
            self._group_ranks(g, q.ravel(), "right"),
            target.ravel(),
            0,
        )
        return dt, float(rel.max())


def prefix_counts(x: np.ndarray, ends: np.ndarray, ys: np.ndarray, side: str) -> np.ndarray:
    """For each j, how many of x[:ends[j]] are <= ys[j] (side="right") or
    < ys[j] (side="left"): exact ranks inside a growing stream."""
    block = 1 << 15
    full = ends // block
    out = np.zeros(len(ys), dtype=np.int64)
    for b in range(int(full.max(initial=0))):
        c = np.searchsorted(np.sort(x[b * block : (b + 1) * block]), ys, side=side)
        out += np.where(full > b, c, 0)
    for j in range(len(ys)):
        tail = x[full[j] * block : ends[j]]
        out[j] += np.count_nonzero(tail <= ys[j] if side == "right" else tail < ys[j])
    return out


class StreamMixed(Workload):
    name = "stream_mixed"
    batch = 500
    # A short prefix: there are no Spark workers to start.
    warm_up = {"batches": 100}
    # Batches per timed segment of a pass: ~30 ms, ten to a pass.
    segment = 50

    def load(self, spark, seed: int) -> None:
        # A pass takes ~0.3 s, so a 10 s run has ~30 of them to pick the
        # fastest segments from.
        n = 50_000 if self.tiny else 250_000
        self.seed = seed
        self.x = synth_data.stream_array("lognormal", n, seed=seed)
        rng = np.random.default_rng([seed, 1])
        nb = n // self.batch
        self.ends = (np.arange(nb) + 1) * self.batch
        self.sorted = np.sort(self.x)
        self.ys = self.sorted[log_uniform_ranks(rng, n, nb) - 1]
        self.phis = np.array([PHI[b % len(PHI)] for b in range(nb)])
        self.true_ranks = prefix_counts(self.x, self.ends, self.ys, "right")

    def _best_segments(self, outs, key: str) -> float:
        """Sum over segments of the least time any untraced full pass took
        in that segment. The host's fast spells are often shorter than a
        whole pass, so a pass's parts are timed on their own."""
        full = [o[key] for o in outs if o["batches"] == len(self.ends) and "root" not in o]
        return float(np.min(full, axis=0).sum())

    def wall_s(self, outs):
        return self._best_segments(outs, "segment_s")

    def ingest_s(self, outs):
        """Time inside ``update`` (segment by segment, as ``wall_s``)."""
        return self._best_segments(outs, "segment_update_s")

    def all_values(self) -> np.ndarray:
        return self.x

    def op(self, index: int, batches: int = 0) -> dict:
        x, ys, phis, step = self.x, self.ys, self.phis, self.batch
        nb = batches or len(self.ends)
        ranks = np.empty(nb, dtype=np.int64)
        quants = np.empty(nb)
        rank_s = np.empty(nb)
        quant_s = np.empty(nb)
        update_s = np.empty(nb)
        done = np.empty(nb)
        clock = time.perf_counter
        sk = ReqSketch(K, seed=self.seed * 1000 + index)
        start = clock()
        for b in range(nb):
            t0 = clock()
            sk.update(x[b * step : (b + 1) * step])
            t1 = clock()
            ranks[b] = sk.rank(ys[b])
            t2 = clock()
            quants[b] = sk.quantile(phis[b])
            t3 = clock()
            update_s[b] = t1 - t0
            rank_s[b] = t2 - t1
            quant_s[b] = t3 - t2
            done[b] = t3
        cuts = np.arange(0, nb, self.segment)
        last = np.append(cuts[1:], nb) - 1
        return {
            "sketch": sk, "ranks": ranks, "quantiles": quants, "batches": nb,
            "rank_s": rank_s, "quantile_s": quant_s,
            "segment_s": np.diff(done[last], prepend=start),
            "segment_update_s": np.add.reduceat(update_s, cuts),
        }

    def check(self, out: dict) -> List[str]:
        sk, nb = out["sketch"], out["batches"]
        head = sk.protected_head
        ends = self.ends[:nb]
        errs = rank_errors("rank", out["ranks"], self.true_ranks[:nb], head)
        e, _ = quantile_errors(
            "quantile",
            prefix_counts(self.x, ends, out["quantiles"], "left"),
            prefix_counts(self.x, ends, out["quantiles"], "right"),
            quantile_targets(self.phis[:nb], ends),
            head,
        )
        errs += e
        n = int(ends[-1])
        errs += weight_errors("sketch", sk, n)
        q = sk.quantiles(list(PHI))
        s = self.sorted if n == self.x.size else np.sort(self.x[:n])
        e, rel = quantile_errors(
            "final quantiles",
            np.searchsorted(s, q, side="left"),
            np.searchsorted(s, q, side="right"),
            quantile_targets(PHI, n),
            head,
        )
        out["tail_rel_err"] = float(rel.max())
        return errs + e + monotone_errors("final quantiles", q)

    def query_phase(self, outs):
        # A latency pass is the per-batch queries of consecutive untraced
        # ops, enough of them for QUERIES calls.
        full = [o for o in outs if o["batches"] == len(self.ends) and "root" not in o]
        per = -(-QUERIES // len(self.ends))
        starts = range(0, len(full) - per + 1, per) if len(full) >= per else range(min(len(full), 1))
        return {
            kind: [np.concatenate([o[kind] for o in full[i : i + per]]) for i in starts]
            for kind in ("rank_s", "quantile_s")
        }, 0, []

    def result_sketches(self, outs):
        return [[o["sketch"]] for o in outs]


WORKLOADS: Dict[str, type] = {w.name: w for w in (ColumnTail, GroupTail, StreamMixed)}
