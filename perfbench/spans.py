"""Span recording for the traced benchmark run.

The traced run wraps the driver-side public functions of each layer with
span recorders. A span is (name, start, end, parent, op id); spans stay in
memory and are written out once the run ends. Spark's Python workers
import the library afresh, so the wrappers never reach executor code:
executor-side time is measured as a residual (a parent span minus its
driver-side child spans).
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

QUERY = ("ReqSketch.rank", "ReqSketch.quantile", "ReqSketch.quantiles")
# Driver-side children subtracted from a Spark entry point to leave the
# time the driver spent blocked on executors (DataFrame.collect stays in).
DRIVER_SIDE = (
    "serde.from_bytes",
    "serde.to_bytes",
    "ReqSketch.merge",
    "ReqSketch.copy",
    "ReqSketch.update",
    "SparkSession.createDataFrame",
) + QUERY


class Tracer:
    """In-memory span store with a current-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[Optional[int]] = []
        self.info: Dict[int, dict] = {}
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(math.nan)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, op_id: Optional[int]) -> Iterator[int]:
        """A top-level span; every span opened inside it carries ``op_id``."""
        self._op = op_id
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)
            self._op = None

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, s, e, p, o]
                for n, s, e, p, o in zip(
                    self.names, self.starts, self.ends, self.parents, self.ops
                )
            ],
            "info": {str(k): v for k, v in self.info.items()},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, owner, attr: str, name: str, info: Optional[Callable]) -> Callable[[], None]:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if info is not None:
            tracer.info[sid] = info(args, out)
        return out

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, fn)


@contextlib.contextmanager
def wrapping(tracer: Tracer, spark=None, dataframe_cls=None) -> Iterator[None]:
    """Wrap every layer's driver-side entry points for the duration."""
    import repro.spark
    from repro.core import serde
    from repro.core.compactor import RelativeCompactor
    from repro.core.req_sketch import ReqSketch

    targets = [
        (ReqSketch, m, f"ReqSketch.{m}", None)
        for m in ("update", "merge", "copy", "rank", "quantile", "quantiles")
    ]
    targets += [
        (RelativeCompactor, "compact", "RelativeCompactor.compact", None),
        (RelativeCompactor, "sorted_values", "RelativeCompactor.sorted_values", None),
        (serde, "to_bytes", "serde.to_bytes",
         lambda a, out: {"bytes": len(out), "retained": a[0].num_retained()}),
        (serde, "from_bytes", "serde.from_bytes",
         lambda a, out: {"bytes": len(a[0]), "retained": out.num_retained()}),
        (repro.spark, "build_sketch", "build_sketch", None),
        (repro.spark, "group_quantiles", "group_quantiles", None),
    ]
    if spark is not None:
        targets.append((type(spark), "createDataFrame", "SparkSession.createDataFrame", None))
    if dataframe_cls is not None:
        targets.append((dataframe_cls, "collect", "DataFrame.collect", None))
    undo = [_wrap(tracer, *t) for t in targets]
    try:
        yield
    finally:
        for u in reversed(undo):
            u()


def median(xs: List[float]) -> float:
    xs = sorted(xs)
    if not xs:
        return 0.0
    m = len(xs) // 2
    return xs[m] if len(xs) % 2 else 0.5 * (xs[m - 1] + xs[m])


def layer_metrics(tr: Tracer, op_roots: List[int]) -> Dict[str, float]:
    """Per-layer numbers from the spans: per-op sums, median over ops.

    Ratios (sorts per query, bytes per sketch and per item) are taken over
    all spans of the run; serde spans outside the ops come from encoding
    and decoding the result sketches for ``sketch_bytes``.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for sid, parent in enumerate(tr.parents):
        if parent >= 0:
            children[parent].append(sid)

    def below(sid: int, names) -> bool:
        p = tr.parents[sid]
        while p >= 0:
            if tr.names[p] in names:
                return True
            p = tr.parents[p]
        return False

    def subtree(sid: int) -> Iterator[int]:
        todo = list(children[sid])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(children[s])

    ops: List[Dict[str, float]] = []
    sorts_in_query = queries = 0
    for root in op_roots:
        d: Dict[str, float] = defaultdict(float)
        d["root_s"] = tr.duration(root)
        d["covered_s"] = sum(tr.duration(c) for c in children[root])
        for sid in subtree(root):
            name, dur = tr.names[sid], tr.duration(sid)
            if not below(sid, (name,)):
                d[name + ".s"] += dur
                d[name + ".calls"] += 1
            if name == "RelativeCompactor.compact" and below(sid, ("ReqSketch.update",)):
                d["compact_in_update_s"] += dur
            if name == "RelativeCompactor.sorted_values" and below(sid, QUERY):
                sorts_in_query += 1
            if name in QUERY and not below(sid, QUERY):
                queries += 1
            parent = tr.names[tr.parents[sid]]
            if parent in ("build_sketch", "group_quantiles"):
                if name in DRIVER_SIDE:
                    d[parent + ".driver_s"] += dur
                if name == "serde.from_bytes":
                    d[parent + ".decode_s"] += dur
                    d[parent + ".decodes"] += 1
                    d[parent + ".bytes"] += tr.info[sid]["bytes"]
                if name == "ReqSketch.quantiles":
                    d[parent + ".eval_s"] += dur
                if name == "SparkSession.createDataFrame":
                    d[parent + ".result_s"] += dur
            if tr.parents[sid] == root and name == "DataFrame.collect":
                d["result_collect_s"] += dur
        d["update_self_s"] = d["ReqSketch.update.s"] - d["compact_in_update_s"]
        d["query_s"] = sum(d[q + ".s"] for q in QUERY)
        d["build_exec_s"] = d["build_sketch.s"] - d["build_sketch.driver_s"]
        d["group_exec_s"] = d["group_quantiles.s"] - d["group_quantiles.driver_s"]
        d["group_result_s"] = d["group_quantiles.result_s"] + d["result_collect_s"]
        if d["group_quantiles.s"]:
            d["group_total_s"] = d["root_s"]
        ops.append(d)

    def med(key: str) -> float:
        return median([d.get(key, 0.0) for d in ops])

    serde_bytes = sum(i["bytes"] for i in tr.info.values())
    serde_items = sum(i["retained"] for i in tr.info.values())
    encode_s = sum(
        tr.duration(s) for s, nm in enumerate(tr.names) if nm == "serde.to_bytes"
    )
    groups = med("group_quantiles.decodes")
    return {
        "core.compact_calls": med("RelativeCompactor.compact.calls"),
        "core.compact_s": med("RelativeCompactor.compact.s"),
        "core.update_self_s": med("update_self_s"),
        "core.sorts_per_query": sorts_in_query / queries if queries else 0.0,
        "core.query_s": med("query_s"),
        "core.merge_calls": med("ReqSketch.merge.calls"),
        "core.merge_s": med("ReqSketch.merge.s"),
        "core.copy_s": med("ReqSketch.copy.s"),
        "serde.decode_calls": med("serde.from_bytes.calls"),
        "serde.decode_s": med("serde.from_bytes.s"),
        "serde.encode_s": encode_s,
        "serde.bytes_per_sketch": serde_bytes / len(tr.info) if tr.info else 0.0,
        "serde.bytes_per_item": serde_bytes / (8 * serde_items) if serde_items else 0.0,
        "aggregate.build_s": med("build_sketch.s"),
        "aggregate.executor_s": med("build_exec_s"),
        "aggregate.partials": med("build_sketch.decodes"),
        "aggregate.bytes_shipped": med("build_sketch.bytes"),
        "udaf.total_s": med("group_total_s"),
        "udaf.executor_s": med("group_exec_s"),
        "udaf.per_group_us": med("group_exec_s") / groups * 1e6 if groups else 0.0,
        "udaf.decode_s": med("group_quantiles.decode_s"),
        "udaf.eval_s": med("group_quantiles.eval_s"),
        "udaf.result_s": med("group_result_s"),
        "udaf.groups": groups,
        "udaf.bytes_shipped": med("group_quantiles.bytes"),
        "trace.span_coverage": min(d["covered_s"] / d["root_s"] for d in ops),
        "traced_wall_s": med("root_s"),
    }
