"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload column_tail --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``. One
process drives one closed-loop client (each operation starts when the
previous one returned) against Spark ``local[4]``. Inputs come from
``--seed`` and are built outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced ops with ops whose layer entry points are wrapped in span
recorders, and prints the per-layer metrics. Every metric is
printed on its own line with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. A
result file with machine metadata (and, when traced, the spans) is
written to ``.perfbench-out/`` under the repository root.

Exit status: 0 when every output check passed, 1 when any operation
failed (raised or returned a wrong answer), 2 when the library cannot be
imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import spans
from spans import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MASTER = "local[4]"
SHUFFLE_PARTITIONS = 16
# Data set-up (generate, load and cache, exact truth) is repeated this
# many times and its median charged to setup_s.
SETUP_REPS = 3
# A driver-only set-up (data plus warm-up op) takes ~0.1 s, and the host's
# speed can change within a second; it repeats for this long so that its
# median spans more than one such moment.
DRIVER_SETUP_SECONDS = 3.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "update_ns_per_item": "ns",
    "sketch_bytes": "B",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "core.compact_calls": "count",
    "core.compact_s": "s",
    "core.update_self_s": "s",
    "core.sorts_per_query": "1",
    "core.query_s": "s",
    "core.rank_p50_us": "us",
    "core.rank_p99_us": "us",
    "core.quantile_p50_us": "us",
    "core.quantile_p99_us": "us",
    "core.merge_calls": "count",
    "core.merge_s": "s",
    "core.copy_s": "s",
    "core.retained_items": "count",
    "serde.decode_calls": "count",
    "serde.decode_s": "s",
    "serde.encode_s": "s",
    "serde.bytes_per_sketch": "B",
    "serde.bytes_per_item": "1",
    "aggregate.build_s": "s",
    "aggregate.executor_s": "s",
    "aggregate.partials": "count",
    "aggregate.bytes_shipped": "B",
    "udaf.total_s": "s",
    "udaf.executor_s": "s",
    "udaf.per_group_us": "us",
    "udaf.decode_s": "s",
    "udaf.eval_s": "s",
    "udaf.result_s": "s",
    "udaf.groups": "count",
    "udaf.bytes_shipped": "B",
    "native.wall_s": "s",
    "native.tail_rel_err": "1",
    "baseline.single_thread_s": "s",
    "tail_rel_err": "1",
    "trace.overhead_frac": "1",
    "trace.span_coverage": "1",
}
UNITS = {**END_TO_END, **PER_LAYER}


def start_spark(tmp: Path):
    """A local SparkSession whose scratch files stay under ``tmp``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(MASTER)
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        # Keep all shuffle partitions: coalescing would run the whole
        # GROUP BY of a ~1 MB shuffle in one task on one core.
        .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def metadata(args, wl) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    mem_kib = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when this tree is a plain copy.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "mem_total_kib": mem_kib,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "git_commit": commit,
        "spark_master": MASTER if wl.uses_spark else None,
        "shuffle_partitions": SHUFFLE_PARTITIONS if wl.uses_spark else None,
        "shuffle_coalescing": False if wl.uses_spark else None,
    }


class Runner:
    """Runs ops in a closed loop and counts attempts and failures.

    With a tracing context, every other op runs with the span wrappers
    installed, so traced and untraced ops see the same warm-up state.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.tracing = None
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def record(self, errs: List[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.messages.extend(errs)

    def one(self, index: int, traced: bool = False, **kw) -> Optional[dict]:
        """One timed op plus its (untimed) output check."""
        try:
            if traced:
                tracer, ctx = self.tracing
                with ctx(), tracer.root("op", index) as sid:
                    out = self.wl.op(index, **kw)
                out["wall_s"] = tracer.duration(sid)
                out["root"] = sid
            else:
                t0 = time.perf_counter()
                out = self.wl.op(index, **kw)
                out["wall_s"] = time.perf_counter() - t0
            errs = self.wl.check(out)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            self.record([f"op {index} raised {exc!r}"])
            return None
        self.record([f"op {index}: {e}" for e in errs])
        return out

    def loop(self, seconds: float, first: int) -> List[dict]:
        outs, i, t_end = [], first, time.perf_counter() + seconds
        # A driver-only op runs on one core. On a shared host one core can
        # run 1.35x slower than another for tens of seconds, depending on
        # what shares it, so successive ops are pinned to each core in turn
        # (traced and untraced ops alike) rather than left on one. Spark
        # workloads are not pinned: the JVM would inherit the pin.
        while True:
            self.pin(i // 2 if self.tracing else i)
            out = self.one(i, traced=self.tracing is not None and i % 2 == 0)
            if out is not None:
                outs.append(out)
            i += 1
            # A traced loop needs at least one op of each kind.
            if time.perf_counter() >= t_end and (self.tracing is None or i > first + 1):
                return outs

    def pin(self, i: int) -> None:
        """Pin a driver-only workload to the ``i``-th core, cyclically."""
        if not self.wl.uses_spark:
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})


def report(name: str, value: float, samples: int) -> dict:
    unit = UNITS[name]
    print(f"{name:28s} {value:.6g} {unit}  (samples: {samples})", flush=True)
    return {"value": float(value), "unit": unit, "samples": samples}


def sketch_sizes(wl, outs):
    from repro.core import serde

    sets = wl.result_sketches(outs)
    sizes = [sum(len(serde.to_bytes(sk)) for sk in s) for s in sets]
    retained = [sum(sk.num_retained() for sk in s) for s in sets]
    return median(sizes), median(retained), len(sets)


def end_to_end(wl, outs, setup_s: float) -> Dict[str, dict]:
    """Times are the best of the run (see ``workloads.Workload.wall_s``)."""
    size, _, nsets = sketch_sizes(wl, outs)
    walls = [o["wall_s"] for o in outs]
    print(f"op wall time     median {median(walls):.6g} s, slowest {max(walls):.6g} s")
    m = {
        "setup_s": report("setup_s", setup_s, 1),
        "wall_s": report("wall_s", wl.wall_s(outs), len(outs)),
        "update_ns_per_item": report("update_ns_per_item", wl.ingest_s(outs) / wl.all_values().size * 1e9, len(outs)),
    }
    m["sketch_bytes"] = report("sketch_bytes", size, nsets)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = report("peak_rss_mb", rss_kib / 1024.0, 1)
    return m


def per_layer(wl, runner, outs, lat, native, args) -> Dict[str, dict]:
    """Per-layer metrics from the traced ops plus reference runs."""
    from repro.core.req_sketch import ReqSketch

    tracer, ctx = runner.tracing
    plain = [o for o in outs if "root" not in o]
    traced = [o for o in outs if "root" in o]
    with ctx():
        _, retained, sets = sketch_sizes(wl, traced)
    values = wl.all_values()
    single = []
    for _ in range(3):
        t0 = time.perf_counter()
        ReqSketch(wl.k, seed=args.seed).update(values)
        single.append(time.perf_counter() - t0)

    layer = spans.layer_metrics(tracer, [o["root"] for o in traced])
    layer["core.retained_items"] = retained
    layer["serde.encode_s"] /= sets  # encode time of one op's result sketches
    layer["native.wall_s"] = median(d for d, _ in native)
    layer["native.tail_rel_err"] = native[0][1]
    layer["baseline.single_thread_s"] = median(single)
    layer["tail_rel_err"] = sum(o["tail_rel_err"] for o in outs) / len(outs)
    layer["trace.overhead_frac"] = layer.pop("traced_wall_s") / median(o["wall_s"] for o in plain) - 1.0
    samples = dict.fromkeys(PER_LAYER, len(traced))
    for kind in ("rank", "quantile"):
        passes = lat[f"{kind}_s"]
        for q in (50, 99):
            # The best pass: see workloads.QUERY_SECONDS.
            name = f"core.{kind}_p{q}_us"
            layer[name] = min(np.percentile(p, q) for p in passes) * 1e6 if passes else 0.0
            samples[name] = sum(len(p) for p in passes)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.json.gz")
    return {name: report(name, layer[name], samples[name]) for name in PER_LAYER}


def short(xs: List[float]) -> str:
    return " ".join(f"{x:.3g}" for x in xs[:12]) + (" ..." if len(xs) > 12 else "")


def warm_up(runner: Runner, wl) -> float:
    t0 = time.perf_counter()
    runner.one(0, **wl.warm_up)
    return time.perf_counter() - t0


def measure(wl, runner: Runner, args, tmp: Path):
    """Set up, run the ops and the query phase; return the metrics and the
    set-up parts."""
    spark = None
    try:
        t0 = time.perf_counter()
        if wl.uses_spark:
            spark = start_spark(tmp)
        session_s = time.perf_counter() - t0
        # A Spark workload warms up once, after its data set-ups: the first
        # op starts Spark's Python workers, which later ops reuse. A
        # driver-only workload has nothing to start, so each of its set-up
        # reps ends with a warm-up op, on the next core in turn.
        data_s, warm_s = [], []
        t_end = time.perf_counter() + (0.0 if wl.uses_spark else DRIVER_SETUP_SECONDS)
        while len(data_s) < SETUP_REPS or time.perf_counter() < t_end:
            runner.pin(len(data_s))
            t0 = time.perf_counter()
            wl.load(spark, args.seed)
            data_s.append(time.perf_counter() - t0)
            if not wl.uses_spark:
                warm_s.append(warm_up(runner, wl))
        if wl.uses_spark:
            warm_s.append(warm_up(runner, wl))
        setup = {"session_s": session_s, "data_s": data_s, "warm_up_s": warm_s}
        print(f"setup.session_s  {session_s:.6g} s")
        print(f"setup.data_s     {median(data_s):.6g} s  (median of {len(data_s)}: {short(data_s)})")
        print(f"setup.warm_up_s  {median(warm_s):.6g} s  (untimed op; median of {len(warm_s)}: {short(warm_s)})", flush=True)

        if args.trace:
            tracer = spans.Tracer()
            df_cls = type(wl.df) if wl.uses_spark else None
            runner.tracing = (tracer, lambda: spans.wrapping(tracer, spark, df_cls))
        # A traced run alternates untraced and traced ops, so it runs twice
        # as long to get as many of each.
        outs = runner.loop(args.seconds * (1 + args.trace), first=1)
        if not outs:
            raise RuntimeError("every operation failed: " + "; ".join(runner.messages[:3]))
        native = [wl.native() for _ in range(3)] if args.trace and wl.uses_spark else [(0.0, 0.0)]
        fetch_errs = wl.fetch_sketches()
    finally:
        os.sched_setaffinity(0, runner.cpus)
        if spark is not None:
            stop_spark(spark)

    # Query latencies are timed with the JVM gone, so its background
    # threads do not set the tail of microsecond calls.
    if fetch_errs:
        runner.record(fetch_errs)
        lat = {"rank_s": [], "quantile_s": []}
    else:
        lat, calls, errs = wl.query_phase(outs)
        runner.attempted += calls
        if errs:
            runner.failed += 1
            runner.messages.extend(errs)
    tails = [o["tail_rel_err"] for o in outs]
    print(f"tail_rel_err     {sum(tails) / len(tails):.6g}  (mean over ops)")
    if args.trace:
        return per_layer(wl, runner, outs, lat, native, args), setup
    return end_to_end(wl, outs, session_s + median(data_s) + median(warm_s)), setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the library from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"library imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Spark's Python workers import the library from the same tree; the
    # benchmark's settings, not a caller's spark-submit flags, apply.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    # Scratch files of Python, Spark and every JVM (the spark-submit
    # launcher included) stay inside the tree.
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    tempfile.tempdir = str(tmp)

    wl = workloads.WORKLOADS[args.workload](args.tiny)
    runner = Runner(wl)
    try:
        metrics, setup = measure(wl, runner, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"fail_frac        {runner.failed / runner.attempted:.6g}  ({runner.failed} of {runner.attempted})")
    for m in runner.messages[:20]:
        print(f"FAILED: {m}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    doc = {
        "meta": metadata(args, wl),
        "setup": setup,
        "samples": {k: v["samples"] for k, v in metrics.items()},
        "failures": runner.messages,
        **result,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
