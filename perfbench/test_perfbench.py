"""Self-test of the benchmark: ``python3 -m pytest perfbench -q -p no:cacheprovider``.

A tiny run of every workload must finish and print every metric that
BENCHMARK.json names, with its unit; a wrong answer must count as a
failed operation.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.req_sketch import ReqSketch  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.split()[2] == m["unit"] for line in lines)


def test_wrong_answer_counts_as_failed_op(monkeypatch):
    wl = workloads.StreamMixed(tiny=True)
    wl.load(None, 3)
    runner = run.Runner(wl)
    assert runner.one(1) is not None and runner.failed == 0

    real = ReqSketch.quantile
    monkeypatch.setattr(ReqSketch, "quantile", lambda self, phi: real(self, phi) * 1.5)
    runner.one(2)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert any("quantile" in m for m in runner.messages)


def test_group_check_requires_one_row_per_key_and_phi():
    wl = workloads.GroupTail(tiny=True)
    wl.group_keys = np.array([1, 2])
    row = {workloads.KEY: 1, "phi": 0.5, "value": 1.0}
    assert wl.check({"rows": [row] * (2 * len(workloads.PHI) - 1)})


def test_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "spans.py"):
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
