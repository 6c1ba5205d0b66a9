"""Smoke test of the benchmark itself: tiny graphs, few samples.

    python -m pytest perfbench -q

Every workload runs untraced and traced in ``--smoke`` mode, so every
metric name and unit in BENCHMARK.json, the oracle path and the served
session are exercised in a minute or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import topk_ok, vector_ok

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {d["name"]: d["unit"] for d in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "# provenance " in proc.stdout


def test_checks_reject_wrong_answers():
    ref = np.array([0.0, 5.0, 5.0, 2.0, 9.0])
    assert vector_ok(ref.copy(), ref)
    assert not vector_ok(ref + np.array([0, 0, 0, 1e-6, 0]), ref)
    # either order of a tie passes; a wrong vertex or score does not
    assert topk_ok([[4, 9.0], [1, 5.0], [2, 5.0]], ref, 3)
    assert topk_ok([[4, 9.0], [2, 5.0], [1, 5.0]], ref, 3)
    assert not topk_ok([[4, 9.0], [1, 5.0], [3, 5.0]], ref, 3)
    assert not topk_ok([[4, 9.0], [1, 5.0]], ref, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "road", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
