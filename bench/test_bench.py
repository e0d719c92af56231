"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Each run goes through ``run.py`` exactly as a measured run does, with
``--smoke`` inputs and a one-second budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name in wanted:
        assert isinstance(result["metrics"][name]["value"], (int, float)), name


def test_result_check_flags_drift():
    sys.path.insert(0, str(BENCH))
    import worker

    reference = worker.load_references("optimize-n3", smoke=False)["job"]
    tol = worker.TOLERANCE["optimize-n3"]
    assert worker.mismatches(dict(reference), reference, tol) == []
    # The n=3 rate the optimizer reaches when the rounding of the
    # eigensolver changes; it must count as a failure, not a speed-up.
    assert worker.mismatches(dict(reference, rate=0.5710), reference, tol)
    assert worker.mismatches({}, reference, tol)
    assert worker.mismatches(reference, None, tol)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
