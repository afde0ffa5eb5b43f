"""Smoke test of the benchmark itself, on its tiny `quick` workload.

    python3 -m pytest -q bench/test_smoke.py

Checks that both modes run, that every metric BENCHMARK.json names is emitted
with its unit, and that the output check ran on every stage and can fail. It
asserts no timing bound: timings on a small shared machine swing too far.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402


def run_bench(cwd: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quick", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def runs():
    """One run per mode; the end-to-end run goes last, so its outputs stay."""
    return {trace: run_bench(ROOT, trace) for trace in (1, 0)}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_and_checked(spec, runs, trace, key):
    proc = runs[trace]
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(W.STAGES)

    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    env = json.loads(env_line)
    assert env["env"]["thread_pins"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
    for field in ("python", "numpy", "scipy", "blas", "nproc", "cpu"):
        assert env["env"][field]
    with open(os.path.join(ROOT, env["detail_file"]), encoding="utf-8") as f:
        detail = json.load(f)["detail"]
    assert detail["checks_run"] == result["attempted"]
    if trace:
        assert detail["counts_equal"]


def test_check_rejects_wrong_results(runs):
    assert runs[0].returncode == 0, runs[0].stderr
    with open(os.path.join(ROOT, ".bench_work", "quick", "config.json"),
              encoding="utf-8") as f:
        cfg = json.load(f)
    with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as f:
        ref = json.load(f)["quick"][str(W.data_seed(3))]
    assert W.check_stage("eval", cfg, ref) is None
    assert W.check_stage("audit", cfg, ref) is None
    assert W.check_stage("eval", cfg, dict(ref, micro_auc=ref["micro_auc"] + 1e-5))
    assert W.check_stage("eval", cfg, dict(ref, eda=(ref["eda"] or 0) + 0.5))
    assert W.check_stage("audit", cfg, dict(ref, flags_sha256="0" * 64))


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
