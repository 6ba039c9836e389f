"""Self-tests of the benchmark.

    python -m pytest perfbench/tests -q

Tiny grids only (a few smoke datasets), so the whole file runs in about
a minute.  Digests for the tiny grids live in ``perfbench/digests.json``
next to the full ones.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import lib  # noqa: E402
import run  # noqa: E402
import serial  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: A per-layer metric each workload must measure (not report as 0).
OWN_LAYER = {
    "spmv-standard": ("spmv.corpus_s", "spmv.compute_s", "sweep_s.spmv",
                      "bulk_job_p50_s", "short_jobs", "pool.warm_sweep_s",
                      "wire.bytes_per_row"),
    "graph-smoke": ("bfs.resolve_calls", "triangle_count.oracle_s",
                    "sweep_s.triangle_count"),
}


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=str(cwd),
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = invoke("--workload", workload, "--seed", "0", "--seconds", "2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in kind}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        for name in OWN_LAYER[workload]:
            assert values[name] > 0, name
    else:
        assert all(v > 0 for v in values.values()), values


def test_digest_check_rejects_a_perturbed_elapsed():
    spec = serial.jobs_for("spmv-standard", 0, "tiny")[0]
    _, result = lib.run_child({"mode": "sweep", **spec})
    check = serial.Checker("tiny")
    assert check.sweep("spmv", result) and check.correct

    keys = [list(k) for k in result["keys"]]
    elapsed = float.fromhex(keys[0][-1])
    keys[0][-1] = math.nextafter(elapsed, math.inf).hex()
    perturbed = dict(result, digest=lib.digest(keys))
    assert not check.sweep("spmv", perturbed)
    assert not check.correct


def test_fail_rate_counts_an_injected_row_error():
    # The warm-up jobs dispatch 8 units; the 10th dispatch fails inside
    # the measured window.  Only the server process sees the fault.
    sys.path.insert(0, str(lib.SRC))
    out = run.run_workload(
        "spmv-standard", 0, 2.0, True, "tiny",
        server_env={"REPRO_FAULTS": "serve.dispatch:err@10"})
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert out["failed"] >= 1
    assert metrics["fail_rate"] == out["failed"] / out["attempted"] > 0
    assert out["correct"], out["problems"]
    assert metrics["shm.leaked_segments"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "spmv-standard", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
