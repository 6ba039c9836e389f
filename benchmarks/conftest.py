"""Shared fixtures for the benchmark suite.

Each ``test_figN_*`` / ``test_table1_*`` module regenerates one table or
figure of the paper.  The harness sweep over the corpus is computed once
per session and shared; every bench also writes its reproduced rows/series
under ``benchmarks/results/`` so the numbers survive pytest's output
capture (EXPERIMENTS.md records them).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine import ExecutionContext
from repro.evaluation.harness import run_suite

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Scale used by the benchmark suite.  "standard" keeps a full run under
#: a minute while spanning five orders of magnitude in nnz.
BENCH_SCALE = "standard"

ALL_KERNELS = [
    "thread_mapped",
    "group_mapped",
    "merge_path",
    "heuristic",
    "cub",
    "cusparse",
]


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session", params=["vector", "compiled"])
def bench_engine(request) -> str:
    """Engine the figure benches sweep under.  Every engine prices work
    through the same fold, so each figure's conclusions must hold under
    the analytic planner and under measured per-thread loads alike."""
    return request.param


@pytest.fixture(scope="session")
def suite_rows(bench_engine):
    """One (kernel x dataset) sweep per engine, shared by every figure bench."""
    return run_suite(
        ALL_KERNELS,
        app="spmv",
        scale=BENCH_SCALE,
        ctx=ExecutionContext(engine=bench_engine),
    )


def emit(results_dir: Path, name: str, text: str, engine: str = "vector") -> None:
    """Persist a reproduced table/series and echo it (visible with -s).

    Series swept under a non-default engine get the engine in the file
    name (``fig2_overhead.compiled.csv``)."""
    if engine != "vector":
        stem, dot, ext = name.rpartition(".")
        name = f"{stem}.{engine}{dot}{ext}"
    path = results_dir / name
    path.write_text(text, encoding="utf-8")
    print(f"\n=== {name} ===\n{text}")
