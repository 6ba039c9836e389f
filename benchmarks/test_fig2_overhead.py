"""Figure 2: abstraction overhead -- our merge-path SpMV vs hardwired CUB.

Paper result: the two runtimes "almost perfectly match" across SuiteSparse
(geomean slowdown 2.5%, 92% of datasets at >= 90% of CUB's performance);
the only regime where CUB wins is single-column matrices, via its
specialized thread-mapped sparse-vector kernel.

This bench regenerates the scatter series (nnz vs runtime for both
kernels), reports the same summary statistics, and asserts the shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit
from repro.apps.spmv import spmv
from repro.baselines.cub_spmv import cub_spmv
from repro.engine import ExecutionContext
from repro.evaluation.figures import fig2_overhead
from repro.sparse.corpus import load_dataset


@pytest.fixture(scope="module")
def fig2(suite_rows):
    return fig2_overhead(rows=suite_rows)


def test_fig2_regenerate_series(benchmark, suite_rows, fig2, results_dir):
    """Regenerate Figure 2's scatter data and summary statistics."""
    benchmark(lambda: fig2_overhead(rows=suite_rows))

    lines = ["kernel,dataset,nnzs,elapsed_ms"]
    for kernel, series in fig2.series.items():
        for d, n, v in zip(series.datasets, series.nnzs, series.values):
            lines.append(f"{kernel},{d},{n},{v:.6f}")
    lines.append("")
    lines.append(f"geomean_slowdown,{fig2.geomean_slowdown:.4f}")
    lines.append(f"frac_within_90pct,{fig2.frac_within_90pct:.3f}")
    lines.append(f"cub_wins,{';'.join(fig2.cub_wins) or '(none >10%)'}")
    lines.append("paper_geomean_slowdown,1.025")
    lines.append("paper_frac_within_90pct,0.92")
    emit(results_dir, "fig2_overhead.csv", "\n".join(lines))


class TestFig2Shape:
    def test_runtimes_almost_match(self, benchmark, fig2):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # Geomean slowdown stays in the paper's "minimal overhead" regime.
        assert 0.95 <= fig2.geomean_slowdown <= 1.10

    def test_frac_within_90pct(self, benchmark, fig2):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert fig2.frac_within_90pct >= 0.85  # paper: 0.92

    def test_worst_case_is_single_column(self, benchmark, fig2):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        worst = max(fig2.slowdowns, key=fig2.slowdowns.get)
        assert worst.startswith("spvec")


class TestFig2KernelCost:
    """Wall-clock cost of one simulated cell, per comparator."""

    def test_ours_merge_path_cell(self, benchmark):
        ds = load_dataset("power_a19", "standard")
        x = np.random.default_rng(0).uniform(size=ds.cols)
        benchmark(lambda: spmv(ds.matrix, x, ctx=ExecutionContext(policy="merge_path")))

    def test_cub_cell(self, benchmark):
        ds = load_dataset("power_a19", "standard")
        x = np.random.default_rng(0).uniform(size=ds.cols)
        benchmark(lambda: cub_spmv(ds.matrix, x))
