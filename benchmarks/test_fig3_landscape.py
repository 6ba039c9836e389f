"""Figure 3: the SpMV performance landscape -- 3 schedules vs cuSparse.

Paper result: across SuiteSparse, the three framework schedules
(thread-mapped, group-mapped, merge-path) occupy different regimes of the
(nnz, runtime) plane: thread-mapped wins tiny/uniform matrices,
group-mapped small-but-uneven ones, merge-path everything large or
skewed; switching between them is a one-identifier change.

This bench regenerates all four scatter series and asserts the regime
structure.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.evaluation.figures import FIG3_SCHEDULES, fig3_landscape


@pytest.fixture(scope="module")
def fig3(suite_rows):
    return fig3_landscape(rows=suite_rows)


def test_fig3_regenerate_series(benchmark, suite_rows, fig3, results_dir, bench_engine):
    benchmark(lambda: fig3_landscape(rows=suite_rows))

    lines = ["kernel,dataset,nnzs,elapsed_ms"]
    for kernel, series in fig3.series.items():
        for d, n, v in zip(series.datasets, series.nnzs, series.values):
            lines.append(f"{kernel},{d},{n},{v:.6f}")
    lines.append("")
    lines.append("dataset,best_framework_schedule")
    for d, best in sorted(fig3.best_schedule.items()):
        lines.append(f"{d},{best}")
    lines.append("")
    lines.append(f"frac_some_schedule_wins,{fig3.frac_some_schedule_wins:.3f}")
    emit(results_dir, "fig3_landscape.csv", "\n".join(lines), bench_engine)


class TestFig3Shape:
    def test_all_series_regenerated(self, benchmark, fig3):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert set(fig3.series) == set(FIG3_SCHEDULES) | {"cusparse"}
        sizes = {len(s.values) for s in fig3.series.values()}
        assert len(sizes) == 1  # every kernel covers the whole corpus

    def test_no_single_schedule_dominates(self, benchmark, fig3):
        """The figure's core message, and the motivation for Figure 4's
        heuristic: different schedules win different datasets."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        winners = set(fig3.best_schedule.values())
        assert len(winners) >= 2

    def test_framework_beats_vendor_broadly(self, benchmark, fig3):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert fig3.frac_some_schedule_wins >= 0.9

    def test_merge_path_wins_skewed_regime(self, benchmark, fig3):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for d in ("outlier_few", "outlier_extreme", "power_a17"):
            assert fig3.best_schedule[d] == "merge_path"

    def test_thread_mapped_wins_a_tiny_or_uniform_dataset(self, benchmark, fig3):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        thread_wins = [
            d for d, b in fig3.best_schedule.items() if b == "thread_mapped"
        ]
        assert any(
            d.startswith(("tiny", "spvec", "diag", "uniform", "band", "blockdiag"))
            for d in thread_wins
        )
