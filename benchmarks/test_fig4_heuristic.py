"""Figure 4: heuristic-combined SpMV speedup over cuSparse.

Paper result: selecting the schedule per matrix with the simple
alpha/beta rule (Section 6.2) yields a geomean speedup of 2.7x and a
peak of 39x over cuSparse across SuiteSparse.

This bench regenerates the speedup scatter (split by chosen schedule,
the figure's three colours) and asserts geomean/peak bands.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.evaluation.figures import fig4_heuristic
from repro.gpusim.profiler import geomean


@pytest.fixture(scope="module")
def fig4(suite_rows):
    return fig4_heuristic(rows=suite_rows)


def test_fig4_regenerate_series(benchmark, suite_rows, fig4, results_dir, bench_engine):
    benchmark(lambda: fig4_heuristic(rows=suite_rows))

    lines = ["chosen_schedule,dataset,nnzs,speedup_vs_cusparse"]
    for sched, series in fig4.series.items():
        for d, n, v in zip(series.datasets, series.nnzs, series.values):
            lines.append(f"{sched},{d},{n},{v:.4f}")
    lines.append("")
    lines.append(f"geomean_speedup,{fig4.geomean_speedup:.3f}")
    lines.append(f"peak_speedup,{fig4.peak_speedup:.2f}")
    lines.append(f"peak_dataset,{fig4.peak_dataset}")
    lines.append("paper_geomean_speedup,2.7")
    lines.append("paper_peak_speedup,39")
    emit(results_dir, "fig4_heuristic.csv", "\n".join(lines), bench_engine)


class TestFig4Shape:
    def test_geomean_in_paper_band(self, benchmark, fig4):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # Paper: 2.7x.  Same decisive-win band.
        assert 1.8 <= fig4.geomean_speedup <= 5.0

    def test_peak_order_of_magnitude(self, benchmark, fig4):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # Paper: 39x peak.
        assert fig4.peak_speedup >= 15.0

    def test_heuristic_wins_everywhere_it_matters(self, benchmark, fig4):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        losses = [d for d, s in fig4.speedups.items() if s < 1.0]
        assert len(losses) <= len(fig4.speedups) // 10

    def test_all_three_schedules_get_chosen(self, benchmark, fig4):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert set(fig4.chosen.values()) == {
            "thread_mapped",
            "group_mapped",
            "merge_path",
        }

    def test_small_matrices_drive_overhead_speedups(self, benchmark, fig4):
        """The sub-beta-nnz regime's speedups come from the vendor model's
        fixed per-call overhead (the paper's tiny-matrix wins)."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        small = [s for d, s in fig4.speedups.items() if d.startswith("tiny")]
        assert geomean(small) >= 1.5

    def test_skew_drives_the_peak(self, benchmark, fig4):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert fig4.peak_dataset.startswith(("outlier", "power", "rmat"))
