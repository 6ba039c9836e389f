"""Tests for the figure regeneration pipelines (Figures 2-4)."""

import pytest

from repro.evaluation.figures import (
    FIG3_SCHEDULES,
    fig2_overhead,
    fig3_landscape,
    fig4_heuristic,
)
from repro.evaluation.harness import run_suite
from repro.sparse.corpus import corpus_names


@pytest.fixture(scope="module")
def all_rows():
    """One harness sweep shared by every figure test (smoke scale)."""
    kernels = ["merge_path", "thread_mapped", "group_mapped", "heuristic",
               "cub", "cusparse"]
    return run_suite(kernels, app="spmv", scale="smoke")


class TestFig2:
    def test_full_corpus_covered(self, all_rows):
        r = fig2_overhead(rows=all_rows)
        assert set(r.slowdowns) == set(corpus_names())

    def test_overhead_is_minimal(self, all_rows):
        # Paper: geomean slowdown 2.5%.  The model must stay in the same
        # "minimal overhead" regime: under 10%.
        r = fig2_overhead(rows=all_rows)
        assert 0.95 <= r.geomean_slowdown <= 1.10

    def test_most_datasets_within_90pct(self, all_rows):
        # Paper: 92% of datasets at >= 90% of CUB's performance.
        r = fig2_overhead(rows=all_rows)
        assert r.frac_within_90pct >= 0.85

    def test_worst_slowdowns_are_single_column(self, all_rows):
        # Paper: CUB's wins come from its sparse-vector special case.
        r = fig2_overhead(rows=all_rows)
        worst = max(r.slowdowns, key=r.slowdowns.get)
        assert worst.startswith("spvec")

    def test_series_shapes(self, all_rows):
        r = fig2_overhead(rows=all_rows)
        assert set(r.series) == {"merge-path", "cub"}
        n = len(corpus_names())
        assert len(r.series["cub"].nnzs) == n
        assert all(v > 0 for v in r.series["cub"].values)


class TestFig3:
    def test_every_series_present(self, all_rows):
        r = fig3_landscape(rows=all_rows)
        assert set(r.series) == set(FIG3_SCHEDULES) | {"cusparse"}

    def test_some_framework_schedule_wins_almost_everywhere(self, all_rows):
        r = fig3_landscape(rows=all_rows)
        assert r.frac_some_schedule_wins >= 0.9

    def test_different_schedules_win_different_regimes(self, all_rows):
        # The figure's core message: no single schedule dominates.
        r = fig3_landscape(rows=all_rows)
        assert len(set(r.best_schedule.values())) >= 2

    def test_merge_path_best_on_outliers(self, all_rows):
        r = fig3_landscape(rows=all_rows)
        assert r.best_schedule["outlier_few"] == "merge_path"
        assert r.best_schedule["outlier_extreme"] == "merge_path"


class TestFig4:
    def test_geomean_speedup_in_paper_band(self, all_rows):
        # Paper: 2.7x geomean.  Accept the same "clear win" band.
        r = fig4_heuristic(rows=all_rows)
        assert 1.5 <= r.geomean_speedup <= 6.0

    def test_peak_speedup_large(self, all_rows):
        # Paper: peak 39x.  The peak must be an order of magnitude.
        r = fig4_heuristic(rows=all_rows)
        assert r.peak_speedup >= 10.0

    def test_peak_comes_from_skewed_family(self, all_rows):
        r = fig4_heuristic(rows=all_rows)
        assert r.peak_dataset.startswith(("outlier", "power", "rmat"))

    def test_series_split_by_chosen_schedule(self, all_rows):
        r = fig4_heuristic(rows=all_rows)
        assert set(r.series) <= {"thread_mapped", "group_mapped", "merge_path"}
        total_points = sum(len(s.values) for s in r.series.values())
        assert total_points == len(r.speedups)

    def test_chosen_consistent_with_heuristic(self, all_rows):
        from repro.core.heuristic import select_schedule
        from repro.sparse.corpus import load_dataset

        r = fig4_heuristic(rows=all_rows)
        for name, chosen in r.chosen.items():
            m = load_dataset(name, "smoke").matrix
            assert chosen == select_schedule(m)
