"""Tests for the SpMV application under every schedule and engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.spmv import spmv, spmv_reference
from repro.core.schedule import available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext
from repro.gpusim.arch import AMD_WARP64, TINY_GPU, V100
from repro.sparse import generators as gen
from repro.sparse.csr import CsrMatrix

ALL = sorted(available_schedules())


def _x(matrix, seed=3):
    return np.random.default_rng(seed).uniform(-1, 1, size=matrix.num_cols)


class TestReference:
    def test_matches_dense(self):
        m = gen.power_law(40, 40, 4.0, seed=1)
        x = _x(m)
        np.testing.assert_allclose(spmv_reference(m, x), m.to_dense() @ x)

    def test_matches_scipy(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        m = gen.rmat(6, 6, seed=2)
        x = _x(m)
        s = scipy_sparse.csr_matrix(
            (m.values, m.col_indices, m.row_offsets), shape=m.shape
        )
        np.testing.assert_allclose(spmv_reference(m, x), s @ x)

    def test_rejects_bad_x(self):
        m = gen.diagonal(5)
        with pytest.raises(ValueError, match="length 5"):
            spmv_reference(m, np.ones(4))


class TestVectorEngine:
    @pytest.mark.parametrize("schedule", ALL + ["heuristic"])
    def test_correct_under_every_schedule(self, schedule):
        m = gen.power_law(60, 60, 5.0, seed=4)
        x = _x(m)
        r = spmv(m, x, ctx=ExecutionContext(policy=schedule))
        np.testing.assert_allclose(r.output, m.to_dense() @ x, rtol=1e-9)
        assert r.elapsed_ms > 0

    def test_heuristic_reports_chosen_schedule(self):
        small = gen.uniform_random(50, 50, 2, seed=5)
        big = gen.poisson_random(5000, 5000, 10.0, seed=5)
        ctx = ExecutionContext(policy="heuristic")
        assert spmv(small, _x(small), ctx=ctx).schedule == "thread_mapped"
        assert spmv(big, _x(big), ctx=ctx).schedule == "merge_path"

    def test_schedule_instance_accepted(self):
        m = gen.poisson_random(40, 40, 3.0, seed=6)
        work = WorkSpec.from_csr(m)
        sched = make_schedule("merge_path", work, V100)
        r = spmv(m, _x(m), ctx=ExecutionContext(policy=sched))
        assert r.schedule == "merge_path"

    def test_empty_matrix(self):
        m = CsrMatrix.empty((4, 4))
        r = spmv(m, np.ones(4))
        np.testing.assert_array_equal(r.output, np.zeros(4))

    def test_unknown_engine(self):
        m = gen.diagonal(4)
        with pytest.raises(ValueError, match="engine"):
            spmv(m, np.ones(4), ctx=ExecutionContext(engine="quantum"))

    def test_unknown_schedule(self):
        m = gen.diagonal(4)
        with pytest.raises(KeyError, match="unknown schedule"):
            spmv(m, np.ones(4), ctx=ExecutionContext(policy="magic"))

    @given(
        rows=st.integers(1, 25),
        cols=st.integers(1, 25),
        mean=st.floats(0.5, 5.0),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_random_matrices(self, rows, cols, mean, seed):
        m = gen.poisson_random(rows, cols, mean, seed=seed)
        x = _x(m, seed)
        for schedule in ("thread_mapped", "merge_path", "group_mapped"):
            r = spmv(m, x, ctx=ExecutionContext(policy=schedule))
            np.testing.assert_allclose(
                r.output, m.to_dense() @ x, rtol=1e-9, atol=1e-12
            )


class TestSimtEngine:
    @pytest.mark.parametrize("schedule", ALL)
    def test_interpreted_matches_reference(self, schedule):
        m = gen.power_law(48, 48, 3.0, seed=7)
        x = _x(m)
        ctx = ExecutionContext(policy=schedule, spec=TINY_GPU, engine="simt")
        r = spmv(m, x, ctx=ctx)
        np.testing.assert_allclose(r.output, m.to_dense() @ x, rtol=1e-9)

    def test_simt_stats_have_engine_tag(self):
        m = gen.diagonal(16)
        ctx = ExecutionContext(policy="thread_mapped", spec=TINY_GPU, engine="simt")
        r = spmv(m, np.ones(16), ctx=ctx)
        assert r.stats.extras["engine"] == "simt"


class TestPerformanceShape:
    """Relative-performance claims of the paper, at the app level."""

    def test_merge_path_wins_on_skew(self):
        m = gen.dense_row_outliers(1000, 1000, 2, 3, 900, seed=8)
        x = _x(m)
        t_thread = spmv(m, x, ctx=ExecutionContext(policy="thread_mapped")).elapsed_ms
        t_merge = spmv(m, x, ctx=ExecutionContext(policy="merge_path")).elapsed_ms
        assert t_merge < t_thread

    def test_thread_mapped_fine_on_diagonal(self):
        m = gen.diagonal(2000, seed=8)
        x = _x(m)
        t_thread = spmv(m, x, ctx=ExecutionContext(policy="thread_mapped")).elapsed_ms
        t_merge = spmv(m, x, ctx=ExecutionContext(policy="merge_path")).elapsed_ms
        assert t_thread <= t_merge * 1.25

    def test_heuristic_never_much_worse_than_best(self):
        for name in ("tiny_power_256", "small_uniform_1k"):
            from repro.sparse.corpus import load_dataset

            m = load_dataset(name, "smoke").matrix
            x = _x(m)
            times = {
                s: spmv(m, x, ctx=ExecutionContext(policy=s)).elapsed_ms
                for s in ("thread_mapped", "group_mapped", "merge_path")
            }
            t_heur = spmv(m, x, ctx=ExecutionContext(policy="heuristic")).elapsed_ms
            assert t_heur <= 1.6 * min(times.values())

    def test_warp64_spec_runs(self):
        m = gen.poisson_random(100, 100, 4.0, seed=9)
        r = spmv(m, _x(m), ctx=ExecutionContext(policy="group_mapped", spec=AMD_WARP64))
        np.testing.assert_allclose(r.output, m.to_dense() @ _x(m), rtol=1e-9)
