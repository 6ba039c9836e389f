"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.apps.spmv import spmv
from repro.apps.sssp import sssp
from repro.core.schedule import LaunchParams, available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.apps.common import spmv_costs
from repro.engine import ExecutionContext
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse.csr import CsrMatrix
from repro.sparse.graph import CsrGraph
from repro.sparse import generators as gen

ALL = sorted(available_schedules())


class TestDegenerateMatrices:
    @pytest.mark.parametrize("name", ALL)
    def test_one_by_one(self, name):
        m = CsrMatrix.from_dense(np.array([[3.0]]))
        r = spmv(m, np.array([2.0]), ctx=ExecutionContext(policy=name))
        np.testing.assert_allclose(r.output, [6.0])

    @pytest.mark.parametrize("name", ALL)
    def test_all_rows_empty(self, name):
        m = CsrMatrix.empty((16, 16))
        r = spmv(m, np.ones(16), ctx=ExecutionContext(policy=name))
        np.testing.assert_array_equal(r.output, np.zeros(16))
        assert r.elapsed_ms > 0  # the launch itself still costs

    @pytest.mark.parametrize("name", ALL)
    def test_single_dense_row(self, name):
        dense = np.zeros((8, 64))
        dense[3, :] = np.arange(64) + 1.0
        m = CsrMatrix.from_dense(dense)
        x = np.ones(64)
        r = spmv(m, x, ctx=ExecutionContext(policy=name))
        np.testing.assert_allclose(r.output, dense @ x)

    def test_zero_row_zero_col_rejected_sanely(self):
        m = CsrMatrix.empty((0, 0))
        r = spmv(m, np.zeros(0))
        assert r.output.size == 0

    def test_wide_and_tall_extremes(self):
        wide = gen.poisson_random(2, 10_000, 50.0, seed=1)
        tall = gen.poisson_random(10_000, 2, 1.0, seed=1)
        for m in (wide, tall):
            x = np.ones(m.num_cols)
            r = spmv(m, x, ctx=ExecutionContext(policy="heuristic"))
            np.testing.assert_allclose(r.output, m.to_dense() @ x, rtol=1e-9)


class TestLaunchGeometry:
    @pytest.mark.parametrize("name", ALL)
    def test_single_thread_launch(self, name):
        work = WorkSpec.from_counts([3, 1, 4, 1, 5])
        launch = LaunchParams(1, TINY_GPU.warp_size)
        sched = make_schedule(name, work, TINY_GPU, launch)
        wc = sched.cycles(spmv_costs(TINY_GPU))
        assert wc.shape in ((1, 1), (launch.num_threads,))
        assert np.isfinite(wc).all()

    @pytest.mark.parametrize("name", ALL)
    def test_giant_launch_tiny_work(self, name):
        work = WorkSpec.from_counts([1])
        launch = LaunchParams(64, 256)
        sched = make_schedule(name, work, V100, launch)
        stats = sched.plan(spmv_costs(V100))
        assert stats.elapsed_ms > 0

    def test_unaligned_block_rejected_everywhere(self):
        work = WorkSpec.from_counts([1, 2, 3])
        for name in ALL:
            with pytest.raises(ValueError):
                make_schedule(name, work, V100, LaunchParams(1, 33))


class TestNumericalEdges:
    def test_spmv_with_negative_and_zero_values(self):
        m = CsrMatrix.from_arrays(
            [0, 2, 3], [0, 1, 1], [-1.5, 0.0, 2.5], (2, 2)
        )
        x = np.array([2.0, -3.0])
        r = spmv(m, x)
        np.testing.assert_allclose(r.output, m.to_dense() @ x)

    def test_spmv_large_values_no_overflow(self):
        m = gen.uniform_random(100, 100, 4, seed=2)
        scaled = CsrMatrix.from_arrays(
            m.row_offsets, m.col_indices, m.values * 1e150, m.shape
        )
        r = spmv(scaled, np.full(100, 1e-150))
        assert np.isfinite(r.output).all()

    def test_sssp_zero_weight_edges(self):
        dense = np.array([[0.0, 0.0], [0.0, 0.0]])
        dense[0, 1] = 1e-300  # effectively zero but present
        m = CsrMatrix.from_dense(dense)
        r = sssp(CsrGraph(m), 0)
        assert r.output[1] == pytest.approx(1e-300)

    def test_float_accumulation_order_tolerance(self):
        """Different schedules sum rows in different orders; results must
        agree within float tolerance, not bit-exactly."""
        m = gen.power_law(300, 300, 20.0, 1.7, seed=3)
        x = np.random.default_rng(4).uniform(-1e6, 1e6, size=300)
        results = [
            spmv(m, x, ctx=ExecutionContext(policy=s)).output
            for s in ("merge_path", "thread_mapped")
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-9)


class TestStatsInvariants:
    @pytest.mark.parametrize("name", ALL)
    def test_elapsed_monotone_in_work(self, name):
        costs = spmv_costs(V100)
        small = make_schedule(name, WorkSpec.from_counts([4] * 100), V100).plan(costs)
        big = make_schedule(name, WorkSpec.from_counts([4] * 100_000), V100).plan(costs)
        assert big.elapsed_ms > small.elapsed_ms

    @pytest.mark.parametrize("name", ALL)
    def test_all_ratios_bounded(self, name):
        work = WorkSpec.from_counts(
            np.random.default_rng(5).integers(0, 100, size=500)
        )
        stats = make_schedule(name, work, V100).plan(spmv_costs(V100))
        assert 0.0 <= stats.occupancy <= 1.0
        assert 0.0 <= stats.simt_efficiency <= 1.0
        assert 0.0 <= stats.utilization <= 1.0
        assert 0.0 <= stats.tail_fraction <= 1.0
        assert stats.makespan_cycles >= V100.costs.kernel_launch_cycles

    def test_stats_chain_sum(self):
        m = gen.diagonal(64)
        x = np.ones(64)
        parts = [spmv(m, x).stats for _ in range(5)]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total.elapsed_ms == pytest.approx(5 * parts[0].elapsed_ms)


class TestCorruptInputsRejected:
    def test_spmv_wrong_x_dtype_coerced(self):
        m = gen.diagonal(4)
        r = spmv(m, [1, 2, 3, 4])  # list of ints: coerced, not rejected
        np.testing.assert_allclose(r.output, m.to_dense() @ np.arange(1, 5))

    def test_spmv_2d_x_rejected(self):
        m = gen.diagonal(4)
        with pytest.raises(ValueError, match="one-dimensional"):
            spmv(m, np.ones((4, 1)))

    def test_workspec_rejects_corrupt_offsets(self):
        with pytest.raises(ValueError):
            WorkSpec.from_offsets(np.array([], dtype=np.int64))

    def test_schedule_options_rejected_for_wrong_schedule(self):
        work = WorkSpec.from_counts([1, 2])
        with pytest.raises(TypeError):
            make_schedule("thread_mapped", work, V100, group_size=16)
