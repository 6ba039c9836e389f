"""Tests for the dynamic (persistent-kernel, queue-based) schedule."""

import numpy as np
import pytest

from repro.apps.common import spmv_costs
from repro.core.schedule import LaunchParams, make_schedule
from repro.core.schedules.dynamic_queue import DynamicQueueSchedule
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext
from repro.gpusim.arch import TINY_GPU, V100

from conftest import FakeCtx


def _work(counts):
    return WorkSpec.from_counts(counts)


class TestQueueSemantics:
    def test_chunks_cover_tiles(self):
        sched = DynamicQueueSchedule(
            _work([1] * 10), TINY_GPU, LaunchParams(1, 8), chunk_size=3
        )
        assert sched.num_chunks() == 4
        spans = [sched.chunk_tiles(c) for c in range(4)]
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_pops_are_exactly_once(self):
        launch = LaunchParams(2, 8)
        sched = DynamicQueueSchedule(
            _work([2, 5, 0, 3, 1, 1, 4, 2]), TINY_GPU, launch, chunk_size=2
        )
        seen = []
        for t in range(launch.num_threads):
            ctx = FakeCtx(t, launch.num_threads)
            seen.extend(sched.tiles(ctx))
        assert sorted(seen) == list(range(8))

    def test_reset_queue_rearms(self):
        launch = LaunchParams(1, 4)
        sched = DynamicQueueSchedule(_work([1, 1]), TINY_GPU, launch)
        list(sched.tiles(FakeCtx(0, 4)))
        assert list(sched.tiles(FakeCtx(1, 4))) == []  # drained
        sched.reset_queue()
        assert list(sched.tiles(FakeCtx(1, 4))) == [0, 1]

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError, match="chunk_size"):
            DynamicQueueSchedule(
                _work([1]), TINY_GPU, LaunchParams(1, 4), chunk_size=0
            )

    def test_persistent_launch_capped_at_residency(self):
        work = _work([1] * 10_000_000)
        launch = DynamicQueueSchedule.default_launch(work, V100)
        resident = V100.resident_blocks_per_sm(launch.block_dim) * V100.num_sms
        assert launch.grid_dim <= resident


class TestDynamicBalancing:
    def test_immune_to_adversarial_striding(self):
        """An input whose giant tiles land, round after round, on the
        *same thread* under round-robin striding: static thread-mapped
        serializes every giant on one worker; the dynamic queue spreads
        them as workers free up."""
        costs = spmv_costs(V100)
        launch = LaunchParams(grid_dim=4, block_dim=256)  # T = 1024 threads
        n_threads = launch.num_threads
        rounds = 8
        counts = np.ones(n_threads * rounds, dtype=np.int64)
        counts[::n_threads] = 20_000  # thread 0 draws a giant every round
        work = _work(counts)
        t_static = (
            make_schedule("thread_mapped", work, V100, launch).plan(costs).elapsed_ms
        )
        t_dynamic = (
            DynamicQueueSchedule(work, V100, launch, chunk_size=1)
            .plan(costs)
            .elapsed_ms
        )
        assert t_dynamic < 0.5 * t_static

    def test_smaller_chunks_balance_better_on_skew(self):
        costs = spmv_costs(V100)
        counts = np.concatenate([np.full(64, 5000), np.full(10_000, 2)])
        work = _work(counts)
        launch = LaunchParams(grid_dim=64, block_dim=64)
        t_small = DynamicQueueSchedule(work, V100, launch, chunk_size=1).plan(costs)
        t_huge = DynamicQueueSchedule(work, V100, launch, chunk_size=2048).plan(costs)
        assert t_small.elapsed_ms <= t_huge.elapsed_ms

    def test_pop_atomic_charged(self):
        """On a uniform workload with one tile per worker, the queue
        schedule's per-thread time exceeds static thread-mapped's
        (one-round) warp time by exactly the pop overhead."""
        costs = spmv_costs(V100)
        launch = LaunchParams(4, 64)
        work = _work([3] * launch.num_threads)
        dynamic = DynamicQueueSchedule(work, V100, launch, chunk_size=1)
        static = make_schedule("thread_mapped", work, V100, launch)
        d = dynamic.cycles(costs)
        s = static.cycles(costs)
        np.testing.assert_allclose(
            d, np.repeat(s.reshape(-1), V100.warp_size) + V100.costs.atomic
        )


class TestSimtExecution:
    def test_spmv_correct_via_interpreter(self):
        from repro.apps.spmv import spmv
        from repro.sparse import generators as gen

        m = gen.power_law(40, 40, 3.0, seed=1)
        x = np.random.default_rng(2).uniform(size=40)
        ctx = ExecutionContext(policy="dynamic_queue", spec=TINY_GPU, engine="simt")
        r = spmv(m, x, ctx=ctx)
        np.testing.assert_allclose(r.output, m.to_dense() @ x, rtol=1e-9)
