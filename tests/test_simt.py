"""Tests for the SIMT interpreter (repro.gpusim.simt)."""

import numpy as np
import pytest

from repro.gpusim.arch import TINY_GPU
from repro.gpusim.cost_model import price
from repro.gpusim.simt import SimtError, launch_interpreted


class TestThreadIdentity:
    def test_global_ids_cover_launch(self):
        ids = []

        def kernel(ctx):
            ids.append(
                (ctx.block_idx, ctx.thread_idx, ctx.global_thread_id, ctx.lane_id)
            )

        launch_interpreted(kernel, 3, 8, (), TINY_GPU)
        gids = sorted(g for _, _, g, _ in ids)
        assert gids == list(range(24))
        for b, t, g, lane in ids:
            assert g == b * 8 + t
            assert lane == t % TINY_GPU.warp_size

    def test_warp_ids(self):
        seen = set()

        def kernel(ctx):
            seen.add((ctx.warp_id, ctx.global_warp_id))

        launch_interpreted(kernel, 2, 8, (), TINY_GPU)
        # 8 threads / warp_size 4 = 2 warps per block, 4 warps total.
        assert {w for w, _ in seen} == {0, 1}
        assert {g for _, g in seen} == {0, 1, 2, 3}

    def test_num_threads(self):
        def kernel(ctx, out):
            out.append(ctx.num_threads)

        out = []
        launch_interpreted(kernel, 2, 4, (out,), TINY_GPU)
        assert set(out) == {8}


class TestLaunchValidation:
    def test_rejects_zero_grid(self):
        with pytest.raises(ValueError):
            launch_interpreted(lambda ctx: None, 0, 8, (), TINY_GPU)

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError, match="exceeds"):
            launch_interpreted(lambda ctx: None, 1, 1024, (), TINY_GPU)


class TestChargeAndTiming:
    def test_returns_per_thread_charges(self):
        def kernel(ctx):
            ctx.charge(float(ctx.global_thread_id % 5))

        tc = launch_interpreted(kernel, 4, 8, (), TINY_GPU)
        np.testing.assert_array_equal(tc, np.arange(32) % 5)

    def test_lockstep_warp_max(self):
        # One slow lane per warp dominates that warp's time once priced.
        def kernel(ctx):
            ctx.charge(100.0 if ctx.lane_id == 0 else 1.0)

        s = price(TINY_GPU, 1, 8, launch_interpreted(kernel, 1, 8, (), TINY_GPU))
        assert s.simt_efficiency == pytest.approx((100 + 3 * 1) * 2 / (200 * 4))

    def test_priced_elapsed_includes_launch_overhead(self):
        tc = launch_interpreted(lambda ctx: None, 1, 4, (), TINY_GPU)
        s = price(TINY_GPU, 1, 4, tc)
        assert s.makespan_cycles == TINY_GPU.costs.kernel_launch_cycles


class TestAtomics:
    def test_atomic_add_counts_all_threads(self):
        counter = np.zeros(1)

        def kernel(ctx, c):
            ctx.atomic_add(c, 0, 1.0)

        launch_interpreted(kernel, 4, 8, (counter,), TINY_GPU)
        assert counter[0] == 32

    def test_atomic_min_max(self):
        lo = np.full(1, np.inf)
        hi = np.full(1, -np.inf)

        def kernel(ctx, lo, hi):
            ctx.atomic_min(lo, 0, float(ctx.global_thread_id))
            ctx.atomic_max(hi, 0, float(ctx.global_thread_id))

        launch_interpreted(kernel, 2, 8, (lo, hi), TINY_GPU)
        assert lo[0] == 0 and hi[0] == 15

    def test_atomic_returns_old_value(self):
        arr = np.array([5.0])
        olds = []

        def kernel(ctx, a):
            olds.append(ctx.atomic_add(a, 0, 1.0))

        launch_interpreted(kernel, 1, 4, (arr,), TINY_GPU)
        assert sorted(olds) == [5.0, 6.0, 7.0, 8.0]

    def test_atomic_cas(self):
        arr = np.array([0.0])
        winners = []

        def kernel(ctx, a):
            old = ctx.atomic_cas(a, 0, 0.0, ctx.global_thread_id + 1.0)
            if old == 0.0:
                winners.append(ctx.global_thread_id)

        launch_interpreted(kernel, 1, 8, (arr,), TINY_GPU)
        assert len(winners) == 1  # exactly one thread wins the CAS

    def test_atomics_charge_cycles(self):
        def kernel(ctx, a):
            ctx.atomic_add(a, 0, 1.0)

        tc = launch_interpreted(kernel, 1, 4, (np.zeros(1),), TINY_GPU)
        assert np.all(tc == TINY_GPU.costs.atomic)


class TestBarriersAndShared:
    def test_shared_memory_visible_after_sync(self):
        out = np.zeros(8)

        def kernel(ctx, out):
            sm = ctx.shared("stage", (ctx.block_dim,), np.float64)
            sm[ctx.thread_idx] = ctx.thread_idx + 1.0
            yield ctx.sync()
            out[ctx.global_thread_id] = sm.sum()

        launch_interpreted(kernel, 1, 8, (out,), TINY_GPU)
        assert np.all(out == 36.0)

    def test_shared_memory_private_per_block(self):
        out = np.zeros(2)

        def kernel(ctx, out):
            sm = ctx.shared("acc", (1,), np.float64)
            sm[0] += 1.0
            yield ctx.sync()
            if ctx.thread_idx == 0:
                out[ctx.block_idx] = sm[0]

        launch_interpreted(kernel, 2, 4, (out,), TINY_GPU)
        assert np.all(out == 4.0)

    def test_multiple_barriers(self):
        trace = []

        def kernel(ctx):
            trace.append(("a", ctx.global_thread_id))
            yield ctx.sync()
            trace.append(("b", ctx.global_thread_id))
            yield ctx.sync()
            trace.append(("c", ctx.global_thread_id))

        launch_interpreted(kernel, 1, 4, (), TINY_GPU)
        phases = [p for p, _ in trace]
        # All "a" entries strictly before all "b", etc.
        assert phases == ["a"] * 4 + ["b"] * 4 + ["c"] * 4

    def test_divergent_barrier_detected(self):
        def kernel(ctx):
            if ctx.thread_idx == 0:
                return
            yield ctx.sync()

        with pytest.raises(SimtError, match="divergent barrier"):
            launch_interpreted(kernel, 1, 4, (), TINY_GPU)

    def test_bad_yield_token_detected(self):
        def kernel(ctx):
            yield "not-a-sync"

        with pytest.raises(SimtError, match="non-barrier"):
            launch_interpreted(kernel, 1, 4, (), TINY_GPU)

    def test_sync_charges_cycles(self):
        def kernel(ctx):
            yield ctx.sync()

        tc = launch_interpreted(kernel, 1, 4, (), TINY_GPU)
        assert np.all(tc == TINY_GPU.costs.sync)
