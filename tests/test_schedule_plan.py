"""Planner-view tests: the vectorized timing model of each schedule."""

import numpy as np
import pytest

from repro.apps.common import spmv_costs
from repro.core.schedule import LaunchParams, available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.gpusim.arch import AMD_WARP64, TINY_GPU, V100

ALL = sorted(available_schedules())


def _work(counts):
    return WorkSpec.from_counts(counts)


class TestPlanShape:
    @pytest.mark.parametrize("name", ALL)
    def test_cycles_shape_and_sign(self, name):
        work = _work([3, 9, 0, 2, 14, 1, 1, 5])
        sched = make_schedule(name, work, V100)
        wc = sched.cycles(spmv_costs(V100))
        # Per-thread (one entry per launched thread) or per-warp.
        assert wc.shape in (
            (sched.launch.num_threads,),
            (sched.launch.grid_dim, sched.launch.block_dim // V100.warp_size),
        )
        assert np.all(wc >= 0)

    @pytest.mark.parametrize("name", ALL)
    def test_plan_returns_stats(self, name):
        work = _work([5] * 100)
        stats = make_schedule(name, work, V100).plan(spmv_costs(V100))
        assert stats.elapsed_ms > 0
        assert stats.extras["schedule"] == name
        assert 0 <= stats.simt_efficiency <= 1

    @pytest.mark.parametrize("name", ALL)
    def test_plan_on_amd_warp64(self, name):
        work = _work([7] * 64)
        stats = make_schedule(name, work, AMD_WARP64).plan(spmv_costs(AMD_WARP64))
        assert stats.elapsed_ms > 0


class TestScheduleBehaviour:
    def test_thread_mapped_suffers_under_skew(self):
        costs = spmv_costs(V100)
        uniform = _work([8] * 512)
        skewed = _work([1] * 511 + [8 * 512 - 511])
        t_uni = make_schedule("thread_mapped", uniform, V100).plan(costs).elapsed_ms
        t_skew = make_schedule("thread_mapped", skewed, V100).plan(costs).elapsed_ms
        assert t_skew > 2 * t_uni

    def test_merge_path_immune_to_skew(self):
        costs = spmv_costs(V100)
        uniform = _work([8] * 512)
        skewed = _work([1] * 511 + [8 * 512 - 511])
        t_uni = make_schedule("merge_path", uniform, V100).plan(costs).elapsed_ms
        t_skew = make_schedule("merge_path", skewed, V100).plan(costs).elapsed_ms
        assert t_skew <= 1.5 * t_uni

    def test_merge_path_beats_thread_mapped_on_skew(self):
        costs = spmv_costs(V100)
        skewed = _work(
            list(np.random.default_rng(0).zipf(1.8, 2000).clip(0, 2000))
        )
        t_thread = make_schedule("thread_mapped", skewed, V100).plan(costs).elapsed_ms
        t_merge = make_schedule("merge_path", skewed, V100).plan(costs).elapsed_ms
        assert t_merge < t_thread

    def test_group_mapped_beats_thread_mapped_on_small_uneven(self):
        costs = spmv_costs(V100)
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 30, size=400)
        t_thread = (
            make_schedule("thread_mapped", _work(counts), V100).plan(costs).elapsed_ms
        )
        t_group = (
            make_schedule("group_mapped", _work(counts), V100).plan(costs).elapsed_ms
        )
        assert t_group < t_thread

    def test_lrb_improves_on_warp_mapped_for_bimodal(self):
        costs = spmv_costs(V100)
        # Alternating tiny/huge rows: strided warp assignment mixes them
        # (bad); LRB's sort groups like sizes together (good).
        counts = [2, 400] * 256
        t_warp = make_schedule("warp_mapped", _work(counts), V100).plan(costs)
        t_lrb = make_schedule("lrb", _work(counts), V100).plan(costs)
        assert t_lrb.elapsed_ms <= t_warp.elapsed_ms

    def test_warp_block_are_group_mapped_specializations(self):
        # With group_size == warp size, group-mapped matches warp-mapped's
        # geometry (same number of groups).
        work = _work([5] * 1024)
        warp = make_schedule("warp_mapped", work, V100)
        group = make_schedule("group_mapped", work, V100, group_size=V100.warp_size)
        assert group.group_size == warp.group_size()


class TestGroupSize:
    def test_group_size_must_divide_block(self):
        work = _work([1] * 64)
        with pytest.raises(ValueError, match="divide"):
            make_schedule(
                "group_mapped", work, V100, LaunchParams(1, 256), group_size=48
            )

    def test_amd_one_constant_port(self):
        # Section 5.2.3: targeting warp-64 hardware is a group-size change.
        work = _work([9] * 256)
        sched = make_schedule(
            "group_mapped", work, AMD_WARP64, group_size=AMD_WARP64.warp_size
        )
        assert sched.group_size == 64
        stats = sched.plan(spmv_costs(AMD_WARP64))
        assert stats.elapsed_ms > 0

    @pytest.mark.parametrize("g", [8, 16, 32, 64, 128, 256])
    def test_group_size_sweep_all_valid(self, g):
        work = _work([6] * 512)
        sched = make_schedule(
            "group_mapped", work, V100, LaunchParams(16, 256), group_size=g
        )
        stats = sched.plan(spmv_costs(V100))
        assert stats.elapsed_ms > 0


class TestBandwidthFloor:
    def test_schedule_pays_the_taxed_floor(self):
        # Large balanced work: the DRAM floor, inflated by the schedule's
        # abstraction tax, binds the body.
        work = _work([32] * 20000)
        sched = make_schedule("merge_path", work, V100)
        costs = spmv_costs(V100)
        raw = (
            work.num_atoms * costs.atom_bytes + work.num_tiles * costs.tile_bytes
        ) / V100.dram_bytes_per_cycle
        taxed = raw * (
            1.0
            + sched.abstraction_tax
            / (costs.atom_cycles + V100.costs.loop_overhead)
        )
        stats = sched.plan(costs)
        assert stats.makespan_cycles == pytest.approx(
            taxed + V100.costs.kernel_launch_cycles
        )


class TestSimtAgreement:
    """The per-thread (charged) path and the planner must agree for the
    schedule whose cost structure is exactly reproducible by charging:
    thread-mapped (pure per-lane sequential work, one tile per thread)."""

    def test_thread_mapped_interpreted_matches_planner(self):
        from repro.engine import tile_charges
        from repro.gpusim.simt import launch_interpreted

        work = _work([3, 9, 0, 2, 14, 1, 1, 5, 4, 4, 0, 7])
        launch = LaunchParams(2, 8)
        sched = make_schedule("thread_mapped", work, TINY_GPU, launch)
        costs = spmv_costs(TINY_GPU)
        atom_c, tile_c = tile_charges(sched, costs)

        def kernel(ctx):
            for tile in sched.tiles(ctx):
                n = len(list(sched.atoms(ctx, tile)))
                ctx.charge(tile_c + n * atom_c)

        tc = launch_interpreted(kernel, 2, 8, (), TINY_GPU)
        measured = sched.price(costs, tc, useful=sched.total_useful_cycles(costs))
        assert measured == sched.plan(costs)
