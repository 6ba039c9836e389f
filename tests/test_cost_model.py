"""Tests for the one pricing fold (repro.gpusim.cost_model.price)."""

import numpy as np
import pytest

from repro.core.schedule import WorkCosts
from repro.gpusim.arch import TINY_GPU, V100
from repro.gpusim.cost_model import KernelStats, price

LAUNCH = TINY_GPU.costs.kernel_launch_cycles


class TestLockstepFold:
    """Per-thread cycles fold to per-warp maxima (TINY_GPU warps are 4 wide);
    the fold is visible as the issued lane-cycles behind simt_efficiency."""

    def test_takes_lockstep_max(self):
        tc = np.array([1.0, 9.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0])
        s = price(TINY_GPU, 1, 8, tc)
        # Warp maxima 9 and 4: 13 * 4 issued lane-cycles.
        assert s.simt_efficiency == pytest.approx(31.0 / 52.0)

    def test_pads_partial_warp(self):
        s = price(TINY_GPU, 1, 4, np.array([5.0, 6.0]))
        assert s.total_thread_cycles == 11.0
        assert s.simt_efficiency == pytest.approx(11.0 / 24.0)

    def test_pads_partial_warp_per_block(self):
        # block_dim 6 is not warp-aligned: each block's 6 lanes fold into
        # two warps of their own, never sharing a warp with the next block.
        tc = np.array([1.0, 1.0, 1.0, 1.0, 7.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        s = price(TINY_GPU, 2, 6, tc)
        assert s.simt_efficiency == pytest.approx(24.0 / ((1 + 7 + 2 + 2) * 4))

    def test_empty(self):
        s = price(TINY_GPU, 1, 4, np.zeros(0))
        assert s.makespan_cycles == LAUNCH
        assert s.total_thread_cycles == 0.0
        assert s.simt_efficiency == 1.0

    def test_matches_per_warp_input(self):
        tc = np.random.default_rng(0).uniform(0, 50, size=32)
        warps = tc.reshape(2, 4, 4).max(axis=2)
        a = price(TINY_GPU, 2, 16, tc)
        b = price(TINY_GPU, 2, 16, warps, useful=float(tc.sum()))
        assert a == b


class TestPriceFromThreadCycles:
    def test_rejects_too_many_entries(self):
        with pytest.raises(ValueError, match="thread cycle entries"):
            price(TINY_GPU, 1, 8, np.ones(100))

    def test_pads_short_input(self):
        s = price(TINY_GPU, 1, 8, np.ones(3))
        assert s.total_thread_cycles == pytest.approx(3.0)

    def test_skewed_slower_than_uniform_same_total(self):
        # 32 threads, same total work, one skewed distribution.
        uniform = np.full(32, 10.0)
        skewed = np.zeros(32)
        skewed[0] = 320.0
        su = price(TINY_GPU, 4, 8, uniform)
        ss = price(TINY_GPU, 4, 8, skewed)
        assert ss.elapsed_ms > su.elapsed_ms
        assert ss.simt_efficiency < su.simt_efficiency

    def test_setup_cycles_added_per_warp(self):
        s1 = price(TINY_GPU, 1, 8, np.ones(8))
        s2 = price(TINY_GPU, 1, 8, np.ones(8), setup=50.0)
        assert s2.makespan_cycles > s1.makespan_cycles
        # Setup is issued but is not the lanes' useful work.
        assert s2.total_thread_cycles == s1.total_thread_cycles

    def test_extra_cycles_follow_the_launch(self):
        s1 = price(TINY_GPU, 1, 8, np.ones(8))
        s2 = price(TINY_GPU, 1, 8, np.ones(8), extra=6000.0)
        assert s2.makespan_cycles == s1.makespan_cycles + 6000.0


class TestBandwidthFloor:
    COSTS = WorkCosts(atom_cycles=10.0, tile_cycles=1.0, atom_bytes=20.0, tile_bytes=12.0)

    def test_floor_applies(self):
        s1 = price(TINY_GPU, 1, 8, np.ones(8))
        s2 = price(TINY_GPU, 1, 8, np.ones(8), costs=self.COSTS, atoms=1000, tiles=10)
        floor = (1000 * 20.0 + 10 * 12.0) / TINY_GPU.dram_bytes_per_cycle
        assert s2.makespan_cycles == floor + LAUNCH
        assert s2.elapsed_ms > s1.elapsed_ms

    def test_floor_zero_without_bytes(self):
        costs = WorkCosts(atom_cycles=10.0, tile_cycles=1.0)
        s1 = price(TINY_GPU, 1, 8, np.ones(8))
        s2 = price(TINY_GPU, 1, 8, np.ones(8), costs=costs, atoms=10**6, tiles=10, tax=3.0)
        assert s2 == s1

    def test_abstraction_tax_inflates_floor(self):
        raw = price(TINY_GPU, 1, 8, np.ones(8), costs=self.COSTS, atoms=1000, tiles=10)
        taxed = price(
            TINY_GPU, 1, 8, np.ones(8), costs=self.COSTS, atoms=1000, tiles=10, tax=2.0
        )
        body = raw.makespan_cycles - LAUNCH
        ratio = 1.0 + 2.0 / (10.0 + TINY_GPU.costs.loop_overhead)
        assert taxed.makespan_cycles - LAUNCH == pytest.approx(body * ratio)

    def test_floor_does_not_bind_a_slow_body(self):
        slow = np.full(8, 1e6)
        s1 = price(TINY_GPU, 1, 8, slow)
        s2 = price(TINY_GPU, 1, 8, slow, costs=self.COSTS, atoms=10, tiles=1)
        assert s2 == s1


class TestPriceFromWarpCycles:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            price(TINY_GPU, 2, 64, np.ones((3, 2)))

    def test_occupancy_and_efficiency_bounds(self):
        s = price(TINY_GPU, 4, 8, np.ones((4, 2)))
        assert 0 <= s.occupancy <= 1
        assert 0 <= s.simt_efficiency <= 1
        assert 0 <= s.utilization <= 1

    def test_v100_large_launch(self):
        wc = np.random.default_rng(0).uniform(10, 100, size=(1000, 8))
        s = price(V100, 1000, 256, wc)
        assert s.elapsed_ms > 0
        assert s.grid_dim == 1000


class TestStatsComposition:
    def _mk(self, ms: float) -> KernelStats:
        return KernelStats(
            elapsed_ms=ms,
            makespan_cycles=ms * 1000,
            grid_dim=10,
            block_dim=128,
            occupancy=0.5,
            simt_efficiency=0.8,
            utilization=0.6,
            tail_fraction=0.1,
            total_thread_cycles=100.0,
        )

    def test_add_sums_elapsed(self):
        s = self._mk(1.0) + self._mk(2.0)
        assert s.elapsed_ms == pytest.approx(3.0)
        assert s.makespan_cycles == pytest.approx(3000.0)
        assert s.total_thread_cycles == pytest.approx(200.0)

    def test_add_blends_ratios(self):
        a, b = self._mk(1.0), self._mk(1.0)
        s = a + b
        assert s.occupancy == pytest.approx(0.5)
        assert s.simt_efficiency == pytest.approx(0.8)

    def test_add_type_error(self):
        with pytest.raises(TypeError):
            _ = self._mk(1.0) + 5  # type: ignore[operator]


def _pairwise_add(a: KernelStats, b: KernelStats) -> KernelStats:
    """The pairwise ``+`` formula ``KernelStats.chain`` replaced, kept as
    the reference the fold must reproduce bit for bit."""
    total_ms = a.elapsed_ms + b.elapsed_ms
    w = a.elapsed_ms / total_ms if total_ms > 0 else 0.5
    blend = lambda x, y: w * x + (1 - w) * y  # noqa: E731
    return KernelStats(
        elapsed_ms=total_ms,
        makespan_cycles=a.makespan_cycles + b.makespan_cycles,
        grid_dim=max(a.grid_dim, b.grid_dim),
        block_dim=max(a.block_dim, b.block_dim),
        occupancy=blend(a.occupancy, b.occupancy),
        simt_efficiency=blend(a.simt_efficiency, b.simt_efficiency),
        utilization=blend(a.utilization, b.utilization),
        tail_fraction=blend(a.tail_fraction, b.tail_fraction),
        total_thread_cycles=a.total_thread_cycles + b.total_thread_cycles,
    )


FIELDS = ("elapsed_ms", "makespan_cycles", "occupancy", "simt_efficiency",
          "utilization", "tail_fraction", "total_thread_cycles")


def _bits(s: KernelStats) -> tuple:
    return (s.grid_dim, s.block_dim, *(float(getattr(s, f)).hex() for f in FIELDS))


def _random_stats(rng, n: int, zero_share: float = 0.0) -> list[KernelStats]:
    out = []
    for i in range(n):
        ms = 0.0 if rng.random() < zero_share else float(rng.exponential(0.01))
        out.append(KernelStats(
            elapsed_ms=ms,
            makespan_cycles=ms * 1.38e6,
            grid_dim=int(rng.integers(1, 5000)),
            block_dim=int(rng.choice([32, 128, 256])),
            occupancy=float(rng.random()),
            simt_efficiency=float(rng.random()),
            utilization=float(rng.random()),
            tail_fraction=float(rng.random()),
            total_thread_cycles=float(rng.integers(0, 10**7)),
            extras={"iteration": i},
        ))
    return out


class TestChain:
    """``KernelStats.chain`` is the left fold of the pairwise formula."""

    @pytest.mark.parametrize("n", [2, 3, 17, 1000])
    @pytest.mark.parametrize("zero_share", [0.0, 0.3, 1.0],
                             ids=["timed", "some_zero", "all_zero"])
    def test_equals_pairwise_fold(self, n, zero_share):
        stats = _random_stats(np.random.default_rng(n), n, zero_share)
        reference = stats[0]
        for s in stats[1:]:
            reference = _pairwise_add(reference, s)
        folded = KernelStats.chain(stats)
        assert _bits(folded) == _bits(reference)
        assert folded.extras == {}

    def test_add_is_a_two_launch_chain(self):
        a, b = _random_stats(np.random.default_rng(7), 2)
        assert _bits(a + b) == _bits(_pairwise_add(a, b))

    def test_zero_elapsed_pair_blends_evenly(self):
        a, b = _random_stats(np.random.default_rng(8), 2, zero_share=1.0)
        s = KernelStats.chain([a, b])
        assert s.occupancy == 0.5 * a.occupancy + 0.5 * b.occupancy

    def test_short_sequences(self):
        assert KernelStats.chain([]) is None
        [one] = _random_stats(np.random.default_rng(9), 1)
        assert KernelStats.chain([one]) is one  # its extras included
