"""Logarithmic Radix Binning (LRB) schedule -- related-work extension.

Fox/Green et al. bin tiles by ``ceil(log2(atoms))`` and process bins of
like-sized tiles together so that neighbouring processors receive similar
amounts of work.  We implement the binning as a tile *permutation*
(descending bin order) composed with warp-per-tile processing: after the
permutation, a warp's strided tile assignment mixes only similar sizes,
removing the intra-round lockstep skew that plain warp-mapped scheduling
suffers.

This schedule is not part of the paper's evaluated set; it demonstrates
the abstraction's claim that *new* load-balancing algorithms drop in as
schedules without touching application code, and it appears in the
ablation benches.

The permutation is derived on first use (the per-thread view, the
planner, the compiled loads), not at construction: a launch whose plan
the vector engine already cached never bins or sorts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ...gpusim.arch import GpuSpec
from ...gpusim.collectives import reduce_cost
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec

__all__ = ["LrbSchedule", "lrb_bins"]


def lrb_bins(atoms_per_tile: np.ndarray) -> np.ndarray:
    """Logarithmic bin id of each tile: ``ceil(log2(atoms + 1))``."""
    counts = np.asarray(atoms_per_tile, dtype=np.int64)
    if counts.size and counts.min() < 0:
        raise ValueError("atom counts must be non-negative")
    # bit_length of n gives ceil(log2(n+1)) for n >= 0.
    bins = np.zeros(counts.size, dtype=np.int64)
    nz = counts > 0
    bins[nz] = np.floor(np.log2(counts[nz])).astype(np.int64) + 1
    return bins


@register_schedule("lrb")
class LrbSchedule(Schedule):
    """Warp-per-tile over a bin-sorted tile permutation.

    Pricing parity: as :class:`~.warp_block.WarpMappedSchedule` (exact
    against the compiled engine for apps without a per-tile reduction).
    """

    def __init__(self, work: WorkSpec, spec: GpuSpec, launch: LaunchParams):
        super().__init__(work, spec, launch)
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        self.abstraction_tax = spec.costs.range_overhead

    @cached_property
    def permutation(self) -> np.ndarray:
        """Tiles in descending bin order, tile order kept inside a bin
        (a stable sort)."""
        bins = lrb_bins(self.work.atoms_per_tile())
        return np.argsort(-bins, kind="stable").astype(np.int64)

    # ------------------------------------------------------------------
    # Group geometry (warp-per-tile on the permuted order)
    # ------------------------------------------------------------------
    def _num_groups(self) -> int:
        return max(1, self.launch.num_threads // self.spec.warp_size)

    def tiles(self, ctx):
        g = ctx.global_thread_id // self.spec.warp_size
        for slot in range(g, self.work.num_tiles, self._num_groups()):
            yield int(self.permutation[slot])

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        lane = ctx.global_thread_id % self.spec.warp_size
        return StepRange(lo + lane, hi, self.spec.warp_size)

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def setup_cycles(self, costs: WorkCosts) -> float:
        """Binning pass: one read + histogram update + scatter per tile,
        spread across the launch's threads."""
        c = self.spec.costs
        per_tile = 2 * (c.global_load_coalesced + c.global_store) + 2 * c.alu
        tiles_per_thread = -(-self.work.num_tiles // self.launch.num_threads)
        return tiles_per_thread * per_tile

    def cycles(self, costs: WorkCosts) -> np.ndarray:
        work, spec, launch = self.work, self.spec, self.launch
        ws = spec.warp_size
        n_groups = self._num_groups()
        counts = work.atoms_per_tile().astype(np.float64)[self.permutation]

        rounds = max(1, -(-work.num_tiles // n_groups))
        padded = np.zeros(rounds * n_groups)
        padded[: work.num_tiles] = counts
        exists = np.zeros(rounds * n_groups, dtype=bool)
        exists[: work.num_tiles] = True

        atom_cost = costs.atom_total(spec) + self.abstraction_tax
        finalize = costs.tile_cycles + spec.costs.loop_overhead + self.abstraction_tax
        if costs.tile_reduction:
            finalize += reduce_cost(spec, ws)
        per_tile = np.ceil(padded / ws) * atom_cost + exists * finalize
        group_totals = per_tile.reshape(rounds, n_groups).sum(axis=0)

        warps_per_block = launch.block_dim // ws
        n_warps = launch.grid_dim * warps_per_block
        wc = np.zeros(n_warps)
        wc[: min(n_warps, group_totals.size)] = group_totals[:n_warps]
        return wc.reshape(launch.grid_dim, warps_per_block)

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        block_dim = cls.clamp_block(spec, block_dim)
        groups_per_block = max(1, block_dim // spec.warp_size)
        resident_blocks = spec.resident_blocks_per_sm(block_dim) * spec.num_sms
        target_groups = resident_blocks * groups_per_block * 8
        wanted = min(max(1, work.num_tiles), target_groups)
        grid = max(1, -(-wanted // groups_per_block))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)
