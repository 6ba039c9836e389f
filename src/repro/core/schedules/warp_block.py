"""Warp- and block-mapped schedules (Section 5.2.2).

Each warp (or block) receives an equal share of tiles, processed
sequentially; the atoms *within* a tile are processed in parallel by the
group's lanes, each striding by the group width.  Imbalance across groups
is left to the hardware's oversubscription scheduler (modelled by
:mod:`repro.gpusim.sm_scheduler`).

Both classes share one implementation parameterized by group width; the
paper's group-mapped schedule (see :mod:`.group_mapped`) generalizes them
to arbitrary widths -- these fixed-width variants exist because the paper
reports them as distinct named schedules (Table 1 gets them "for free").
"""

from __future__ import annotations

import numpy as np

from ...gpusim.arch import GpuSpec
from ...gpusim.collectives import reduce_cost
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec

__all__ = ["WarpMappedSchedule", "BlockMappedSchedule"]


class _GroupPerTileSchedule(Schedule):
    """Shared machinery: tiles strided across groups, atoms lane-parallel."""

    def __init__(self, work: WorkSpec, spec: GpuSpec, launch: LaunchParams):
        super().__init__(work, spec, launch)
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        self.abstraction_tax = spec.costs.range_overhead

    # -- group geometry, defined by subclasses ------------------------------
    def group_size(self) -> int:
        raise NotImplementedError

    def _num_groups(self) -> int:
        return max(1, self.launch.num_threads // self.group_size())

    def _group_of(self, ctx) -> int:
        return ctx.global_thread_id // self.group_size()

    def _rank_in_group(self, ctx) -> int:
        return ctx.global_thread_id % self.group_size()

    # ------------------------------------------------------------------
    # Per-thread view: every lane of a group sees the group's tiles; each
    # lane consumes a lane-strided share of each tile's atoms.
    # ------------------------------------------------------------------
    def tiles(self, ctx) -> StepRange:
        return StepRange(self._group_of(ctx), self.work.num_tiles, 1).step(
            self._num_groups()
        )

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        return StepRange(lo + self._rank_in_group(ctx), hi, self.group_size())

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def cycles(self, costs: WorkCosts) -> np.ndarray:
        work, spec, launch = self.work, self.spec, self.launch
        g = self.group_size()
        n_groups = self._num_groups()
        counts = work.atoms_per_tile().astype(np.float64)

        rounds = max(1, -(-work.num_tiles // n_groups))
        padded = np.zeros(rounds * n_groups)
        padded[: work.num_tiles] = counts
        exists = np.zeros(rounds * n_groups, dtype=bool)
        exists[: work.num_tiles] = True

        atom_cost = costs.atom_total(spec) + self.abstraction_tax
        finalize = costs.tile_cycles + spec.costs.loop_overhead + self.abstraction_tax
        if costs.tile_reduction:
            finalize += reduce_cost(spec, g)
        # Lockstep lane-parallel walk of each tile: ceil(atoms / g) rounds.
        per_tile = np.ceil(padded / g) * atom_cost + exists * finalize
        group_totals = per_tile.reshape(rounds, n_groups).sum(axis=0)
        return self._groups_to_warps(group_totals)

    def _groups_to_warps(self, group_totals: np.ndarray) -> np.ndarray:
        """Distribute per-group durations onto the launch's warps."""
        spec, launch = self.spec, self.launch
        ws = spec.warp_size
        g = self.group_size()
        warps_per_block = launch.block_dim // ws
        n_warps = launch.grid_dim * warps_per_block
        if g >= ws:
            # A group spans g/ws warps; each of them is busy for the whole
            # group duration (they advance in lockstep rounds together).
            warps_per_group = g // ws
            wc = np.repeat(group_totals, warps_per_group)
        else:
            # A warp hosts ws/g groups side by side; it runs as long as its
            # slowest resident group.
            groups_per_warp = ws // g
            padded = np.zeros(n_warps * groups_per_warp)
            padded[: group_totals.size] = group_totals
            wc = padded.reshape(n_warps, groups_per_warp).max(axis=1)
        if wc.size < n_warps:
            wc = np.pad(wc, (0, n_warps - wc.size))
        return wc[:n_warps].reshape(launch.grid_dim, warps_per_block)

    @classmethod
    def _oversubscribed_launch(
        cls, work: WorkSpec, spec: GpuSpec, group_size: int, block_dim: int
    ) -> LaunchParams:
        """Enough groups to oversubscribe the device, capped by tile count."""
        block_dim = cls.clamp_block(spec, block_dim)
        group_size = min(group_size, block_dim)
        groups_per_block = max(1, block_dim // group_size)
        resident_blocks = spec.resident_blocks_per_sm(block_dim) * spec.num_sms
        target_groups = resident_blocks * groups_per_block * 8  # 8x oversubscription
        wanted_groups = min(max(1, work.num_tiles), target_groups)
        grid = max(1, -(-wanted_groups // groups_per_block))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)


@register_schedule("warp_mapped")
class WarpMappedSchedule(_GroupPerTileSchedule):
    """One warp per tile, sequential over the warp's assigned tiles.

    Pricing parity: exact against the compiled engine for apps without
    a per-tile reduction (histogram, traversals).  For reducing apps the
    planner finalizes each tile with a warp-wide reduction the compiled
    engine's per-thread charges lack (up to 1.12x on small instances),
    while the SIMT SpMV body combines lane partials with one atomic per
    lane (vector up to 3% under SIMT).
    """

    def group_size(self) -> int:
        return self.spec.warp_size

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        return cls._oversubscribed_launch(work, spec, spec.warp_size, block_dim)


@register_schedule("block_mapped")
class BlockMappedSchedule(_GroupPerTileSchedule):
    """One thread block per tile, sequential over the block's tiles.

    Pricing parity: the planner is an upper bound.  It finalizes each
    tile with a block-wide reduction (``reduce_cost``) that the
    per-thread charges of the compiled engine and SIMT lack; on small
    instances, where that reduction is most of a tile's work, vector is
    2.5-5x their time (1.04x median at standard scale).
    """

    def group_size(self) -> int:
        return self.launch.block_dim

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        return cls._oversubscribed_launch(work, spec, block_dim, block_dim)
