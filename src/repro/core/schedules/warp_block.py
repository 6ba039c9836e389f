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


def grouped_loads(
    group_size: int,
    n_groups: int,
    n_threads: int,
    counts: np.ndarray,
    group_of_tile: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-thread ``(atoms, visits)`` of a lane-strided group walk.

    Threads are grouped contiguously by global id (``gtid // g``); every
    lane of a group visits every tile of the group, and lane ``r``
    consumes atoms ``lo + r, lo + r + g, ...`` of each tile:
    ``ceil(max(0, count - r) / g)`` of them.
    """
    lanes = np.arange(group_size, dtype=np.float64)
    per_lane = np.ceil(
        np.maximum(0.0, counts.astype(np.float64)[:, None] - lanes) / group_size
    )
    atoms_gl = np.zeros((n_groups, group_size))
    np.add.at(atoms_gl, group_of_tile, per_lane)
    visits_g = np.bincount(group_of_tile, minlength=n_groups).astype(np.float64)
    atoms = atoms_gl.reshape(-1)
    visits = np.repeat(visits_g, group_size)
    # Launches whose thread count is not an exact multiple of the group
    # size leave a trailing partial group; clip/pad to the true width.
    if atoms.size < n_threads:
        atoms = np.pad(atoms, (0, n_threads - atoms.size))
        visits = np.pad(visits, (0, n_threads - visits.size))
    return atoms[:n_threads], visits[:n_threads]


def lane_writers(counts: np.ndarray, group_size: int) -> np.ndarray:
    """Lanes stride a tile's atoms, so ``min(count, group size)`` lanes
    hold at least one atom: the tile's distinct writers."""
    return np.minimum(counts.astype(np.int64), int(group_size))


def groups_to_warps(
    group_totals: np.ndarray, group_size: int, spec: GpuSpec, launch: LaunchParams
) -> np.ndarray:
    """Distribute per-group durations onto the launch's warps."""
    ws = spec.warp_size
    warps_per_block = launch.block_dim // ws
    n_warps = launch.grid_dim * warps_per_block
    if group_size >= ws:
        # A group spans g/ws warps; each of them is busy for the whole
        # group duration (they advance in lockstep rounds together).
        wc = np.repeat(group_totals, group_size // ws)
    else:
        # A warp hosts ws/g groups side by side; it runs as long as its
        # slowest resident group.
        groups_per_warp = ws // group_size
        padded = np.zeros(n_warps * groups_per_warp)
        padded[: group_totals.size] = group_totals
        wc = padded.reshape(n_warps, groups_per_warp).max(axis=1)
    if wc.size < n_warps:
        wc = np.pad(wc, (0, n_warps - wc.size))
    return wc[:n_warps].reshape(launch.grid_dim, warps_per_block)


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
    # Load view
    # ------------------------------------------------------------------
    def _tile_counts(self) -> np.ndarray:
        """Atom counts in the order the groups stride over the tiles."""
        return self.work.atoms_per_tile()

    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        n_groups = self._num_groups()
        group_of_tile = np.arange(self.work.num_tiles, dtype=np.int64) % n_groups
        return grouped_loads(self.group_size(), n_groups, self.launch.num_threads,
                             self._tile_counts(), group_of_tile)

    def tile_writers(self) -> np.ndarray:
        return lane_writers(self.work.atoms_per_tile(), self.group_size())

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def cycles(self, costs: WorkCosts) -> np.ndarray:
        work, spec = self.work, self.spec
        g = self.group_size()
        n_groups = self._num_groups()
        counts = self._tile_counts().astype(np.float64)

        rounds = max(1, -(-work.num_tiles // n_groups))
        padded = np.zeros(rounds * n_groups)
        padded[: work.num_tiles] = counts
        exists = np.zeros(rounds * n_groups, dtype=bool)
        exists[: work.num_tiles] = True

        atom_cost, finalize = self.charges(costs)
        if costs.tile_reduction:
            finalize += reduce_cost(spec, g)
        # Lockstep lane-parallel walk of each tile: ceil(atoms / g) rounds.
        per_tile = np.ceil(padded / g) * atom_cost + exists * finalize
        group_totals = per_tile.reshape(rounds, n_groups).sum(axis=0)
        return groups_to_warps(group_totals, g, spec, self.launch)

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
