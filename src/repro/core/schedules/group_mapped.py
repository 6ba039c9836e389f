"""Group-mapped schedule: the paper's novel contribution (Section 5.2.3).

Generalizes warp- and block-mapped scheduling to *arbitrary* group sizes
using CUDA's Cooperative Groups model.  Each group:

1. takes an equal contiguous share of tiles,
2. stages the atom count of each tile into scratchpad memory,
3. runs a group-wide **prefix sum** over those counts -- the last element
   is the group's total atom count, and positions map sums to tiles,
4. processes the chunk's atoms in parallel, lanes striding by the group
   width; the owning tile of each atom is recovered with a binary search
   in the prefix array (``get_tile(atom_id)``).

Because atoms -- not tiles -- are the parallel dimension, intra-group
imbalance vanishes (lanes differ by at most one atom), which is why this
schedule excels on matrices whose rows are small but uneven.  Setting the
group size to the warp or block width recovers those schedules "for free",
and porting to AMD's 64-wide wavefronts is a one-constant change.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ...gpusim.arch import GpuSpec
from ...gpusim.collectives import scan_cost
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec
from .warp_block import grouped_loads, groups_to_warps, lane_writers

__all__ = ["GroupMappedSchedule"]


@register_schedule("group_mapped")
class GroupMappedSchedule(Schedule):
    """Tile-per-group scheduling with prefix-sum atom balancing.

    Pricing parity: the planner is an upper bound, up to 1.36x the
    compiled engine and 1.23x SIMT on small instances.  It charges the
    group's cooperative staging, prefix scan and per-atom ``get_tile``
    binary search, which the per-thread charges (atoms and tile visits
    only) lack.
    """

    def __init__(
        self,
        work: WorkSpec,
        spec: GpuSpec,
        launch: LaunchParams,
        *,
        group_size: int | None = None,
    ):
        super().__init__(work, spec, launch)
        g = spec.warp_size if group_size is None else int(group_size)
        if g <= 0:
            raise ValueError(f"group_size must be positive, got {g}")
        if launch.block_dim % g:
            raise ValueError(
                f"group_size {g} must evenly divide block_dim {launch.block_dim}"
            )
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        self.group_size = g
        self.abstraction_tax = spec.costs.range_overhead

    # ------------------------------------------------------------------
    # Group geometry: contiguous chunks of tiles per group.
    # ------------------------------------------------------------------
    def num_groups(self) -> int:
        return max(1, self.launch.num_threads // self.group_size)

    def tiles_per_group(self) -> int:
        return max(1, -(-self.work.num_tiles // self.num_groups()))

    def chunk_bounds(self, group: int) -> tuple[int, int]:
        """Half-open tile range assigned to ``group``."""
        tpg = self.tiles_per_group()
        lo = min(group * tpg, self.work.num_tiles)
        hi = min(lo + tpg, self.work.num_tiles)
        return lo, hi

    def _group_of(self, ctx) -> int:
        return ctx.global_thread_id // self.group_size

    def _rank_in_group(self, ctx) -> int:
        return ctx.global_thread_id % self.group_size

    # ------------------------------------------------------------------
    # Per-thread view.
    #
    # The canonical consumption pattern is the *flat* one of Listing 5:
    # ``for atom in config.flat_atoms(ctx)`` with ``get_tile`` recovering
    # the owning tile.  A nested tiles()/atoms() view is also provided for
    # kernels written against the Listing 3 pattern.
    # ------------------------------------------------------------------
    def flat_atoms(self, ctx) -> Iterator[tuple[int, int]]:
        lo_tile, hi_tile = self.chunk_bounds(self._group_of(ctx))
        offsets = self.work.tile_offsets
        atom_lo = int(offsets[lo_tile])
        atom_hi = int(offsets[hi_tile])
        for atom in range(atom_lo + self._rank_in_group(ctx), atom_hi, self.group_size):
            yield self.get_tile(atom), atom

    def tiles(self, ctx) -> StepRange:
        lo, hi = self.chunk_bounds(self._group_of(ctx))
        return StepRange(lo, hi)

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        return StepRange(lo + self._rank_in_group(ctx), hi, self.group_size)

    # ------------------------------------------------------------------
    # Load view
    # ------------------------------------------------------------------
    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        n_groups = self.num_groups()
        group_of_tile = np.minimum(
            np.arange(self.work.num_tiles, dtype=np.int64)
            // max(1, self.tiles_per_group()),
            n_groups - 1,
        )
        return grouped_loads(self.group_size, n_groups, self.launch.num_threads,
                             self.work.atoms_per_tile(), group_of_tile)

    def tile_writers(self) -> np.ndarray:
        return lane_writers(self.work.atoms_per_tile(), self.group_size)

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def cycles(self, costs: WorkCosts) -> np.ndarray:
        work, spec, launch = self.work, self.spec, self.launch
        g = self.group_size
        n_groups = self.num_groups()
        tpg = self.tiles_per_group()
        offsets = work.tile_offsets

        chunk_lo = np.minimum(np.arange(n_groups, dtype=np.int64) * tpg, work.num_tiles)
        chunk_hi = np.minimum(chunk_lo + tpg, work.num_tiles)
        chunk_tiles = (chunk_hi - chunk_lo).astype(np.float64)
        chunk_atoms = (offsets[chunk_hi] - offsets[chunk_lo]).astype(np.float64)

        c = spec.costs
        # Setup: cooperative staging of atom counts (coalesced loads,
        # g lanes at a time) + the group-wide prefix sum.
        staging_rounds = np.ceil(chunk_tiles / g)
        setup = (
            staging_rounds * (c.global_load_coalesced + c.shared_store + c.alu)
            + scan_cost(spec, g, tpg)
        )
        # Main loop: atoms strided across lanes; each atom pays the user's
        # cost plus the get_tile binary search in the prefix array.
        search = max(1.0, np.ceil(np.log2(max(2, tpg)))) * c.binary_search_step
        atom_cost = self.charges(costs)[0] + search
        atom_rounds = np.ceil(chunk_atoms / g)
        body = atom_rounds * atom_cost
        # Per-tile finalization (output write / partial combine), spread
        # across the group's lanes.
        finalize_cost = costs.tile_cycles + (c.atomic if costs.tile_reduction else 0.0)
        finalize = np.ceil(chunk_tiles / g) * finalize_cost
        group_totals = setup + body + finalize

        return groups_to_warps(group_totals, g, spec, launch)

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        """Oversubscribe with warp-sized groups by default."""
        block_dim = cls.clamp_block(spec, block_dim)
        groups_per_block = max(1, block_dim // spec.warp_size)
        resident_blocks = spec.resident_blocks_per_sm(block_dim) * spec.num_sms
        target_groups = resident_blocks * groups_per_block * 8
        wanted = min(max(1, work.num_tiles), target_groups)
        grid = max(1, -(-wanted // groups_per_block))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)
