"""Thread-mapped schedule: one tile per thread (Listing 2).

The most straightforward schedule, common in the literature: thread ``i``
processes tile ``i``, striding by the grid size, and walks the tile's
atoms sequentially.  It is very cheap to schedule (no setup at all) and
performs well when tiles are uniformly small -- e.g. SpVV, diagonal
matrices -- but collapses under skewed tile sizes, because the lockstep
lanes of a warp all wait for the lane with the longest tile.
"""

from __future__ import annotations

import numpy as np

from ...gpusim.arch import GpuSpec
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec

__all__ = ["ThreadMappedSchedule"]


@register_schedule("thread_mapped")
class ThreadMappedSchedule(Schedule):
    """Tile-per-thread scheduling with grid-stride round-robin.

    Pricing parity: exact against the compiled engine -- the planner
    charges each lane the same atoms and tile visits the engine
    measures (with more than one round per thread, its per-round
    lockstep max makes it an upper bound; the default launch has one
    round).  The SIMT SpMV body combines every non-empty row with an
    atomic, which the planner does not charge, so vector runs up to 4%
    under SIMT on small instances.
    """

    def __init__(self, work: WorkSpec, spec: GpuSpec, launch: LaunchParams):
        super().__init__(work, spec, launch)
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        #: Per-iteration bookkeeping charged for consuming work through the
        #: framework's range objects; hardwired baselines set this to zero.
        self.abstraction_tax = spec.costs.range_overhead

    # ------------------------------------------------------------------
    # Per-thread view (Listing 2)
    # ------------------------------------------------------------------
    def tiles(self, ctx) -> StepRange:
        return StepRange(ctx.global_thread_id, self.work.num_tiles, 1).step(
            ctx.num_threads
        )

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        return StepRange(lo, hi).step(1)

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def cycles(self, costs: WorkCosts) -> np.ndarray:
        work, spec, launch = self.work, self.spec, self.launch
        n_threads = launch.num_threads
        counts = work.atoms_per_tile().astype(np.float64)

        rounds = max(1, -(-work.num_tiles // n_threads))
        padded = np.zeros(rounds * n_threads)
        padded[: work.num_tiles] = counts
        exists = np.zeros(rounds * n_threads, dtype=bool)
        exists[: work.num_tiles] = True

        atom_cost = costs.atom_total(spec) + self.abstraction_tax
        tile_cost = costs.tile_cycles + spec.costs.loop_overhead + self.abstraction_tax
        # Per (round, thread): tile overhead if a tile exists in this round,
        # plus its atoms walked sequentially by this one lane.
        per_thread = padded * atom_cost + exists * tile_cost
        per_thread = per_thread.reshape(rounds, n_threads)

        ws = spec.warp_size
        warps_per_block = launch.block_dim // ws
        n_warps = launch.grid_dim * warps_per_block
        # Lockstep: within each round, a warp advances at the pace of its
        # slowest lane -- the mechanism that makes this schedule fragile
        # under skew.
        per_round_warp = per_thread.reshape(rounds, n_warps, ws).max(axis=2)
        warp_totals = per_round_warp.sum(axis=0)
        return warp_totals.reshape(launch.grid_dim, warps_per_block)

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        """Listing 3's sizing: ``grid = ceil(rows / block)``, one pass."""
        block_dim = cls.clamp_block(spec, block_dim)
        grid = max(1, -(-max(1, work.num_tiles) // block_dim))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)
