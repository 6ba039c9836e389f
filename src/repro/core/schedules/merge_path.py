"""Merge-path schedule (Section 5.2.1; Merrill & Garland's SpMV balancer).

Merge-path treats each atom *and* each tile boundary as one unit of work,
divides the combined ``num_tiles + num_atoms`` items evenly across
threads, and has each thread run a two-dimensional binary search (along
its *diagonal* of the merge matrix) to find the (tile, atom) coordinate
where its share begins.  Threads then sequentially consume their items:
crossing a tile boundary finishes that tile ("complete" tiles); a share
that ends mid-tile leaves a "partial" tile whose contribution is combined
during a fixup step (modelled here as one atomic per boundary).

The result is near-perfect balance regardless of how skewed the tile
sizes are -- at the price of the setup search and the fixup.  Decoupled
from SpMV (where CUB hardwires it), the same schedule serves any
tiles+atoms workload, which is precisely the paper's point.

The diagonal partition is derived on first use (the SIMT per-thread
view, the planner, the compiled loads), not at construction: a launch
whose plan the vector engine already cached never pays the search.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ...gpusim.arch import GpuSpec
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec

__all__ = ["MergePathSchedule", "merge_path_partition"]


def merge_path_partition(
    tile_offsets: np.ndarray, num_atoms: int, diagonals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split each diagonal into the (tiles, atoms) it has consumed.

    Merges the "row-end offsets" list ``A[i] = tile_offsets[i+1]`` with the
    natural numbers ``B[j] = j`` (atom ids).  For each diagonal ``d`` the
    returned ``(i, j)`` satisfies ``i + j == d`` with ``i`` tiles and ``j``
    atoms consumed: the split each thread's 2-D binary search finds in
    CUB/ModernGPU's MergePathSearch, which ``setup_cycles`` still prices.
    Its predicate ``A[i] + i + 1 <= d`` is monotone in ``i``, so on the host
    one clipped ``searchsorted`` finds every diagonal's split at once.
    """
    offsets = np.asarray(tile_offsets, dtype=np.int64)
    num_tiles = offsets.size - 1
    d = np.asarray(diagonals, dtype=np.int64)
    if np.any(d < 0) or np.any(d > num_tiles + num_atoms):
        raise ValueError("diagonal out of range")
    ends = np.arange(1, num_tiles + 1, dtype=np.int64)
    ends += offsets[1:]
    i = np.clip(
        np.searchsorted(ends, d, side="right"),
        np.maximum(0, d - num_atoms),
        np.minimum(d, num_tiles),
    )
    return i, d - i


@register_schedule("merge_path")
class MergePathSchedule(Schedule):
    """Evenly split ``tiles + atoms`` work items across threads.

    Pricing parity: within about 1% of the compiled engine and 4% of
    SIMT, not exact.  Where a thread's share ends mid-tile the planner
    charges the fixup atomic; the per-thread charges count a tile visit
    for the partial tail tile instead, and the SIMT SpMV body also pays
    an atomic for every partial tile it combines, head and tail.
    """

    #: Default merge items per thread (CUB uses a comparable per-thread
    #: grain; the ablation bench sweeps this).
    DEFAULT_ITEMS_PER_THREAD = 8

    def __init__(
        self,
        work: WorkSpec,
        spec: GpuSpec,
        launch: LaunchParams,
        *,
        items_per_thread: int | None = None,
    ):
        super().__init__(work, spec, launch)
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        total = work.num_tiles + work.num_atoms
        n_threads = launch.num_threads
        self.items_per_thread = (
            int(items_per_thread)
            if items_per_thread is not None
            else max(1, -(-total // n_threads))
        )
        self.abstraction_tax = spec.costs.range_overhead

    @cached_property
    def _partition(self) -> tuple[np.ndarray, np.ndarray]:
        """Every thread's diagonal split, vectorized; thread t's merge
        range is [d_t, d_{t+1})."""
        total = self.work.num_tiles + self.work.num_atoms
        diagonals = np.minimum(
            np.arange(self.launch.num_threads + 1, dtype=np.int64)
            * self.items_per_thread,
            total,
        )
        return merge_path_partition(
            self.work.tile_offsets, self.work.num_atoms, diagonals
        )

    @property
    def _tile_bounds(self) -> np.ndarray:
        """Finished-tile count at each thread's diagonal."""
        return self._partition[0]

    @property
    def _atom_bounds(self) -> np.ndarray:
        """Consumed-atom count at each thread's diagonal."""
        return self._partition[1]

    # ------------------------------------------------------------------
    # Partition accessors
    # ------------------------------------------------------------------
    def thread_partition(self, thread_id: int) -> tuple[int, int, int, int]:
        """(tile_begin, tile_end, atom_begin, atom_end) of one thread.

        ``tile_end`` counts *finished* tiles; the thread may additionally
        touch a partial tail tile (see :meth:`tiles`).
        """
        return (
            int(self._tile_bounds[thread_id]),
            int(self._tile_bounds[thread_id + 1]),
            int(self._atom_bounds[thread_id]),
            int(self._atom_bounds[thread_id + 1]),
        )

    # ------------------------------------------------------------------
    # Per-thread view
    # ------------------------------------------------------------------
    def tiles(self, ctx) -> StepRange:
        t = ctx.global_thread_id
        i0, i1, _j0, j1 = self.thread_partition(t)
        offsets = self.work.tile_offsets
        # Include the partial tail tile when the atom range extends past
        # the last finished tile's end.
        end = i1
        if i1 < self.work.num_tiles and j1 > offsets[i1]:
            end = i1 + 1
        return StepRange(i0, end)

    def atoms(self, ctx, tile: int) -> StepRange:
        t = ctx.global_thread_id
        _i0, _i1, j0, j1 = self.thread_partition(t)
        lo, hi = self.work.atom_range(tile)
        return StepRange(max(lo, j0), min(hi, j1))

    def owns_tile_fully(self, ctx, tile: int) -> bool:
        """True when this thread consumes every atom of ``tile`` (so its
        output can be stored directly rather than combined atomically)."""
        t = ctx.global_thread_id
        _i0, _i1, j0, j1 = self.thread_partition(t)
        lo, hi = self.work.atom_range(tile)
        return j0 <= lo and hi <= j1

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def setup_cycles(self, costs: WorkCosts) -> float:
        total = max(2, self.work.num_tiles + self.work.num_atoms)
        steps = float(np.ceil(np.log2(total)))
        return steps * self.spec.costs.binary_search_step

    def cycles(self, costs: WorkCosts) -> np.ndarray:
        spec = self.spec
        c = spec.costs
        tiles_per_thread = np.diff(self._tile_bounds).astype(np.float64)
        atoms_per_thread = np.diff(self._atom_bounds).astype(np.float64)

        atom_cost = costs.atom_total(spec) + self.abstraction_tax
        tile_cost = costs.tile_cycles + c.loop_overhead + self.abstraction_tax
        # Boundary fixup: a thread whose range ends mid-tile combines its
        # partial with an atomic (the "partial tiles" loop of Section 5.2.1).
        offsets = self.work.tile_offsets
        ends_mid_tile = (
            self._atom_bounds[1:]
            > offsets[np.minimum(self._tile_bounds[1:], self.work.num_tiles)]
        ).astype(np.float64)
        return (
            atoms_per_thread * atom_cost
            + tiles_per_thread * tile_cost
            + ends_mid_tile * c.atomic
        )

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 128
    ) -> LaunchParams:
        block_dim = cls.clamp_block(spec, block_dim)
        total = max(1, work.num_tiles + work.num_atoms)
        threads = max(1, -(-total // cls.DEFAULT_ITEMS_PER_THREAD))
        grid = max(1, -(-threads // block_dim))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)
