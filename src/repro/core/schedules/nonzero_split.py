"""Nonzero-splitting schedule (related work, Section 7).

Splits only the *atoms* evenly across threads, ignoring tile boundaries
(Baxter's ModernGPU approach and Dalton et al.'s row-splitting SpMV).
Compared to merge-path, a thread's share is found with a single 1-D
binary search in the tile offsets (cheaper setup), but tile boundaries
are not counted as work: a thread whose atom range spans many tiny or
empty tiles pays their per-tile overhead on top of its fixed atom share,
so balance degrades on empty-heavy inputs -- exactly the trade-off the
related work discusses.
"""

from __future__ import annotations

import numpy as np

from ...gpusim.arch import GpuSpec
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec
from .merge_path import span_writers

__all__ = ["NonzeroSplitSchedule"]


@register_schedule("nonzero_split")
class NonzeroSplitSchedule(Schedule):
    """Even atom split; tiles recovered by binary search.

    Pricing parity: within 3% of the compiled engine and of SIMT, not
    exact.  The planner charges a fixup atomic at every share boundary,
    which the compiled engine's per-thread charges lack; the SIMT SpMV
    body pays an atomic per partial tile it combines instead.
    """

    DEFAULT_ATOMS_PER_THREAD = 8

    def __init__(
        self,
        work: WorkSpec,
        spec: GpuSpec,
        launch: LaunchParams,
        *,
        atoms_per_thread: int | None = None,
    ):
        super().__init__(work, spec, launch)
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        n_threads = launch.num_threads
        self.atoms_per_thread = (
            int(atoms_per_thread)
            if atoms_per_thread is not None
            else max(1, -(-work.num_atoms // n_threads))
        )
        self.abstraction_tax = spec.costs.range_overhead
        bounds = np.minimum(
            np.arange(n_threads + 1, dtype=np.int64) * self.atoms_per_thread,
            work.num_atoms,
        )
        self._atom_bounds = bounds
        # First tile containing each boundary atom.
        self._tile_at_bound = np.maximum(
            0, np.searchsorted(work.tile_offsets, bounds, side="right") - 1
        )

    # ------------------------------------------------------------------
    # Per-thread view
    # ------------------------------------------------------------------
    def thread_partition(self, thread_id: int) -> tuple[int, int, int, int]:
        """(first_tile, last_tile_exclusive, atom_begin, atom_end)."""
        j0 = int(self._atom_bounds[thread_id])
        j1 = int(self._atom_bounds[thread_id + 1])
        if j0 >= j1:
            return 0, 0, j0, j1
        i0 = int(self._tile_at_bound[thread_id])
        # Last touched tile is the one owning atom j1-1.
        i_last = int(self.work.tile_of_atom(j1 - 1))
        return i0, i_last + 1, j0, j1

    def tiles(self, ctx) -> StepRange:
        i0, i_end, _j0, _j1 = self.thread_partition(ctx.global_thread_id)
        return StepRange(i0, i_end)

    def atoms(self, ctx, tile: int) -> StepRange:
        _i0, _i1, j0, j1 = self.thread_partition(ctx.global_thread_id)
        lo, hi = self.work.atom_range(tile)
        return StepRange(max(lo, j0), min(hi, j1))

    def owns_tile_fully(self, ctx, tile: int) -> bool:
        _i0, _i1, j0, j1 = self.thread_partition(ctx.global_thread_id)
        lo, hi = self.work.atom_range(tile)
        return j0 <= lo and hi <= j1

    # ------------------------------------------------------------------
    # Load view
    # ------------------------------------------------------------------
    def _shares(self) -> tuple[np.ndarray, ...]:
        """Every thread's ``(first, last, j0, j1)``: atoms ``[j0, j1)``
        and the tiles holding its first and last atom (meaningful only
        when ``j1 > j0``)."""
        j = self._atom_bounds
        last = self.work.tile_of_atom(np.maximum(j[1:] - 1, 0))
        return self._tile_at_bound[:-1], last, j[:-1], j[1:]

    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        first, last, j0, j1 = self._shares()
        visits = np.where(j1 > j0, last - first + 1, 0).astype(np.float64)
        return (j1 - j0).astype(np.float64), visits

    def tile_writers(self) -> np.ndarray:
        first, last, j0, j1 = self._shares()
        return span_writers(first, last, j1 > j0, self.work.num_tiles)

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def setup_cycles(self, costs: WorkCosts) -> float:
        steps = float(np.ceil(np.log2(max(2, self.work.num_tiles))))
        return steps * self.spec.costs.binary_search_step

    def cycles(self, costs: WorkCosts) -> np.ndarray:
        j = self._atom_bounds
        # The loads at the per-thread charges, plus a fixup atomic for
        # every share that ends before the last atom.
        ends_mid = np.where((j[1:] > j[:-1]) & (j[1:] < self.work.num_atoms), 1.0, 0.0)
        return self._load_cycles(costs) + ends_mid * self.spec.costs.atomic

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 128
    ) -> LaunchParams:
        block_dim = cls.clamp_block(spec, block_dim)
        threads = max(1, -(-max(1, work.num_atoms) // cls.DEFAULT_ATOMS_PER_THREAD))
        grid = max(1, -(-threads // block_dim))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)
