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
planner, the loads), not at construction: a launch whose plan
the vector engine already cached never bins or sorts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ...gpusim.arch import GpuSpec
from ..schedule import LaunchParams, WorkCosts, register_schedule
from ..work import WorkSpec
from .warp_block import _GroupPerTileSchedule

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
class LrbSchedule(_GroupPerTileSchedule):
    """Warp-per-tile over a bin-sorted tile permutation.

    Pricing parity: as :class:`~.warp_block.WarpMappedSchedule` (exact
    against the compiled engine for apps without a per-tile reduction).
    """

    @cached_property
    def permutation(self) -> np.ndarray:
        """Tiles in descending bin order, tile order kept inside a bin
        (a stable sort)."""
        bins = lrb_bins(self.work.atoms_per_tile())
        return np.argsort(-bins, kind="stable").astype(np.int64)

    def group_size(self) -> int:
        return self.spec.warp_size

    # Warp-per-tile, striding over the permuted order.
    def tiles(self, ctx):
        for slot in range(self._group_of(ctx), self.work.num_tiles, self._num_groups()):
            yield int(self.permutation[slot])

    def _tile_counts(self) -> np.ndarray:
        return self.work.atoms_per_tile()[self.permutation]

    def setup_cycles(self, costs: WorkCosts) -> float:
        """Binning pass: one read + histogram update + scatter per tile,
        spread across the launch's threads."""
        c = self.spec.costs
        per_tile = 2 * (c.global_load_coalesced + c.global_store) + 2 * c.alu
        tiles_per_thread = -(-self.work.num_tiles // self.launch.num_threads)
        return tiles_per_thread * per_tile

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        return cls._oversubscribed_launch(work, spec, spec.warp_size, block_dim)
