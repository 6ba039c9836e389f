"""Dynamic (queue-based, persistent-kernel) load balancing.

The paper's abstraction "aims to support both static and dynamic
schedules" (Section 1) and provides ``infinite_range`` precisely for
persistent-kernel mode (Section 5.1); the related work (Cederman &
Tsigas, Tzeng et al., Atos) is all queue-based dynamic scheduling.  This
module supplies that missing member of the family:

* a **persistent** launch: exactly as many threads as the device can
  keep resident (no oversubscription -- the workers never retire);
* a global **work queue**: an atomic tile counter; every worker pops a
  chunk of tiles, processes it, and loops (an ``infinite_range`` broken
  when the queue drains);
* load balance emerges *dynamically*: fast workers simply pop more
  chunks, so stragglers are bounded by one chunk's worth of work --
  at the price of one global atomic per pop.

The planner models the queue with greedy list scheduling (pops go to the
earliest-free worker, which is exactly what an atomic counter produces),
so chunk size trades contention against tail imbalance -- the classic
dynamic-scheduling knob, swept in the ablation benches.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from ...gpusim.arch import GpuSpec
from ..ranges import StepRange
from ..schedule import LaunchParams, Schedule, WorkCosts, register_schedule
from ..work import WorkSpec

__all__ = ["DynamicQueueSchedule"]


@register_schedule("dynamic_queue")
class DynamicQueueSchedule(Schedule):
    """Persistent threads popping tile chunks from a global atomic queue.

    Pricing parity: far from exact, by construction.  The planner
    prices the balanced queue (earliest-free worker pops the next
    chunk); the SIMT interpreter runs threads one after another, a valid
    linearization in which thread 0 pops every chunk, and :meth:`loads`
    reproduces that linearization for the compiled engine.  Whenever the
    queue has more than one chunk of work, vector times are 0.1-0.7x of
    SIMT's and 0.001-1.0x of the compiled engine's (the larger the
    launch, the smaller the ratio).
    """

    DEFAULT_CHUNK = 4

    def __init__(
        self,
        work: WorkSpec,
        spec: GpuSpec,
        launch: LaunchParams,
        *,
        chunk_size: int | None = None,
    ):
        super().__init__(work, spec, launch)
        if launch.block_dim % spec.warp_size:
            raise ValueError(
                f"block_dim {launch.block_dim} must be a multiple of the warp "
                f"size {spec.warp_size}"
            )
        self.chunk_size = int(chunk_size) if chunk_size is not None else self.DEFAULT_CHUNK
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        self.abstraction_tax = spec.costs.range_overhead
        #: The global queue head.  The SIMT interpreter executes threads
        #: sequentially, which is a valid linearization of the atomic pops;
        #: reset before every interpreted traversal.
        self._queue_head = 0

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def num_chunks(self) -> int:
        return -(-self.work.num_tiles // self.chunk_size)

    def reset_queue(self) -> None:
        """Re-arm the queue for a fresh interpreted pass."""
        self._queue_head = 0

    def _pop_chunk(self) -> int | None:
        """Atomic ``fetch_add`` on the queue head (linearized)."""
        if self._queue_head >= self.num_chunks():
            return None
        chunk = self._queue_head
        self._queue_head += 1
        return chunk

    def chunk_tiles(self, chunk: int) -> tuple[int, int]:
        lo = min(chunk * self.chunk_size, self.work.num_tiles)
        return lo, min(lo + self.chunk_size, self.work.num_tiles)

    # ------------------------------------------------------------------
    # Per-thread view: a persistent loop over queue pops.  Unlike the
    # static schedules, the tiles a thread sees depend on pop order; the
    # exactly-once coverage invariant holds for *any* linearization.
    # ------------------------------------------------------------------
    def tiles(self, ctx) -> Iterator[int]:
        while True:  # the persistent kernel's infinite_range
            chunk = self._pop_chunk()
            if chunk is None:
                return
            lo, hi = self.chunk_tiles(chunk)
            yield from range(lo, hi)

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        return StepRange(lo, hi)

    def flat_atoms(self, ctx):
        for tile in self.tiles(ctx):
            for atom in self.atoms(ctx, tile):
                yield tile, atom

    # ------------------------------------------------------------------
    # Load view, under the interpreter's sequential linearization: thread
    # 0 runs to completion first, so it pops every chunk.
    # ------------------------------------------------------------------
    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        atoms = np.zeros(self.launch.num_threads)
        visits = np.zeros(self.launch.num_threads)
        atoms[0] = float(self.work.num_atoms)
        visits[0] = float(self.work.num_tiles)
        return atoms, visits

    def tile_writers(self) -> np.ndarray:
        # Chunks are disjoint full-tile ranges popped atomically: whichever
        # thread pops a chunk is its tiles' single writer (empty tiles are
        # skipped by the kernels' ``if n`` guards, as in thread-mapped).
        return (self.work.atoms_per_tile() > 0).astype(np.int64)

    # ------------------------------------------------------------------
    # Planner view: greedy list scheduling == an atomic-counter queue.
    # ------------------------------------------------------------------
    def cycles(self, costs: WorkCosts) -> np.ndarray:
        work, spec, launch = self.work, self.spec, self.launch
        counts = work.atoms_per_tile().astype(np.float64)
        atom_cost, tile_cost = self.charges(costs)
        per_tile = counts * atom_cost + tile_cost

        n_chunks = self.num_chunks()
        chunk_ids = np.minimum(
            np.arange(n_chunks + 1, dtype=np.int64) * self.chunk_size,
            work.num_tiles,
        )
        tile_prefix = np.zeros(work.num_tiles + 1)
        np.cumsum(per_tile, out=tile_prefix[1:])
        chunk_cost = np.diff(tile_prefix[chunk_ids])
        pop_cost = spec.costs.atomic  # the fetch_add per pop

        n_workers = launch.num_threads
        if n_chunks <= n_workers:
            per_worker = np.zeros(n_workers)
            per_worker[:n_chunks] = chunk_cost + pop_cost
            return per_worker
        return _list_schedule_loads(chunk_cost + pop_cost, n_workers)

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        """Persistent sizing: exactly the device's resident capacity."""
        block_dim = cls.clamp_block(spec, block_dim)
        resident_blocks = spec.resident_blocks_per_sm(block_dim) * spec.num_sms
        needed_threads = max(1, work.num_tiles)
        grid = min(resident_blocks, max(1, -(-needed_threads // block_dim)))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)


def _list_schedule_loads(costs: np.ndarray, n_workers: int) -> np.ndarray:
    """Total load per worker under earliest-free-worker dispatch."""
    heap = [(0.0, w) for w in range(n_workers)]
    heapq.heapify(heap)
    loads = np.zeros(n_workers)
    for c in costs:
        t, w = heapq.heappop(heap)
        t += float(c)
        loads[w] = t
        heapq.heappush(heap, (t, w))
    return loads
