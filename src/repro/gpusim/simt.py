"""A functional SIMT interpreter.

This module executes Python "kernels" with CUDA-like semantics: a grid of
blocks, blocks of threads, warps of ``spec.warp_size`` lanes executing in
lockstep, per-block shared memory, block-wide barriers and global atomics.

It serves two purposes in the reproduction:

1. **Correctness ground truth** -- schedules and applications are executed
   thread-by-thread exactly as the paper's CUDA kernels would run, and the
   results are compared against the fast vectorized executors.
2. **Timing agreement** -- kernels *charge* cycle costs through
   :meth:`ThreadCtx.charge`.  The interpreter only measures: it returns
   the per-thread charges, and :func:`~repro.gpusim.cost_model.price`
   alone turns them into warp, block and device time, exactly as it does
   the analytic planners' cycles -- so the two paths can be
   cross-validated on small inputs.

Kernels are plain Python functions ``kernel(ctx, *args)``.  A kernel that
needs ``__syncthreads__`` must be written as a *generator* and
``yield ctx.sync()`` at each barrier; the interpreter suspends every thread
of the block at the barrier before resuming any of them, faithfully
reproducing barrier semantics (including deadlock detection when a barrier
is not reached by all threads).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .arch import GpuSpec, TINY_GPU
from .memory import SharedMemory

__all__ = ["ThreadCtx", "launch_interpreted", "SimtError"]

_SYNC = object()


class SimtError(RuntimeError):
    """Raised for SIMT-semantics violations (e.g. divergent barriers)."""


@dataclass
class _BlockState:
    shared: SharedMemory
    arrived: int = 0


class ThreadCtx:
    """Per-thread execution context handed to interpreted kernels.

    Mirrors the CUDA built-ins (``threadIdx``/``blockIdx``/``blockDim``/
    ``gridDim``) plus the simulator-specific :meth:`charge` hook used for
    timing attribution.
    """

    __slots__ = (
        "thread_idx",
        "block_idx",
        "block_dim",
        "grid_dim",
        "spec",
        "cycles",
        "_block",
    )

    def __init__(
        self,
        thread_idx: int,
        block_idx: int,
        block_dim: int,
        grid_dim: int,
        spec: GpuSpec,
        block: _BlockState,
    ):
        self.thread_idx = thread_idx
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.spec = spec
        self.cycles = 0.0
        self._block = block

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def global_thread_id(self) -> int:
        return self.block_idx * self.block_dim + self.thread_idx

    @property
    def num_threads(self) -> int:
        return self.block_dim * self.grid_dim

    @property
    def warp_size(self) -> int:
        return self.spec.warp_size

    @property
    def lane_id(self) -> int:
        return self.thread_idx % self.spec.warp_size

    @property
    def warp_id(self) -> int:
        """Warp index within the block."""
        return self.thread_idx // self.spec.warp_size

    @property
    def global_warp_id(self) -> int:
        return self.global_thread_id // self.spec.warp_size

    # ------------------------------------------------------------------
    # Timing attribution
    # ------------------------------------------------------------------
    def charge(self, cycles: float) -> None:
        """Attribute ``cycles`` of work to this thread."""
        self.cycles += cycles

    # ------------------------------------------------------------------
    # Shared memory and synchronization
    # ------------------------------------------------------------------
    def shared(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Named per-block scratchpad allocation (CUDA ``__shared__``)."""
        return self._block.shared.alloc(name, shape, dtype)

    def sync(self):
        """Barrier token: generator kernels must ``yield ctx.sync()``."""
        self.charge(self.spec.costs.sync)
        return _SYNC

    # ------------------------------------------------------------------
    # Atomics.  The interpreter runs threads one step at a time, so plain
    # read-modify-write is a valid linearization of the concurrent atomics.
    # ------------------------------------------------------------------
    def atomic_add(self, array: np.ndarray, index, value):
        self.charge(self.spec.costs.atomic)
        old = array[index]
        array[index] = old + value
        return old

    def atomic_min(self, array: np.ndarray, index, value):
        self.charge(self.spec.costs.atomic)
        old = array[index]
        if value < old:
            array[index] = value
        return old

    def atomic_max(self, array: np.ndarray, index, value):
        self.charge(self.spec.costs.atomic)
        old = array[index]
        if value > old:
            array[index] = value
        return old

    def atomic_cas(self, array: np.ndarray, index, compare, value):
        self.charge(self.spec.costs.atomic)
        old = array[index]
        if old == compare:
            array[index] = value
        return old


def launch_interpreted(
    kernel: Callable[..., Any],
    grid_dim: int,
    block_dim: int,
    args: Sequence[Any] = (),
    spec: GpuSpec = TINY_GPU,
) -> np.ndarray:
    """Execute ``kernel`` over a ``grid_dim x block_dim`` launch.

    Returns the cycles each thread charged, in launch order
    (``grid_dim * block_dim`` entries); pricing them into time is
    :func:`~repro.gpusim.cost_model.price`'s job.

    Generator kernels get true barrier semantics; plain functions are run
    to completion one thread at a time (valid when the kernel contains no
    block-wide synchronization, which is the common case for user kernels
    in this framework -- schedules that need barriers use generators
    internally).
    """
    if grid_dim <= 0 or block_dim <= 0:
        raise ValueError("grid_dim and block_dim must be positive")
    if block_dim > spec.max_threads_per_block:
        raise ValueError(
            f"block_dim {block_dim} exceeds {spec.name} limit "
            f"{spec.max_threads_per_block}"
        )

    is_generator = inspect.isgeneratorfunction(kernel)
    thread_cycles = np.zeros(grid_dim * block_dim)

    for block_idx in range(grid_dim):
        block = _BlockState(shared=SharedMemory(spec))
        ctxs = [
            ThreadCtx(t, block_idx, block_dim, grid_dim, spec, block)
            for t in range(block_dim)
        ]
        if is_generator:
            _run_block_with_barriers(kernel, ctxs, args, block_idx)
        else:
            for ctx in ctxs:
                kernel(ctx, *args)
        for ctx in ctxs:
            thread_cycles[ctx.global_thread_id] = ctx.cycles

    return thread_cycles


def _run_block_with_barriers(kernel, ctxs, args, block_idx: int) -> None:
    """Advance every thread generator of a block barrier-to-barrier."""
    gens = [kernel(ctx, *args) for ctx in ctxs]
    alive = list(range(len(gens)))
    while alive:
        at_barrier: list[int] = []
        done: list[int] = []
        for t in alive:
            try:
                token = next(gens[t])
            except StopIteration:
                done.append(t)
                continue
            if token is not _SYNC:
                raise SimtError(
                    f"thread {t} of block {block_idx} yielded a non-barrier "
                    f"token {token!r}; kernels may only yield ctx.sync()"
                )
            at_barrier.append(t)
        if at_barrier and done:
            raise SimtError(
                f"divergent barrier in block {block_idx}: threads "
                f"{at_barrier[:4]}... reached __syncthreads__ while threads "
                f"{done[:4]}... exited"
            )
        alive = at_barrier
