"""Pricing: from a launch's cycles to kernel time, in one place.

Engines and planners produce *work*: the cycles every thread (or every
warp) of a launch spends.  :func:`price` alone turns that work into
time:

``thread cycles -> lockstep warp max -> + per-warp setup -> block
(scheduler bandwidth) -> SM list scheduling -> max(makespan, DRAM
bandwidth floor) -> + launch overhead -> milliseconds``

The schedules' vectorized planners, the SIMT interpreter's measured
charges, the compiled engine's materialized loads and the hardwired
baselines all pass through it, so a kernel's time depends on its work,
never on which engine measured it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .arch import GpuSpec
from .sm_scheduler import ScheduleOutcome, block_cycles_from_warps, schedule_blocks

if TYPE_CHECKING:
    from ..core.schedule import WorkCosts

__all__ = ["KernelStats", "price"]


@dataclass(frozen=True)
class KernelStats:
    """Timing and efficiency statistics of one simulated kernel launch."""

    elapsed_ms: float
    makespan_cycles: float
    grid_dim: int
    block_dim: int
    occupancy: float
    #: Fraction of issued lane-cycles doing useful work (1 = no divergence).
    simt_efficiency: float
    #: Device utilization while the kernel ran.
    utilization: float
    #: Share of the makespan spent in a low-occupancy tail.
    tail_fraction: float
    #: Sum over threads of charged cycles (the "useful work").
    total_thread_cycles: float
    extras: dict = field(default_factory=dict, compare=False)

    def __add__(self, other: "KernelStats") -> "KernelStats":
        """Sequential composition of two launches (e.g. frontier iterations)."""
        if not isinstance(other, KernelStats):
            return NotImplemented
        total_ms = self.elapsed_ms + other.elapsed_ms
        w = self.elapsed_ms / total_ms if total_ms > 0 else 0.5
        blend = lambda a, b: w * a + (1 - w) * b  # noqa: E731
        return KernelStats(
            elapsed_ms=total_ms,
            makespan_cycles=self.makespan_cycles + other.makespan_cycles,
            grid_dim=max(self.grid_dim, other.grid_dim),
            block_dim=max(self.block_dim, other.block_dim),
            occupancy=blend(self.occupancy, other.occupancy),
            simt_efficiency=blend(self.simt_efficiency, other.simt_efficiency),
            utilization=blend(self.utilization, other.utilization),
            tail_fraction=blend(self.tail_fraction, other.tail_fraction),
            total_thread_cycles=self.total_thread_cycles + other.total_thread_cycles,
        )


def price(
    spec: GpuSpec,
    grid_dim: int,
    block_dim: int,
    cycles: np.ndarray,
    *,
    useful: float | None = None,
    setup: float = 0.0,
    costs: WorkCosts | None = None,
    atoms: int = 0,
    tiles: int = 0,
    tax: float = 0.0,
    extra: float = 0.0,
    extras: dict | None = None,
) -> KernelStats:
    """Turn one launch's cycles into its :class:`KernelStats`.

    Every producer of cycles -- each schedule's planner, the SIMT and
    compiled engines, the hardwired baselines -- calls this, so a kernel
    is timed the same way whichever engine or baseline measured its work.

    ``cycles`` is either per-thread (1-D, launch order; zero-padded to
    the launch) or per-warp (2-D, ``(grid_dim, warps_per_block)``, for
    planners whose lanes cooperate).  Per-thread cycles are folded
    lockstep: a warp runs as long as its slowest lane, and idle lanes
    still occupy issue slots.  ``useful`` is the work the lanes actually
    did (default: the per-thread sum, or every issued lane-cycle for
    per-warp input); ``setup`` is added to every warp (e.g. merge-path's
    binary search).

    The DRAM bandwidth floor bounds the body from below: a memory-bound
    kernel cannot beat ``(atoms * costs.atom_bytes + tiles *
    costs.tile_bytes) / spec.dram_bytes_per_cycle`` however balanced it
    is.  The framework's range bookkeeping issues ``tax`` extra cycles
    per atom, which on a bandwidth-saturated kernel marginally reduce the
    sustained throughput, so the floor is inflated by the tax fraction;
    hardwired baselines (tax 0) pay the raw floor -- the mechanism
    behind Figure 2's small geomean overhead.

    The body's blocks are list-scheduled onto the SMs; the launch
    overhead plus any fixed ``extra`` (e.g. a vendor library's analysis
    pass) follows the makespan.
    """
    wc = np.asarray(cycles, dtype=np.float64)
    warp_size = spec.warp_size
    if wc.ndim == 1:
        n_threads = grid_dim * block_dim
        if wc.size > n_threads:
            raise ValueError(
                f"{wc.size} thread cycle entries for a launch of {n_threads} threads"
            )
        if useful is None:
            useful = float(wc.sum())
        lanes = np.zeros((grid_dim, block_dim))
        lanes.reshape(-1)[: wc.size] = wc
        warps_per_block = -(-block_dim // warp_size)
        pad = warps_per_block * warp_size - block_dim
        if pad:  # each block's last warp is partial: its idle lanes add 0
            lanes = np.pad(lanes, ((0, 0), (0, pad)))
        wc = lanes.reshape(grid_dim, warps_per_block, warp_size).max(axis=2)
    elif wc.shape[0] != grid_dim:
        raise ValueError(
            f"per-warp cycles span {wc.shape[0]} blocks but grid_dim is {grid_dim}"
        )
    if setup:
        wc = wc + setup
    block_cycles = block_cycles_from_warps(wc, spec)
    outcome: ScheduleOutcome = schedule_blocks(block_cycles, block_dim, spec)

    floor = 0.0
    if costs is not None:
        total_bytes = atoms * costs.atom_bytes + tiles * costs.tile_bytes
        if total_bytes > 0:
            floor = total_bytes / spec.dram_bytes_per_cycle
            if costs.atom_cycles > 0 and tax > 0:
                floor *= 1.0 + tax / (costs.atom_cycles + spec.costs.loop_overhead)
    body = max(outcome.makespan_cycles, floor)
    makespan = body + spec.costs.kernel_launch_cycles + extra

    issued = float(wc.sum()) * warp_size
    if useful is None:
        useful = issued
    simt_eff = useful / issued if issued > 0 else 1.0

    return KernelStats(
        elapsed_ms=spec.cycles_to_ms(makespan),
        makespan_cycles=makespan,
        grid_dim=grid_dim,
        block_dim=block_dim,
        occupancy=spec.occupancy(grid_dim, block_dim),
        simt_efficiency=min(1.0, simt_eff),
        utilization=outcome.utilization,
        tail_fraction=outcome.tail_fraction,
        total_thread_cycles=useful,
        extras=extras or {},
    )
