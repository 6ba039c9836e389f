"""Multi-GPU extension (the paper's future work, Section 8).

"In the future, we are interested in expanding our model to a multi-GPU
environment, and implementing load-balancing schedules that span across
the GPU boundary."

This module does exactly that, one level up the same abstraction: the
*devices* become the processors, and the tile set is split across them
with the same machinery used inside a device.  Two inter-device
partitioners are provided:

* ``"tiles"`` -- equal tile counts per device (the naive split, fragile
  under skew, analogous to thread-mapped);
* ``"merge_path"`` -- equal tiles+atoms per device via the same 2-D
  binary search the merge-path schedule uses (balanced under any skew),
  demonstrating that the paper's schedules really do "span across the
  GPU boundary" unchanged.

Each device then runs its intra-device schedule on its shard; the
ensemble time is the slowest device plus the inter-device transfer
cost.  With no :class:`~repro.gpusim.arch.GpuLinkSpec` on the spec the
transfer term is the legacy flat per-device offload overhead (host
dispatch + result gather); with a link it is priced per device as hops
x (link latency + gather volume / link bandwidth) back to device 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import GpuSpec
from .cost_model import KernelStats

__all__ = [
    "MultiGpuStats",
    "partition_tiles",
    "multi_gpu_plan",
    "transfer_overhead_cycles",
]

#: Host-side cost of dispatching to / gathering from one extra device,
#: in cycles of the (homogeneous) device clock.  Used when the spec has
#: no link topology (the legacy flat model).
PER_DEVICE_OVERHEAD_CYCLES = 2500.0

#: Result-gather volume per tile: each tile contributes one 8-byte
#: output element that must travel back to device 0 under a link model.
GATHER_BYTES_PER_TILE = 8.0


def transfer_overhead_cycles(
    spec: GpuSpec, shards, num_devices: int
) -> tuple[float, float]:
    """Inter-device transfer cost of gathering results to device 0.

    Returns ``(cycles, gather_bytes)``.  With no link on the spec this
    is the flat legacy term (``PER_DEVICE_OVERHEAD_CYCLES`` per device,
    volume-blind); with a :class:`~repro.gpusim.arch.GpuLinkSpec` each
    non-root device pays ``hops * (latency + volume / bandwidth)`` where
    volume is its shard's tile count times :data:`GATHER_BYTES_PER_TILE`
    -- device 0's shard never crosses a link.
    """
    link = spec.link
    if link is None:
        return PER_DEVICE_OVERHEAD_CYCLES * num_devices, 0.0
    cycles = 0.0
    gather_bytes = 0.0
    for device, (_atoms, tiles) in enumerate(shards):
        hops = link.hops(device, 0, num_devices)
        if hops == 0:
            continue
        volume = float(tiles) * GATHER_BYTES_PER_TILE
        gather_bytes += volume
        cycles += hops * (
            link.latency_cycles + volume / link.bandwidth_bytes_per_cycle
        )
    return cycles, gather_bytes


@dataclass(frozen=True)
class MultiGpuStats:
    """Ensemble timing of a multi-device launch."""

    elapsed_ms: float
    num_devices: int
    #: Per-device kernel stats, in device order.
    device_stats: tuple[KernelStats, ...]
    #: (atoms, tiles) per device -- the shard sizes.
    shards: tuple[tuple[int, int], ...]
    #: max device time / mean device time (1.0 = perfectly balanced).
    device_imbalance: float
    extras: dict = field(default_factory=dict, compare=False)

    @property
    def speedup_vs_slowest_possible(self) -> float:
        total = sum(s.elapsed_ms for s in self.device_stats)
        return total / self.elapsed_ms if self.elapsed_ms > 0 else 1.0


def partition_tiles(
    tile_offsets: np.ndarray, num_devices: int, strategy: str = "merge_path"
) -> np.ndarray:
    """Split the tile range into ``num_devices`` contiguous shards.

    Returns device boundaries in tile ids (length ``num_devices + 1``).
    """
    offsets = np.asarray(tile_offsets, dtype=np.int64)
    num_tiles = offsets.size - 1
    num_atoms = int(offsets[-1])
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    if strategy == "tiles":
        bounds = np.linspace(0, num_tiles, num_devices + 1).astype(np.int64)
        return bounds
    if strategy == "merge_path":
        from ..core.schedules.merge_path import merge_path_partition

        total = num_tiles + num_atoms
        diagonals = np.linspace(0, total, num_devices + 1).astype(np.int64)
        tile_bounds, _ = merge_path_partition(offsets, num_atoms, diagonals)
        tile_bounds[0], tile_bounds[-1] = 0, num_tiles
        return tile_bounds
    raise ValueError(f"unknown partition strategy {strategy!r}")


def multi_gpu_plan(
    work,
    costs,
    *,
    schedule: str = "merge_path",
    spec: GpuSpec | None = None,
    num_devices: int = 2,
    partition: str = "merge_path",
    plan_shard=None,
    **schedule_options,
) -> MultiGpuStats:
    """Plan a workload across ``num_devices`` homogeneous GPUs.

    ``work`` is a :class:`~repro.core.work.WorkSpec`; each shard becomes
    its own WorkSpec scheduled independently with ``schedule``.

    ``plan_shard(sched, costs, extras) -> KernelStats`` overrides how one
    shard's schedule is priced (default: ``sched.plan``); the engine
    layer uses it to route shard planning through its plan cache without
    duplicating this loop.
    """
    from ..core.schedule import make_schedule
    from ..core.work import WorkSpec
    from .arch import V100

    spec = spec or V100
    bounds = partition_tiles(work.tile_offsets, num_devices, partition)
    device_stats: list[KernelStats] = []
    shards: list[tuple[int, int]] = []
    for d in range(num_devices):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        shard_offsets = work.tile_offsets[lo : hi + 1] - work.tile_offsets[lo]
        shard = WorkSpec.from_offsets(shard_offsets, label=f"{work.label}/dev{d}")
        shards.append((shard.num_atoms, shard.num_tiles))
        if shard.num_tiles == 0 and shard.num_atoms == 0:
            continue
        sched = make_schedule(schedule, shard, spec, **schedule_options)
        extras = {"device": d}
        device_stats.append(
            plan_shard(sched, costs, extras) if plan_shard is not None
            else sched.plan(costs, extras=extras)
        )

    if not device_stats:
        raise ValueError("empty workload: nothing to plan")
    times = np.array([s.elapsed_ms for s in device_stats])
    if spec.link is None:
        # Bit-exact legacy expression: zero-topology specs must
        # reproduce pre-link ensemble timing to the last ulp.
        overhead_ms = spec.cycles_to_ms(PER_DEVICE_OVERHEAD_CYCLES) * num_devices
        gather_bytes = 0.0
        transfer_model = "flat"
    else:
        cycles, gather_bytes = transfer_overhead_cycles(
            spec, shards, num_devices
        )
        overhead_ms = spec.cycles_to_ms(cycles)
        transfer_model = spec.link.topology
    elapsed = float(times.max()) + overhead_ms
    return MultiGpuStats(
        elapsed_ms=elapsed,
        num_devices=num_devices,
        device_stats=tuple(device_stats),
        shards=tuple(shards),
        device_imbalance=float(times.max() / times.mean()),
        extras={
            "partition": partition,
            "schedule": schedule,
            "transfer_model": transfer_model,
            "transfer_ms": overhead_ms,
            "gather_bytes": gather_bytes,
        },
    )
