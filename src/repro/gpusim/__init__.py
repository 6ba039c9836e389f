"""``repro.gpusim`` -- the simulated-GPU substrate.

The paper targets CUDA on a physical V100.  This package substitutes a
simulated device with the same *structure*: lockstep warps, blocks, shared
memory, atomics, and an oversubscribed block scheduler over streaming
multiprocessors.  Two execution paths are provided:

* :func:`repro.gpusim.simt.launch_interpreted` -- a functional SIMT
  interpreter that steps Python kernels thread-by-thread and measures
  each thread's charged cycles (ground truth for correctness and timing
  attribution at small scale);
* vectorized planners (the schedules' ``cycles``) that compute the same
  per-thread or per-warp cycle counts with NumPy (used at corpus scale).

:func:`repro.gpusim.cost_model.price` alone turns either path's cycles
into warp/block/device time, so they agree by construction.

Importing the package loads the device specs, the cost model, the SIMT
interpreter and the block scheduler (every launch uses them); the
multi-device planner and the profiling helpers load when one of their
names is first read.
"""

from .arch import (
    A100,
    AMD_WARP64,
    PRESETS,
    TINY_GPU,
    V100,
    CostParams,
    GpuLinkSpec,
    GpuSpec,
    get_spec,
)
from .cost_model import KernelStats, price
from .simt import SimtError, ThreadCtx, launch_interpreted
from .sm_scheduler import ScheduleOutcome, block_cycles_from_warps, schedule_blocks
from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".multi_gpu": (
        "MultiGpuStats",
        "multi_gpu_plan",
        "partition_tiles",
        "transfer_overhead_cycles",
    ),
    ".profiler": ("geomean",),
})

__all__ = [
    "A100",
    "AMD_WARP64",
    "PRESETS",
    "TINY_GPU",
    "V100",
    "CostParams",
    "GpuLinkSpec",
    "GpuSpec",
    "get_spec",
    "KernelStats",
    "price",
    "MultiGpuStats",
    "multi_gpu_plan",
    "partition_tiles",
    "transfer_overhead_cycles",
    "geomean",
    "SimtError",
    "ThreadCtx",
    "launch_interpreted",
    "ScheduleOutcome",
    "block_cycles_from_warps",
    "schedule_blocks",
]
