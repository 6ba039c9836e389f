"""``repro.gpusim`` -- the simulated-GPU substrate.

The paper targets CUDA on a physical V100.  This package substitutes a
simulated device with the same *structure*: lockstep warps, blocks, shared
memory, atomics, and an oversubscribed block scheduler over streaming
multiprocessors.  Two execution paths are provided:

* :func:`repro.gpusim.simt.launch_interpreted` -- a functional SIMT
  interpreter that steps Python kernels thread-by-thread (ground truth for
  correctness and timing attribution at small scale);
* :mod:`repro.gpusim.cost_model` -- an analytic path that folds vectorized
  per-thread cycle counts into warp/block/device times (used at corpus
  scale).

Both paths share the same folding rules, so they agree by construction.
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
from .cost_model import (
    KernelStats,
    kernel_stats_from_thread_cycles,
    kernel_stats_from_warp_cycles,
    warp_fold,
)
from .multi_gpu import (
    MultiGpuStats,
    multi_gpu_plan,
    partition_tiles,
    transfer_overhead_cycles,
)
from .profiler import geomean
from .simt import LaunchResult, SimtError, ThreadCtx, launch_interpreted
from .sm_scheduler import ScheduleOutcome, block_cycles_from_warps, schedule_blocks

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
    "kernel_stats_from_thread_cycles",
    "kernel_stats_from_warp_cycles",
    "warp_fold",
    "MultiGpuStats",
    "multi_gpu_plan",
    "partition_tiles",
    "transfer_overhead_cycles",
    "geomean",
    "LaunchResult",
    "SimtError",
    "ThreadCtx",
    "launch_interpreted",
    "ScheduleOutcome",
    "block_cycles_from_warps",
    "schedule_blocks",
]
