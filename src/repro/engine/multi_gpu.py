"""Multi-GPU execution as just another engine.

:mod:`repro.gpusim.multi_gpu` models the paper's Section 8 future work:
device-level partitioning with the same machinery used inside a device.
Wrapped in an :class:`~repro.engine.dispatch.Engine`, it reaches every
registered application by naming an engine.  The output comes from the
kernel's ``arrays`` body, bit-for-bit the vector engine's; the time from
:func:`~repro.gpusim.multi_gpu.multi_gpu_plan` (shard partition,
per-shard re-scheduling, slowest device plus offload), its shards
planned through the engine's plan cache.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..gpusim.multi_gpu import multi_gpu_plan
from .dispatch import Engine, register_engine
from .plan_cache import PlanCache

__all__ = ["MultiGpuEngine"]


class MultiGpuEngine(Engine):
    """Partition the launch across homogeneous devices; plan each shard.

    ``num_devices`` homogeneous copies of the launch's
    :class:`~repro.gpusim.arch.GpuSpec` split the tile set with the
    merge-path partition (tiles+atoms balanced by the same 2-D binary
    search the merge-path schedule uses).  Each shard is re-scheduled
    with the launch's resolved schedule and its construction options,
    and priced by the analytic planner; the ensemble time is the slowest
    device plus the per-device offload overhead.
    """

    name = "multi_gpu"

    def __init__(self, num_devices: int = 2, plan_cache: PlanCache | None = None):
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        super().__init__(plan_cache)
        self.num_devices = num_devices

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        return self.execute(decl, args), self.price(sched, costs, decl, extras=extras)

    def execute(self, decl, args):
        return decl.arrays(*args)

    def price(self, sched, costs, decl, *, extras=None):
        def plan_shard(dev_sched, dev_costs, dev_extras):
            return self.plan_cache.plan(dev_sched, dev_costs, extras=dev_extras)

        # Re-schedule each shard with the schedule's construction options
        # (a ``group_size`` must shape the per-device launches the same
        # way it shaped the single-device one), not the defaults.
        options = getattr(sched, "construction_options", None) or {}
        try:
            ensemble = multi_gpu_plan(
                sched.work,
                costs,
                schedule=sched.name,
                spec=sched.spec,
                num_devices=self.num_devices,
                plan_shard=plan_shard,
                **options,
            )
        except ValueError:
            # Degenerate empty workload: one device, nothing to split.
            return sched.plan(costs, extras=extras)

        times = np.array([s.elapsed_ms for s in ensemble.device_stats])
        slowest = ensemble.device_stats[int(times.argmax())]
        return replace(
            slowest,
            elapsed_ms=ensemble.elapsed_ms,
            extras={
                "schedule": sched.name,
                "engine": self.name,
                "num_devices": self.num_devices,
                "partition": ensemble.extras["partition"],
                "device_imbalance": ensemble.device_imbalance,
                "shards": ensemble.shards,
                "device_elapsed_ms": tuple(float(t) for t in times),
                "transfer_model": ensemble.extras.get("transfer_model"),
                "transfer_ms": ensemble.extras.get("transfer_ms"),
                "gather_bytes": ensemble.extras.get("gather_bytes"),
                **(extras or {}),
            },
        )


register_engine("multi_gpu", MultiGpuEngine)
