"""Cycle costs of group-level collectives.

These price the parallel building blocks the paper's group-mapped
schedule relies on (Section 5.2.3): a group stages its tiles' atom counts
into scratchpad memory, runs a *prefix sum* over them, and then
binary-searches that prefix array to map atoms back to tiles.  The
schedules charge :func:`scan_cost` / :func:`reduce_cost` -- a
Blelloch-style tree of ``log2(n)`` steps -- in their analytic planners.
"""

from __future__ import annotations

import math

from .arch import GpuSpec

__all__ = ["scan_cost", "reduce_cost"]


def scan_cost(spec: GpuSpec, group_size: int, n_items: int | None = None) -> float:
    """Cycles charged for a group-wide prefix sum.

    A work-efficient scan over ``n_items`` staged values by a group of
    ``group_size`` lanes: ``ceil(n/g)`` passes of a ``log2``-step tree, each
    step one shared-memory read+write plus an add.
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    n = group_size if n_items is None else max(1, n_items)
    c = spec.costs
    steps = max(1, math.ceil(math.log2(max(2, group_size))))
    passes = -(-n // group_size)
    per_step = c.shared_load + c.shared_store + c.alu + c.scan_step
    return passes * (steps * per_step + c.sync)


def reduce_cost(spec: GpuSpec, group_size: int) -> float:
    """Cycles charged for a group-wide tree reduction."""
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    c = spec.costs
    steps = max(1, math.ceil(math.log2(max(2, group_size))))
    return steps * (c.shared_load + c.alu + c.scan_step)
