"""Gunrock-style graph operators on the load-balancing abstraction.

The paper repeatedly cites Gunrock's data-centric operator model (advance
/ filter / compute) as the consumer of its schedules; this module builds
those operators on the public API so that new graph algorithms can be
written as operator pipelines, each step individually load-balanced:

* :func:`advance` -- expand a frontier along out-edges, applying a
  user-defined edge functor (the load-balanced neighborhood traversal at
  the heart of BFS/SSSP);
* :func:`filter` -- compact a frontier with a vertex predicate (a
  trivially balanced tile-per-thread kernel);
* :func:`compute` -- apply a vertex functor to a frontier (map).

Each operator returns the simulated :class:`KernelStats` of its launch,
so a pipeline's cost composes with ``+`` exactly like the paper's
multi-kernel algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import LaunchParams, Schedule, WorkCosts
from ..core.work import WorkSpec
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.cost_model import KernelStats
from ..engine.dispatch import resolve_schedule
from ..sparse.graph import CsrGraph
from .traversal import traversal_costs

__all__ = ["FrontierResult", "advance", "filter_frontier", "compute"]


@dataclass
class FrontierResult:
    """Output frontier plus the launch's simulated statistics."""

    frontier: np.ndarray  # sorted unique vertex ids
    stats: KernelStats
    extras: dict


def _frontier_array(frontier, num_vertices: int) -> np.ndarray:
    f = np.asarray(frontier, dtype=np.int64).reshape(-1)
    if f.size and (f.min() < 0 or f.max() >= num_vertices):
        raise ValueError("frontier contains out-of-range vertex ids")
    return np.unique(f)


def advance(
    graph: CsrGraph,
    frontier,
    edge_op,
    *,
    schedule: str | Schedule = "group_mapped",
    spec: GpuSpec = V100,
    launch: LaunchParams | None = None,
    **schedule_options,
) -> FrontierResult:
    """Expand ``frontier`` along out-edges; keep targets where ``edge_op``
    returns True.

    ``edge_op(sources, targets, weights)`` is vectorized over the
    frontier's edges and returns a boolean mask selecting the edges whose
    targets join the output frontier -- the user-defined computation of
    the abstraction's third stage.
    """
    f = _frontier_array(frontier, graph.num_vertices)
    csr = graph.csr
    degrees = csr.row_lengths()[f]
    work = WorkSpec.from_counts(degrees, label="advance")
    if work.num_atoms == 0:
        return FrontierResult(
            frontier=np.zeros(0, dtype=np.int64),
            stats=_empty_stats(spec),
            extras={"edges": 0},
        )
    sched = resolve_schedule(schedule, work, spec, launch, **schedule_options)
    stats = sched.plan(traversal_costs(spec), extras={"op": "advance"})

    starts = csr.row_offsets[f]
    total = int(degrees.sum())
    offs = np.zeros(f.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=offs[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(offs, degrees)
    edge_ids = np.repeat(starts, degrees) + within
    sources = np.repeat(f, degrees)
    targets = csr.col_indices[edge_ids]
    weights = csr.values[edge_ids]

    keep = np.asarray(edge_op(sources, targets, weights), dtype=bool)
    if keep.shape != targets.shape:
        raise ValueError("edge_op must return one boolean per edge")
    out = np.unique(targets[keep])
    return FrontierResult(frontier=out, stats=stats, extras={"edges": total})


def filter_frontier(
    graph: CsrGraph,
    frontier,
    predicate,
    *,
    schedule: str | Schedule = "thread_mapped",
    spec: GpuSpec = V100,
    launch: LaunchParams | None = None,
    **schedule_options,
) -> FrontierResult:
    """Keep the frontier vertices where ``predicate(vertices)`` is True.

    A filter is one atom per tile -- the perfectly uniform workload where
    thread-mapped scheduling is optimal (the Figure 3 regime).
    """
    f = _frontier_array(frontier, graph.num_vertices)
    work = WorkSpec.from_counts(np.ones(f.size, dtype=np.int64), label="filter")
    c = spec.costs
    costs = WorkCosts(
        atom_cycles=c.alu,
        tile_cycles=c.global_load_coalesced + c.global_store,
        tile_reduction=False,
        atom_bytes=4.0,
        tile_bytes=5.0,
    )
    if f.size == 0:
        return FrontierResult(
            frontier=f, stats=_empty_stats(spec), extras={"kept": 0}
        )
    sched = resolve_schedule(schedule, work, spec, launch, **schedule_options)
    stats = sched.plan(costs, extras={"op": "filter"})
    keep = np.asarray(predicate(f), dtype=bool)
    if keep.shape != f.shape:
        raise ValueError("predicate must return one boolean per vertex")
    return FrontierResult(frontier=f[keep], stats=stats, extras={"kept": int(keep.sum())})


def compute(
    graph: CsrGraph,
    frontier,
    vertex_op,
    *,
    schedule: str | Schedule = "thread_mapped",
    spec: GpuSpec = V100,
    launch: LaunchParams | None = None,
    **schedule_options,
) -> FrontierResult:
    """Apply ``vertex_op(vertices)`` to every frontier vertex (map).

    The functor runs for its side effects (updating per-vertex state);
    the frontier passes through unchanged.
    """
    f = _frontier_array(frontier, graph.num_vertices)
    work = WorkSpec.from_counts(np.ones(f.size, dtype=np.int64), label="compute")
    c = spec.costs
    costs = WorkCosts(
        atom_cycles=2 * c.alu,
        tile_cycles=c.global_load_coalesced + c.global_store,
        tile_reduction=False,
        atom_bytes=8.0,
        tile_bytes=8.0,
    )
    if f.size == 0:
        return FrontierResult(frontier=f, stats=_empty_stats(spec), extras={})
    sched = resolve_schedule(schedule, work, spec, launch, **schedule_options)
    stats = sched.plan(costs, extras={"op": "compute"})
    vertex_op(f)
    return FrontierResult(frontier=f, stats=stats, extras={})


def _empty_stats(spec: GpuSpec) -> KernelStats:
    cycles = spec.costs.kernel_launch_cycles
    return KernelStats(
        elapsed_ms=spec.cycles_to_ms(cycles),
        makespan_cycles=cycles,
        grid_dim=1,
        block_dim=spec.warp_size,
        occupancy=0.0,
        simt_efficiency=1.0,
        utilization=0.0,
        tail_fraction=0.0,
        total_thread_cycles=0.0,
    )
