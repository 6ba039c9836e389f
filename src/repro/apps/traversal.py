"""Frontier-based graph traversal: the substrate for BFS and SSSP.

The paper's data-centric graph kernels (Listing 5) are built on a
*neighborhood traversal*: each iteration launches one load-balanced kernel
whose tiles are the frontier's vertices and whose atoms are their outgoing
edges.  The per-iteration WorkSpec is rebuilt from the frontier -- which is
exactly why graph workloads are so imbalance-prone (frontier degree
distributions are arbitrary) and why reusing SpMV's schedules here is the
paper's headline composability result.

Each frontier advance is described to the engine layer as one launch:
algorithms supply their ``"advance"``
:class:`~repro.engine.registry.KernelDecl` (the relaxation over the
whole expanded edge frontier) with a per-iteration argument builder,
and optionally a scalar ``relax_edge`` (one edge at a time; the SIMT
engine's kernel body).  The loop itself is engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import WorkCosts
from ..core.work import WorkSpec
from ..engine import KernelDecl, Runtime
from ..gpusim.arch import GpuSpec
from ..gpusim.cost_model import KernelStats, price
from ..sparse.graph import CsrGraph

__all__ = [
    "FrontierIteration",
    "traversal_costs",
    "advance_workspec",
    "run_frontier_loop",
    "graph_sweep_problem",
]


def graph_sweep_problem(matrix, seed: int):
    """Lift a square corpus matrix into a traversal problem (source 0).

    Shared by the BFS and SSSP registrations: weights are taken as
    absolute values so any corpus matrix satisfies SSSP's non-negativity
    requirement.
    """
    from types import SimpleNamespace

    from ..sparse.csr import CsrMatrix

    graph = CsrGraph(
        csr=CsrMatrix.from_arrays(
            matrix.row_offsets,
            matrix.col_indices,
            np.abs(matrix.values),
            matrix.shape,
            validate=False,
        )
    )
    return SimpleNamespace(graph=graph, source=0, max_iterations=None)


def traversal_costs(spec: GpuSpec) -> WorkCosts:
    """Per-edge cost of a relaxation: neighbor/weight loads, a gather of
    the distance, an atomicMin, and a frontier-flag store."""
    c = spec.costs
    return WorkCosts(
        atom_cycles=(
            c.global_load_coalesced  # neighbor id
            + c.global_load_coalesced  # edge weight
            + c.global_load_random  # dist[source or neighbor] gather
            + c.global_store  # out_frontier flag
        ),
        tile_cycles=c.global_load_coalesced,  # row extent of the vertex
        tile_reduction=False,
        atom_atomic=True,  # the atomicMin of Listing 5
        # 4B neighbor + 8B weight + 8B dist + 1B frontier flag; 4B extent.
        atom_bytes=21.0,
        tile_bytes=4.0,
    )


def advance_workspec(out_degrees: np.ndarray, frontier: np.ndarray) -> WorkSpec:
    """WorkSpec of one frontier: tiles = frontier vertices, atoms = edges.

    ``out_degrees`` is the graph's per-vertex out-degree array, computed
    once per traversal rather than once per frontier.
    """
    return WorkSpec.from_counts(out_degrees[frontier], label="frontier")


@dataclass
class FrontierIteration:
    """One advance step's bookkeeping (for tests and traces)."""

    iteration: int
    frontier_size: int
    edges: int
    stats: KernelStats


def run_frontier_loop(
    graph: CsrGraph,
    source: int,
    decl: KernelDecl,
    args,
    *,
    rt: Runtime,
    relax_edge=None,
    max_iterations: int | None = None,
):
    """Generic level-synchronous frontier loop.

    Each iteration launches ``decl`` on ``args(iteration, frontier,
    edge_sources, edge_targets, edge_weights)``; the launch must return a
    boolean mask over vertices marking the next frontier.  The function
    handles the vectorized edge expansion and the per-iteration
    load-balanced timing; algorithms (BFS, SSSP) supply only the
    relaxation -- the "user-defined computation" stage of the
    abstraction.  ``decl.label`` (``"advance"``) names the launch in the
    race probe and the effect analysis.

    ``relax_edge(ctx, src, dst, weight, next_mask)`` is the scalar form of
    the same relaxation, consumed one edge at a time by the SIMT engine's
    interpreted kernel; it must mark improved vertices in ``next_mask``.
    Algorithms that omit it cannot run on the SIMT engine.

    ``rt`` carries the engine/schedule/device selection.

    Returns ``(iterations, total_stats)``.
    """
    if not 0 <= source < graph.num_vertices:
        raise ValueError(f"source {source} out of range")
    csr = graph.csr
    n = graph.num_vertices
    frontier = np.asarray([source], dtype=np.int64)
    iterations: list[FrontierIteration] = []
    limit = max_iterations if max_iterations is not None else graph.num_vertices + 1
    costs = traversal_costs(rt.spec)
    out_degrees = graph.out_degrees()

    for it in range(limit):
        if frontier.size == 0:
            break
        work = advance_workspec(out_degrees, frontier)
        if work.num_atoms == 0 and work.num_tiles == 0:  # pragma: no cover
            break

        # Vectorized edge expansion of the frontier.  Atom id e of this
        # iteration's WorkSpec indexes these arrays directly: atom e of
        # tile i is edge ``row_offsets[frontier[i]] + e - tile_offsets[i]``.
        degrees = out_degrees[frontier]
        edge_sources = np.repeat(frontier, degrees)
        total_edges = work.num_atoms
        first = csr.row_offsets[frontier] - work.tile_offsets[:-1]
        edge_ids = np.repeat(first, degrees) + np.arange(total_edges, dtype=np.int64)
        edge_targets = csr.col_indices[edge_ids]
        edge_weights = csr.values[edge_ids]

        sched = rt.schedule_for(work, matrix=csr, costs=costs)

        kernel = None
        if relax_edge is not None:

            def kernel():
                next_mask = np.zeros(n, dtype=bool)
                atom_c, tile_c = sched.charges(costs)

                def body(ctx):
                    # Listing 5's pattern: edges through the schedule, the
                    # owning vertex recovered implicitly via the tile.
                    for tile in sched.tiles(ctx):
                        m = 0
                        for e in sched.atoms(ctx, tile):
                            relax_edge(
                                ctx,
                                int(edge_sources[e]),
                                int(edge_targets[e]),
                                float(edge_weights[e]),
                                next_mask,
                            )
                            m += 1
                        ctx.charge(m * atom_c + tile_c)

                return body, lambda: next_mask

        next_mask, stats = rt.run_launch(
            sched,
            costs,
            decl,
            args(it, frontier, edge_sources, edge_targets, edge_weights),
            simt=kernel,
            extras={"app": "traversal", "iteration": it},
        )

        iterations.append(
            FrontierIteration(
                iteration=it,
                frontier_size=int(frontier.size),
                edges=total_edges,
                stats=stats,
            )
        )
        frontier = np.nonzero(next_mask)[0].astype(np.int64)

    total_stats = KernelStats.chain([i.stats for i in iterations])
    if total_stats is None:
        # No iteration ran (``max_iterations=0``): charge one empty launch.
        total_stats = price(rt.spec, 1, 32, np.zeros(0))
    return iterations, total_stats
