"""Breadth-first search via the neighborhood-traversal kernel.

Level-synchronous BFS: the frontier's out-edges are relaxed each
iteration; unvisited targets get the current depth and form the next
frontier.  Built on the same traversal substrate (and therefore the same
load-balancing schedules) as SSSP -- the paper's point that data-centric
graph kernels reduce to balanced neighborhood expansion.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..engine import AppSpec, KernelDecl, Runtime, register_app, run_app
from ..sparse.graph import CsrGraph
from .common import AppResult
from .traversal import graph_sweep_problem, run_frontier_loop

__all__ = ["bfs", "bfs_reference", "bfs_driver"]

UNVISITED = -1


def _bfs_relax_arrays(edge_targets, depth, level, n):
    """One BFS advance over the expanded edge frontier (vectorized).

    Mutates ``depth`` in place and returns the next-frontier mask; the
    level is an explicit argument (not driver state) so the function is
    pure in everything but its named outputs -- the property every
    engine's per-iteration launch relies on.
    """
    # A plain scatter, no sort: a duplicated target writes the same
    # level and the same mark twice.
    targets = edge_targets[depth[edge_targets] == UNVISITED]
    depth[targets] = level
    next_mask = np.zeros(n, dtype=bool)
    next_mask[targets] = True
    return next_mask


def _bfs_relax_scalar(edge_targets, depth, level, n):
    """Flat-loop BFS advance (jit-able, integer-exact).

    Claims each unvisited target at first touch; the claimed set -- and
    hence ``depth`` and the mask -- equals the unvisited targets
    :func:`_bfs_relax_arrays` scatters exactly.
    """
    next_mask = np.zeros(n, dtype=np.bool_)
    for e in range(edge_targets.shape[0]):
        dst = edge_targets[e]
        if depth[dst] == UNVISITED:
            depth[dst] = level
            next_mask[dst] = True
    return next_mask


def _bfs_example_args() -> tuple:
    targets = np.array([1, 2], dtype=np.int64)
    depth = np.array([0, UNVISITED, UNVISITED], dtype=np.int64)
    return targets, depth, 1, 3


ADVANCE_DECL = KernelDecl(
    "advance",
    _bfs_relax_arrays,
    scalar=_bfs_relax_scalar,
    example_args=_bfs_example_args,
)


def bfs_reference(graph: CsrGraph, source: int) -> np.ndarray:
    """CPU oracle returning hop depths (-1 = unreachable).

    A level-synchronous push written directly on the CSR arrays -- no
    frontier loop, no WorkSpec, no relaxation kernel: each level gathers
    the frontier's out-edges, keeps the unvisited targets and dedupes
    them into the next frontier with a scratch slot array (the last
    writer of each target wins; no sort).
    """
    csr = graph.csr
    offsets, cols = csr.row_offsets, csr.col_indices
    n = graph.num_vertices
    depth = np.full(n, UNVISITED, dtype=np.int64)
    depth[source] = 0
    slot = np.empty(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        # Edge ids of the whole frontier: each vertex's run of
        # ``counts`` ids from its own ``starts``.
        ends = np.cumsum(counts)
        edges = np.arange(total, dtype=np.int64)
        edges += np.repeat(starts - (ends - counts), counts)
        targets = cols[edges]
        targets = targets[depth[targets] == UNVISITED]
        position = np.arange(targets.size, dtype=np.int64)
        slot[targets] = position
        frontier = targets[slot[targets] == position]
        depth[frontier] = level
    return depth


def bfs(
    graph: CsrGraph,
    source: int,
    *,
    ctx=None,
) -> AppResult:
    """Load-balanced BFS on the simulated GPU; returns hop depths.

    ``ctx`` is the execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`; default schedule:
    ``group_mapped``).
    """
    problem = SimpleNamespace(graph=graph, source=source)
    return run_app("bfs", problem, ctx=ctx)


def bfs_driver(problem, rt: Runtime) -> AppResult:
    """The registered BFS declaration: the relaxation in both forms."""
    graph, source = problem.graph, problem.source
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    depth = np.full(n, UNVISITED, dtype=np.int64)
    depth[source] = 0

    def advance_args(iteration, frontier, edge_sources, edge_targets,
                     edge_weights):
        # Level-synchronous: ``iteration`` assigns depth ``iteration + 1``,
        # so the level bakes into the args and the kernel stays free of
        # driver-state side effects.
        return edge_targets, depth, iteration + 1, n

    def relax_edge(ctx, src, dst, weight, next_mask):
        # Scalar Listing 5 body: claim unvisited neighbors with a CAS.
        # The frontier is level-synchronous, so depth[src] is this
        # iteration's level and the two relaxation forms agree exactly.
        if depth[dst] == UNVISITED:
            old = ctx.atomic_cas(depth, dst, UNVISITED, depth[src] + 1)
            if old == UNVISITED:
                next_mask[dst] = True

    iterations, stats = run_frontier_loop(
        graph, source, ADVANCE_DECL, advance_args, rt=rt, relax_edge=relax_edge
    )
    return AppResult(
        output=depth,
        stats=stats,
        schedule=rt.schedule_label(),
        extras={"iterations": len(iterations), "trace": iterations},
    )


def _sample_check(problem, output, seed: int) -> bool:
    """Independent level certificate over the raw CSR arrays.

    No queue, no frontier, nothing shared with the oracle or the kernel:
    a few vectorized passes over every edge check that

    (a) the source is at depth 0;
    (b) every out-edge of a reached vertex lands on a reached vertex at
        most one level deeper;
    (c) every other reached vertex has an in-edge from a reached vertex
        exactly one level above.

    (b) bounds each depth by the hop distance from above and reaches
    every reachable vertex; (c) walks each depth back to the source
    along real edges, bounding it from below (a depth below
    ``UNVISITED`` has no such walk).  Together they hold for the BFS
    depths and nothing else, so the check is complete for every vertex
    in O(n + nnz); ``seed`` is unused.
    """
    graph, source = problem.graph, problem.source
    csr = graph.csr
    n = graph.num_vertices
    depth = np.asarray(output)
    if depth.shape != (n,) or int(depth[source]) != 0:
        return False
    src_d = np.repeat(depth, csr.row_lengths())
    dst_d = depth[csr.col_indices]
    reached_edge = src_d != UNVISITED
    src_d, dst_d = src_d[reached_edge], dst_d[reached_edge]
    if np.any(dst_d == UNVISITED) or np.any(dst_d > src_d + 1):
        return False
    has_parent = np.zeros(n, dtype=bool)
    has_parent[csr.col_indices[reached_edge][dst_d == src_d + 1]] = True
    has_parent[source] = True
    return bool(np.all(has_parent[depth != UNVISITED]))


register_app(
    AppSpec(
        name="bfs",
        driver=bfs_driver,
        kernels=(ADVANCE_DECL,),
        default_schedule="group_mapped",
        oracle=lambda p: bfs_reference(p.graph, p.source),
        sweep_problem=graph_sweep_problem,
        match=lambda output, expected: bool(np.array_equal(output, expected)),
        accepts=lambda matrix: matrix.num_rows == matrix.num_cols,
        sample_check=_sample_check,
        sample_check_seeded=False,
        description="level-synchronous breadth-first search",
    )
)
