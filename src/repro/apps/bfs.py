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
    """Queue-based CPU oracle returning hop depths (-1 = unreachable)."""
    from collections import deque

    n = graph.num_vertices
    depth = np.full(n, UNVISITED, dtype=np.int64)
    depth[source] = 0
    q = deque([source])
    csr = graph.csr
    while q:
        u = q.popleft()
        lo, hi = csr.row_offsets[u], csr.row_offsets[u + 1]
        for v in csr.col_indices[lo:hi]:
            if depth[v] == UNVISITED:
                depth[v] = depth[u] + 1
                q.append(int(v))
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


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent relaxation audit over the raw CSR arrays.

    The BFS level invariants are re-derived directly from the edges --
    no queue, no frontier machinery, nothing shared with the oracle.
    One vectorized pass over every edge pins the global invariant (a
    reached vertex's out-neighbors are all reached within one extra
    hop); a seeded sample of reached vertices then gets the per-vertex
    predecessor audit (a vertex at depth ``d > 0`` has a predecessor at
    exactly ``d - 1`` -- and none earlier, else its own depth would be
    smaller).  O(nnz + samples * nnz) per call.
    """
    graph, source = problem.graph, problem.source
    csr = graph.csr
    n = graph.num_vertices
    depth = np.asarray(output)
    if depth.shape != (n,) or int(depth[source]) != 0:
        return False
    row_ids = np.repeat(np.arange(n, dtype=np.int64), csr.row_lengths())
    src_d, dst_d = depth[row_ids], depth[csr.col_indices]
    reached_edge = src_d != UNVISITED
    if np.any(dst_d[reached_edge] == UNVISITED):
        return False
    if np.any(dst_d[reached_edge] > src_d[reached_edge] + 1):
        return False
    reached = np.nonzero((depth != UNVISITED) & (np.arange(n) != source))[0]
    if reached.size:
        rng = np.random.default_rng(seed)
        for u in rng.choice(reached, size=min(samples, reached.size),
                            replace=False):
            du = int(depth[u])
            pred_depths = depth[row_ids[csr.col_indices == u]]
            pred_depths = pred_depths[pred_depths != UNVISITED]
            if pred_depths.size == 0 or int(pred_depths.min()) != du - 1:
                return False
    return True


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
        description="level-synchronous breadth-first search",
    )
)
