"""Triangle counting via per-edge neighbor-list intersection.

The workload behind Logarithmic Radix Binning in the related work: tiles
are vertices, atoms are edges, and each atom's work is an intersection of
two sorted adjacency lists -- per-atom costs proportional to the degree
sum, making this the stress test for atom-cost-aware schedules like LRB.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.schedule import WorkCosts
from ..core.work import WorkSpec
from ..engine import (
    AppSpec,
    KernelDecl,
    Runtime,
    register_app,
    run_app,
)
from ..gpusim.arch import GpuSpec
from ..sparse.convert import csr_to_coo, offsets_from_counts
from ..sparse.csr import CsrMatrix
from .common import AppResult

__all__ = ["triangle_count", "triangle_count_reference", "triangle_count_driver"]


def _upper_triangle(adjacency: CsrMatrix) -> CsrMatrix:
    """The symmetrized, binarized strict upper triangle, in one pass.

    Every stored off-diagonal entry (r, c), whatever its value, is the
    edge ``(min, max)``; self-loops are dropped.  The linearized keys
    ``min * n + max`` are sorted and deduplicated with a neighbour mask,
    so each row's neighbor list comes out sorted-unique (the invariant
    the intersection kernels rely on), and ``bincount`` gives the row
    offsets.
    """
    n = adjacency.num_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), adjacency.row_lengths())
    cols = adjacency.col_indices
    keys = np.minimum(rows, cols) * np.int64(n) + np.maximum(rows, cols)
    keys = np.sort(keys[rows != cols])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    sel_rows, sel_cols = np.divmod(keys, n)
    offsets = offsets_from_counts(np.bincount(sel_rows, minlength=n))
    return CsrMatrix.from_arrays(
        offsets, sel_cols, np.ones(sel_cols.size), adjacency.shape
    )


#: Byte budget of the triangle kernel's dense mark block: ``budget // n``
#: upper-triangle rows (at least one) are marked at a time.  A module
#: constant, not an option: tests shrink it to reach the multi-block path.
_MARK_BLOCK_BYTES = 1 << 18
#: Most wedges the triangle kernel expands at once (the multi-chunk path).
_WEDGE_CHUNK = 1 << 16


def _triangle_count_arrays(row_offsets, col_indices, num_rows, num_cols):
    """Vectorized intersection counting over the upper triangle's arrays.

    A triangle (u, v, w) with u < v < w is an edge (u, v) plus a wedge w
    in N+(v) with (u, w) also an edge.  Rows ``[lo, hi)`` of the upper
    triangle are marked in one reused dense ``bool`` block, row ``u`` at
    ``(u - lo) * n``; each wedge of an edge leaving those rows is then a
    single gather into the block, so membership costs O(1) per wedge
    with no search and no per-row Python loop.  Wedges are expanded in
    chunks of at most :data:`_WEDGE_CHUNK` (an edge with more wedges is
    a chunk of its own), and the block's marks are cleared through the
    same index array that set them, so it is allocated once.

    Memory: the block holds ``max(1, _MARK_BLOCK_BYTES // n)`` rows of
    ``n`` bytes -- 256 KiB unless a single row is larger -- plus O(E + n)
    for the per-edge wedge counts and O(chunk) per expansion.  Needs
    each row's neighbor list unique (a duplicate wedge counts twice);
    the order within a row does not matter.  Integer-exact.
    """
    offs, cols = row_offsets, col_indices
    if cols.size == 0:
        return 0
    n = int(num_cols)
    deg = np.diff(offs)
    wedge_counts = deg[cols]  # |N+(v)| per edge (u, v)
    bounds = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(wedge_counts, out=bounds[1:])
    if bounds[-1] == 0:
        return 0
    rows_per_block = min(max(1, _MARK_BLOCK_BYTES // n), int(num_rows))
    block = np.zeros(rows_per_block * n, dtype=bool)
    count = 0
    for lo in range(0, int(num_rows), rows_per_block):
        hi = min(lo + rows_per_block, int(num_rows))
        e0, e1 = int(offs[lo]), int(offs[hi])
        if bounds[e1] == bounds[e0]:
            continue  # no edge of these rows closes a wedge
        row_base = np.repeat(
            np.arange(hi - lo, dtype=np.int64) * n, deg[lo:hi]
        )
        marks = row_base + cols[e0:e1]
        block[marks] = True
        a = e0
        while a < e1:
            # The longest edge run [a, b) with at most _WEDGE_CHUNK wedges.
            b = int(np.searchsorted(bounds, bounds[a] + _WEDGE_CHUNK,
                                    side="right")) - 1
            b = min(max(b, a + 1), e1)
            wc = wedge_counts[a:b]
            total = int(bounds[b] - bounds[a])
            if total:
                # Wedge k of edge (u, v) is cols[offs[v] + k]; look up (u, w).
                first = offs[cols[a:b]] - (bounds[a:b] - bounds[a])
                w = cols[np.repeat(first, wc) + np.arange(total)]
                hits = block[np.repeat(row_base[a - e0:b - e0], wc) + w]
                count += int(np.count_nonzero(hits))
            a = b
        block[marks] = False
    return count


def _triangle_count_scalar(row_offsets, col_indices, num_rows, num_cols):
    """Flat-loop triangle count (jit-able): classic two-pointer sorted
    intersection per upper-triangle edge.  Integer-exact, so it agrees
    with :func:`_triangle_count_arrays` by construction."""
    count = 0
    for u in range(num_rows):
        for e in range(row_offsets[u], row_offsets[u + 1]):
            v = col_indices[e]
            i = row_offsets[u]
            j = row_offsets[v]
            i_end = row_offsets[u + 1]
            j_end = row_offsets[v + 1]
            while i < i_end and j < j_end:
                cu = col_indices[i]
                cv = col_indices[j]
                if cu == cv:
                    count += 1
                    i += 1
                    j += 1
                elif cu < cv:
                    i += 1
                else:
                    j += 1
    return count


def _triangle_count_example_args() -> tuple:
    # The 3-cycle's upper triangle: edges (0,1), (0,2), (1,2).
    offsets = np.array([0, 2, 3, 3], dtype=np.int64)
    cols = np.array([1, 2, 2], dtype=np.int64)
    return offsets, cols, 3, 3


INTERSECT_DECL = KernelDecl(
    "intersect",
    _triangle_count_arrays,
    scalar=_triangle_count_scalar,
    example_args=_triangle_count_example_args,
)


def triangle_count_reference(adjacency: CsrMatrix) -> int:
    """Oracle: count triangles with packed neighbor bitsets.

    An edge is a stored off-diagonal entry, whatever its value (explicit
    zeros and cancelling duplicates still count); direction, duplicates
    and self-loops are ignored.  Each vertex gets one bit-row of its
    undirected neighbors, packed into ``ceil(n / 64)`` ``uint64`` words
    (``n * ceil(n / 64) * 8`` bytes in all; neighbor ``c`` of row ``r``
    is bit ``c % 64`` of word ``c // 64``), and each unique edge u < v
    adds ``popcount(bits[u] & bits[v])``, its common neighbors; every
    triangle is seen from its three edges.  Built from the raw stored
    pattern, independent of the kernel's host prep and intersections.
    """
    n = adjacency.num_rows
    words = (n + 63) // 64
    row_bits = 64 * words
    coo = csr_to_coo(adjacency)
    off_diag = coo.rows != coo.cols
    rows = np.concatenate([coo.rows[off_diag], coo.cols[off_diag]])
    cols = np.concatenate([coo.cols[off_diag], coo.rows[off_diag]])
    # One bit per (row, col): bit key >> 6 is the word, and the distinct
    # keys of one word OR together by summing.
    keys = np.sort(rows * np.int64(row_bits) + cols)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    if keys.size == 0:
        return 0
    bits = np.zeros(n * words, dtype=np.uint64)
    word = keys >> 6
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    masks = np.left_shift(np.uint64(1), (keys & 63).astype(np.uint64))
    bits[word[starts]] = np.add.reduceat(masks, starts)
    bits = bits.reshape(n, words)

    u, v = np.divmod(keys, row_bits)
    upper = u < v
    u, v = u[upper], v[upper]
    # Bounded chunks: each one ANDs ``chunk`` row pairs (256 KB per
    # temporary, small enough to reuse heap pages).
    chunk = max(1, (1 << 15) // words)
    common = 0
    for lo in range(0, u.size, chunk):
        shared = bits[u[lo:lo + chunk]] & bits[v[lo:lo + chunk]]
        common += int(np.bitwise_count(shared).sum(dtype=np.int64))
    return common // 3


def _intersection_costs(spec: GpuSpec, mean_degree: float) -> WorkCosts:
    c = spec.costs
    # Each atom (edge u->v) walks min(deg(u), deg(v)) ~ mean_degree items
    # of two sorted lists.
    per_item = 2 * c.global_load_coalesced + c.alu
    return WorkCosts(
        atom_cycles=max(1.0, mean_degree) * per_item,
        tile_cycles=c.global_load_coalesced,
        tile_reduction=True,
    )


def _triangle_problem(adjacency: CsrMatrix) -> SimpleNamespace:
    """The host-prep half of a triangle count, built once per graph.

    The symmetrized, binarized upper triangle: every schedule's launch
    over this graph reads the same ``upper``.
    """
    if adjacency.num_rows != adjacency.num_cols:
        raise ValueError("triangle counting requires a square adjacency")
    return SimpleNamespace(adjacency=adjacency, upper=_upper_triangle(adjacency))


def triangle_count(
    adjacency: CsrMatrix,
    *,
    ctx=None,
) -> AppResult:
    """Load-balanced triangle count of an (interpreted-as-)undirected graph.

    An edge is a stored off-diagonal entry, whatever its value: the input
    is symmetrized and binarized internally and self-loops are dropped.
    Defaults to the LRB schedule per the related work's usage.
    ``ctx`` is the execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`).
    """
    return run_app("triangle_count", _triangle_problem(adjacency), ctx=ctx)


def triangle_count_driver(problem, rt: Runtime) -> AppResult:
    """The registered triangle-count declaration.

    Count: for each directed edge (u, v) in ``problem.upper`` (the
    symmetrized upper triangle, where an edge is a stored off-diagonal
    entry whatever its value), ``|N+(u) /\\ N+(v)|`` using sorted-list
    intersections.
    """
    upper = problem.upper
    work = WorkSpec.from_csr(upper, label="triangles")
    mean_deg = upper.nnz / max(1, upper.num_rows)
    costs = _intersection_costs(rt.spec, mean_deg)
    sched = rt.schedule_for(work, matrix=upper, costs=costs)

    def kernel():
        total = np.zeros(1)
        col_indices = upper.col_indices
        atom_c, tile_c = sched.charges(costs)

        def body(ctx):
            for u in sched.tiles(ctx):
                nu, _ = upper.row_slice(int(u))
                found = 0
                n = 0
                for e in sched.atoms(ctx, u):
                    nv, _ = upper.row_slice(int(col_indices[e]))
                    found += np.intersect1d(nu, nv, assume_unique=True).size
                    n += 1
                ctx.charge(n * atom_c + tile_c)
                if found:
                    ctx.atomic_add(total, 0, found)

        return body, lambda: int(total[0])

    output, stats = rt.run_launch(
        sched,
        costs,
        INTERSECT_DECL,
        (upper.row_offsets, upper.col_indices, upper.num_rows, upper.num_cols),
        simt=kernel,
        extras={"app": "triangle_count"},
    )
    return AppResult(
        output=output,
        stats=stats,
        schedule=rt.schedule_name(sched),
        extras={"upper_edges": upper.nnz},
    )


register_app(
    AppSpec(
        name="triangle_count",
        driver=triangle_count_driver,
        kernels=(INTERSECT_DECL,),
        default_schedule="lrb",
        oracle=lambda p: triangle_count_reference(p.adjacency),
        sweep_problem=lambda matrix, seed: _triangle_problem(matrix),
        match=lambda output, expected: int(output) == int(expected),
        accepts=lambda matrix: matrix.num_rows == matrix.num_cols,
        description="per-edge neighbor-intersection triangle counting",
    )
)
