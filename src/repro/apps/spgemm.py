"""Sparse general matrix-matrix multiplication: ``C = A @ B`` (sparse x sparse).

The paper sketches SpGEMM as a natural extension (Section 5.3): Gustavson's
row-wise formulation in two load-balanced kernels plus an allocation stage:

1. **Count kernel** -- for each row of A, the number of intermediate
   products (an upper bound on C's row length), load-balanced over A's
   tiles/atoms;
2. allocation of C from the prefix-summed counts (host side);
3. **Compute kernel** -- multiply-accumulate of the intermediate products,
   load-balanced over the *product* counts (a second WorkSpec, since the
   per-atom cost of pass 1 is wildly uneven -- this is exactly the kind of
   nested irregularity the abstraction exists for).

Both kernels share whatever schedule the caller picks, and both are
described to the engine layer as ordinary launches -- the two-pass
structure lives in the driver, the execution strategy in the engine.
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
from ..sparse.convert import coo_to_csr, csr_transpose, offsets_from_counts
from ..sparse.coo import CooMatrix
from ..sparse.csr import CsrMatrix
from .common import AppResult

__all__ = ["spgemm", "spgemm_reference", "spgemm_driver"]


def _count_costs(spec: GpuSpec) -> WorkCosts:
    c = spec.costs
    # Per A-atom: load k, load B's row extent; per tile: store the count.
    return WorkCosts(
        atom_cycles=c.global_load_coalesced + c.global_load_random + c.alu,
        tile_cycles=c.global_store,
        tile_reduction=True,
        atom_bytes=8.0,  # column index + B row extent
        tile_bytes=4.0,
    )


def _compute_costs(spec: GpuSpec) -> WorkCosts:
    c = spec.costs
    # Per intermediate product: load B value/index (gather), FMA, and a
    # hashed/atomic accumulation into C's row.
    return WorkCosts(
        atom_cycles=2 * c.global_load_random + c.fma,
        tile_cycles=c.global_store,
        tile_reduction=True,
        atom_atomic=True,
        atom_bytes=24.0,  # B value/index gather + C accumulation traffic
        tile_bytes=12.0,
    )


def _spgemm_count_arrays(a_row_offsets, a_col_indices, b_row_lengths):
    """Pass-1 product counts over flat arrays (exact integers)."""
    num_rows = a_row_offsets.shape[0] - 1
    per_row = np.zeros(num_rows, dtype=np.int64)
    a_rows = np.repeat(
        np.arange(num_rows, dtype=np.int64), np.diff(a_row_offsets)
    )
    np.add.at(per_row, a_rows, b_row_lengths[a_col_indices])
    return per_row


def _spgemm_count_scalar(a_row_offsets, a_col_indices, b_row_lengths):
    """Flat-loop count pass (jit-able, integer-exact)."""
    num_rows = a_row_offsets.shape[0] - 1
    per_row = np.zeros(num_rows, dtype=np.int64)
    for row in range(num_rows):
        total = 0
        for nz in range(a_row_offsets[row], a_row_offsets[row + 1]):
            total += b_row_lengths[a_col_indices[nz]]
        per_row[row] = total
    return per_row


def _spgemm_count_example_args() -> tuple:
    offsets = np.array([0, 1, 2], dtype=np.int64)
    cols = np.array([0, 1], dtype=np.int64)
    return offsets, cols, np.array([1, 2], dtype=np.int64)


def _spgemm_compute_arrays(prod_rows, prod_cols, prod_vals, num_rows, num_cols):
    """Pass-2 accumulation of the expanded products into CSR.

    Array-path only (no scalar form): the duplicate-summing CSR assembly
    is the computation, and its sort-based reduction has no flat-loop
    equivalent with identical float ordering -- so the compiled engine
    keeps this launch on the vectorized path even under numba.
    """
    coo = CooMatrix.from_arrays(
        prod_rows, prod_cols, prod_vals, (num_rows, num_cols)
    ).sum_duplicates()
    return coo_to_csr(coo)


COUNT_DECL = KernelDecl(
    "count",
    _spgemm_count_arrays,
    scalar=_spgemm_count_scalar,
    example_args=_spgemm_count_example_args,
)
# Pass 2 has no scalar form (its sort-based CSR assembly is the
# computation), so its effects are declared: the hashed per-row
# accumulation is a data-dependent scatter under every schedule.
COMPUTE_DECL = KernelDecl(
    "compute", _spgemm_compute_arrays, writes={"c": "scatter"}
)


#: Intermediate products the oracle expands at once.  Rows are taken in
#: blocks whose products fit this budget (a row over it is a block of its
#: own), so the oracle's working set is the budget plus the output, not
#: the whole expansion.
_ORACLE_PRODUCT_BUDGET = 1 << 17


def spgemm_reference(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Pure NumPy Gustavson expansion oracle (duplicates summed).

    Expands and reduces one row block at a time with its own gather
    (each product indexes its A atom), independent of the driver's
    allocation stage.  Blocks end on row boundaries, so each (row, col)
    sum sees its products in expansion order and the result is
    bit-identical to reducing the whole expansion at once.
    """
    _check(a, b)
    b_lengths = b.row_lengths()
    atom_products = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(b_lengths[a.col_indices], out=atom_products[1:])
    row_products = atom_products[a.row_offsets]  # cumulative, per row edge
    counts = np.zeros(a.num_rows, dtype=np.int64)
    cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    lo = 0
    while lo < a.num_rows:
        # The last row edge within budget; at least one row per block.
        hi = max(lo + 1, int(np.searchsorted(
            row_products, row_products[lo] + _ORACLE_PRODUCT_BUDGET, "right"
        )) - 1)
        start, stop = a.row_offsets[lo], a.row_offsets[hi]
        first, last = row_products[lo], row_products[hi]
        atom = np.repeat(
            np.arange(start, stop, dtype=np.int64),
            b_lengths[a.col_indices[start:stop]],
        )
        b_idx = (b.row_offsets[a.col_indices[atom]]
                 + np.arange(first, last, dtype=np.int64) - atom_products[atom])
        coo = CooMatrix.from_arrays(
            np.repeat(np.arange(hi - lo, dtype=np.int64),
                      np.diff(row_products[lo:hi + 1])),
            b.col_indices[b_idx], a.values[atom] * b.values[b_idx],
            (hi - lo, b.num_cols),
        ).sum_duplicates()
        counts[lo:hi] = np.bincount(coo.rows, minlength=hi - lo)
        cols.append(coo.cols)
        vals.append(coo.values)
        lo = hi
    return CsrMatrix.from_arrays(
        offsets_from_counts(counts), np.concatenate(cols),
        np.concatenate(vals), (a.num_rows, b.num_cols), validate=False,
    )


def _expand_products(a: CsrMatrix, b: CsrMatrix) -> dict:
    """Expand all intermediate products a_ik * b_kj, vectorized."""
    k_per_atom = a.col_indices  # the middle index of each A atom
    counts = b.row_lengths()[k_per_atom]  # products contributed per A atom
    total = int(counts.sum())
    a_rows = np.repeat(
        np.arange(a.num_rows, dtype=np.int64), a.row_lengths()
    )
    prod_rows = np.repeat(a_rows, counts)
    base = np.repeat(b.row_offsets[k_per_atom], counts)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    b_idx = base + within
    return {
        "rows": prod_rows,
        "cols": b.col_indices[b_idx],
        "vals": np.repeat(a.values, counts) * b.values[b_idx],
        "counts_per_atom": counts,
    }


def spgemm(
    a: CsrMatrix,
    b: CsrMatrix,
    *,
    ctx=None,
) -> AppResult:
    """Two-pass load-balanced SpGEMM on the simulated GPU.

    Returns the sparse product as a :class:`CsrMatrix`; ``stats`` is the
    sequential composition of the two kernels' stats.  ``ctx`` is the
    execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`); its policy selects
    each pass's schedule on that pass's own workload (kernel labels
    ``count`` and ``compute``).
    """
    _check(a, b)
    problem = SimpleNamespace(a=a, b=b)
    return run_app("spgemm", problem, ctx=ctx)


def spgemm_driver(problem, rt: Runtime) -> AppResult:
    """The registered SpGEMM declaration: count, allocate, compute."""
    a, b = problem.a, problem.b
    _check(a, b)
    b_row_lengths = b.row_lengths()
    a_rows = np.repeat(np.arange(a.num_rows, dtype=np.int64), a.row_lengths())

    # ---- Pass 1: count intermediate products per row of A. ----
    work_count = WorkSpec.from_csr(a, label="spgemm-count")
    costs1 = _count_costs(rt.spec)
    sched1 = rt.schedule_for(work_count, matrix=a, costs=costs1)

    def count_kernel():
        counts = np.zeros(a.num_rows)
        col_indices = a.col_indices
        atom_c, tile_c = sched1.charges(costs1)

        def body(ctx):
            for row in sched1.tiles(ctx):
                n = 0
                found = 0
                for nz in sched1.atoms(ctx, row):
                    found += int(b_row_lengths[col_indices[nz]])
                    n += 1
                ctx.charge(n * atom_c + tile_c)
                if n:
                    ctx.atomic_add(counts, row, found)

        return body, lambda: counts.astype(np.int64)

    per_row, stats1 = rt.run_launch(
        sched1,
        costs1,
        COUNT_DECL,
        (a.row_offsets, a.col_indices, b_row_lengths),
        simt=count_kernel,
        extras={"app": "spgemm/count"},
    )

    # ---- Allocation stage (host): prefix-sum the counts, expand. ----
    products = _expand_products(a, b)
    work_compute = WorkSpec.from_counts(per_row, label="spgemm-compute")

    # ---- Pass 2: multiply-accumulate over the products. ----
    costs2 = _compute_costs(rt.spec)
    sched2 = rt.schedule_for(work_compute, matrix=a, costs=costs2)

    def compute_kernel():
        # Product atoms are row-sorted (they inherit A's atom order), so
        # atom ids index the expanded arrays directly; accumulation goes
        # into hashed per-row accumulators -- the GPU's shared-memory
        # hash-table pattern -- so scratch is O(nnz(C row)), never
        # O(num_cols) per row.  ``defaultdict(float)`` keeps the
        # interpreter's atomic read-modify-write semantics intact.
        from collections import defaultdict

        row_acc = [defaultdict(float) for _ in range(a.num_rows)]
        cols, vals = products["cols"], products["vals"]
        atom_c, tile_c = sched2.charges(costs2)

        def body(ctx):
            for row in sched2.tiles(ctx):
                n = 0
                acc = row_acc[row]
                for p in sched2.atoms(ctx, row):
                    ctx.atomic_add(acc, int(cols[p]), vals[p])
                    n += 1
                ctx.charge(n * atom_c + tile_c)

        def finalize() -> CsrMatrix:
            rows_nz: list[np.ndarray] = []
            cols_nz: list[np.ndarray] = []
            vals_nz: list[np.ndarray] = []
            for row, acc in enumerate(row_acc):
                if not acc:
                    continue
                keys = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
                order = np.argsort(keys)
                rows_nz.append(np.full(keys.size, row, dtype=np.int64))
                cols_nz.append(keys[order])
                vals_nz.append(
                    np.fromiter(acc.values(), dtype=np.float64, count=len(acc))[order]
                )
            if not rows_nz:
                return CsrMatrix.empty((a.num_rows, b.num_cols))
            coo = CooMatrix.from_arrays(
                np.concatenate(rows_nz),
                np.concatenate(cols_nz),
                np.concatenate(vals_nz),
                (a.num_rows, b.num_cols),
            )
            return coo_to_csr(coo)

        return body, finalize

    c, stats2 = rt.run_launch(
        sched2,
        costs2,
        COMPUTE_DECL,
        (
            products["rows"], products["cols"], products["vals"],
            a.num_rows, b.num_cols,
        ),
        simt=compute_kernel,
        extras={"app": "spgemm/compute"},
    )

    return AppResult(
        output=c,
        stats=stats1 + stats2,
        schedule=rt.schedule_name(sched1),
        extras={"intermediate_products": int(products["counts_per_atom"].sum())},
    )


def _check(a: CsrMatrix, b: CsrMatrix) -> None:
    if a.num_cols != b.num_rows:
        raise ValueError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )


def _sweep_problem(matrix: CsrMatrix, seed: int) -> SimpleNamespace:
    # Square matrices multiply themselves; a rectangular one forms the
    # Gram product with the smaller output -- A @ A.T when wide, A.T @ A
    # when tall -- so a 65536 x 1 vector squares to 1 x 1, not 65536^2.
    if matrix.num_rows == matrix.num_cols:
        return SimpleNamespace(a=matrix, b=matrix)
    t = csr_transpose(matrix)
    if matrix.num_rows < matrix.num_cols:
        return SimpleNamespace(a=matrix, b=t)
    return SimpleNamespace(a=t, b=matrix)


register_app(
    AppSpec(
        name="spgemm",
        driver=spgemm_driver,
        kernels=(COUNT_DECL, COMPUTE_DECL),
        default_schedule="merge_path",
        oracle=lambda p: spgemm_reference(p.a, p.b),
        sweep_problem=_sweep_problem,
        description="two-pass Gustavson SpGEMM (count, allocate, compute)",
    )
)
