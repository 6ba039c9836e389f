"""Sparse-matrix dense-matrix multiplication: ``C = A @ B`` (Listing 4).

The paper's demonstration of composability: SpMM is SpMV's kernel wrapped
in one extra loop over the columns of the dense matrix B -- the schedule
and the work definition are untouched.  This mirrors Yang et al.'s
observation that merge-path extends from SpMV to SpMM with the same load
balancing; here the extension costs one line instead of a rewrite.
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
    input_matrix,
    register_app,
    run_app,
)
from ..gpusim.arch import GpuSpec
from ..sparse.csr import CsrMatrix
from .common import AppResult, spmv_costs

__all__ = ["spmm", "spmm_reference", "spmm_costs", "spmm_driver"]

#: Dense-column count used when deriving an SpMM sweep problem from a
#: corpus matrix (kept small so corpus sweeps stay proportionate).
SWEEP_B_COLS = 4


def spmm_costs(spec: GpuSpec, n_cols: int) -> WorkCosts:
    """SpMM repeats the SpMV inner product once per B column."""
    base = spmv_costs(spec)
    return WorkCosts(
        atom_cycles=base.atom_cycles * n_cols,
        tile_cycles=base.tile_cycles * n_cols,
        tile_reduction=True,
        # The A value/index loads amortize over B's columns; B-row gathers
        # and C stores scale with them.
        atom_bytes=12.0 + 8.0 * n_cols,
        tile_bytes=4.0 + 8.0 * n_cols,
    )


def _spmm_arrays(row_offsets, col_indices, values, b):
    """The whole SpMM over flat arrays (the engines' vectorized body)."""
    num_rows = row_offsets.shape[0] - 1
    c = np.zeros((num_rows, b.shape[1]))
    row_ids = np.repeat(
        np.arange(num_rows, dtype=np.int64), np.diff(row_offsets)
    )
    np.add.at(c, row_ids, values[:, None] * b[col_indices])
    return c


def _spmm_scalar(row_offsets, col_indices, values, b):
    """Flat-loop SpMM (jit-able); per-entry add order matches the
    scatter-add of :func:`_spmm_arrays` bit-for-bit."""
    num_rows = row_offsets.shape[0] - 1
    n_cols = b.shape[1]
    c = np.zeros((num_rows, n_cols))
    for row in range(num_rows):
        for col in range(n_cols):
            acc = 0.0
            for nz in range(row_offsets[row], row_offsets[row + 1]):
                acc += values[nz] * b[col_indices[nz], col]
            c[row, col] = acc
    return c


def _spmm_example_args() -> tuple:
    offsets = np.array([0, 1, 2], dtype=np.int64)
    cols = np.array([0, 1], dtype=np.int64)
    vals = np.array([1.0, 2.0])
    return offsets, cols, vals, np.ones((2, 2))


SPMM_DECL = KernelDecl(
    "spmm", _spmm_arrays, scalar=_spmm_scalar, example_args=_spmm_example_args
)


def spmm_reference(matrix: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """Pure NumPy oracle: one COO scatter (``bincount`` over each entry's
    row coordinate) per column of B, sharing no code with the kernel
    bodies."""
    b = _check_b(matrix, b)
    rows = np.repeat(
        np.arange(matrix.num_rows, dtype=np.int64), matrix.row_lengths()
    )
    c = np.empty((matrix.num_rows, b.shape[1]))
    for j in range(b.shape[1]):
        c[:, j] = np.bincount(
            rows, weights=matrix.values * b[matrix.col_indices, j],
            minlength=matrix.num_rows,
        )
    return c


def spmm(
    matrix: CsrMatrix,
    b: np.ndarray,
    *,
    ctx=None,
) -> AppResult:
    """Load-balanced SpMM on the simulated GPU.

    ``ctx`` is the execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`).
    """
    b = _check_b(matrix, b)
    problem = SimpleNamespace(matrix=matrix, b=b)
    return run_app("spmm", problem, ctx=ctx)


def spmm_driver(problem, rt: Runtime) -> AppResult:
    """The registered SpMM declaration."""
    matrix, b = problem.matrix, problem.b
    n_cols = b.shape[1]
    work = WorkSpec.from_csr(matrix)
    costs = spmm_costs(rt.spec, n_cols)
    sched = rt.schedule_for(work, matrix=matrix, costs=costs)

    def kernel():
        """Listing 4's kernel: Listing 3 plus a loop over B's columns."""
        c = np.zeros((matrix.num_rows, n_cols))
        values, col_indices = matrix.values, matrix.col_indices
        atom_c, tile_c = sched.charges(costs)
        owns_fully = getattr(sched, "owns_tile_fully", None)

        def body(ctx):
            for row in sched.tiles(ctx):
                atoms = list(sched.atoms(ctx, row))
                # Listing 4: the new loop over B's columns wraps the SpMV body.
                for col in range(n_cols):
                    acc = 0.0
                    for nz in atoms:
                        acc += values[nz] * b[col_indices[nz], col]
                    if owns_fully is not None and owns_fully(ctx, row):
                        c[row, col] = acc
                    else:
                        ctx.atomic_add(c[:, col], row, acc)
                ctx.charge(len(atoms) * atom_c + tile_c)

        return body, lambda: c

    output, stats = rt.run_launch(
        sched,
        costs,
        SPMM_DECL,
        (matrix.row_offsets, matrix.col_indices, matrix.values, b),
        simt=kernel,
        extras={"app": "spmm"},
    )
    return AppResult(output=output, stats=stats, schedule=rt.schedule_name(sched))


def _check_b(matrix: CsrMatrix, b) -> np.ndarray:
    arr = np.ascontiguousarray(b, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != matrix.num_cols:
        raise ValueError(
            f"B must be a dense matrix with {matrix.num_cols} rows, "
            f"got shape {np.shape(b)}"
        )
    return arr


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent sampled dense check: re-derive sampled (row, column)
    entries of C from the CSR slice and B column directly (per-entry
    ``dot``), independent of the oracle's scatter-add."""
    matrix, b = problem.matrix, problem.b
    c = np.asarray(output, dtype=np.float64)
    if c.shape != (matrix.num_rows, b.shape[1]):
        return False
    if matrix.num_rows == 0 or b.shape[1] == 0:  # nothing to sample
        return True
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, matrix.num_rows, size=samples)
    cols = rng.integers(0, b.shape[1], size=samples)
    for r, j in zip(rows, cols):
        lo, hi = matrix.row_offsets[r], matrix.row_offsets[r + 1]
        expected = float(
            np.dot(matrix.values[lo:hi], b[matrix.col_indices[lo:hi], j])
        )
        if not np.isclose(c[r, j], expected, rtol=1e-9, atol=1e-12):
            return False
    return True


register_app(
    AppSpec(
        name="spmm",
        driver=spmm_driver,
        kernels=(SPMM_DECL,),
        default_schedule="merge_path",
        oracle=lambda p: spmm_reference(p.matrix, p.b),
        sweep_problem=lambda matrix, seed: SimpleNamespace(
            matrix=matrix, b=input_matrix(matrix.num_cols, SWEEP_B_COLS, seed)
        ),
        sample_check=_sample_check,
        description="sparse-dense matrix multiply C = A @ B (Listing 4)",
    )
)
