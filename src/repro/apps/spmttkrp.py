"""Sparse MTTKRP (matricized tensor times Khatri-Rao product).

The tensor kernel of the related work (Nisa et al.; F-COO): for a 3-way
tensor X and factor matrices B (J x R), C (K x R),

    M[i, :] += X[i, j, k] * (B[j, :] * C[k, :])     for every nonzero.

In the abstraction's vocabulary this is *identical in shape* to SpMV:
mode-0 slices are tiles, tensor nonzeros are atoms, and every schedule
in the library applies unchanged -- the whole point of decoupling
mapping from computation (and tensors are among the heaviest-skewed
workloads in practice, so the choice matters).
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
from ..sparse.tensor import SparseTensor3
from .common import AppResult

__all__ = ["spmttkrp", "spmttkrp_reference", "mttkrp_costs", "spmttkrp_driver"]

#: Factor rank used when deriving a sweep problem from a corpus matrix.
SWEEP_RANK = 4


def mttkrp_costs(spec: GpuSpec, rank: int) -> WorkCosts:
    """Per-nonzero: gather B and C rows (R elements each), R FMAs, and an
    accumulation into M's row."""
    c = spec.costs
    return WorkCosts(
        atom_cycles=rank * (2 * c.global_load_random + 2 * c.fma),
        tile_cycles=rank * c.global_store,
        tile_reduction=True,
        atom_bytes=12.0 + 16.0 * rank,  # coords + two factor-row gathers
        tile_bytes=8.0 * rank,  # M row store
    )


def _mttkrp_arrays(slice_offsets, jj, kk, values, b, c):
    """The whole MTTKRP over flat arrays (the engines' vectorized body).

    ``slice_offsets`` is the mode-0 CSR-style extent array; the tensor's
    sortedness invariant makes ``repeat(arange, diff)`` exactly its
    ``i`` coordinates.
    """
    num_slices = slice_offsets.shape[0] - 1
    m = np.zeros((num_slices, b.shape[1]))
    ii = np.repeat(
        np.arange(num_slices, dtype=np.int64), np.diff(slice_offsets)
    )
    np.add.at(m, ii, values[:, None] * b[jj] * c[kk])
    return m


def _mttkrp_scalar(slice_offsets, jj, kk, values, b, c):
    """Flat-loop MTTKRP (jit-able); multiply order ``(v * b) * c`` and
    nz-ascending adds match :func:`_mttkrp_arrays` bit-for-bit."""
    num_slices = slice_offsets.shape[0] - 1
    rank = b.shape[1]
    m = np.zeros((num_slices, rank))
    for i in range(num_slices):
        for nz in range(slice_offsets[i], slice_offsets[i + 1]):
            v = values[nz]
            j = jj[nz]
            k = kk[nz]
            for r in range(rank):
                m[i, r] += v * b[j, r] * c[k, r]
    return m


def _mttkrp_example_args() -> tuple:
    offsets = np.array([0, 1, 2], dtype=np.int64)
    jj = np.array([0, 1], dtype=np.int64)
    kk = np.array([1, 0], dtype=np.int64)
    vals = np.array([1.0, 2.0])
    return offsets, jj, kk, vals, np.ones((2, 2)), np.ones((2, 2))


MTTKRP_DECL = KernelDecl(
    "mttkrp",
    _mttkrp_arrays,
    scalar=_mttkrp_scalar,
    example_args=_mttkrp_example_args,
)


def spmttkrp_reference(
    tensor: SparseTensor3, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Vectorized NumPy oracle: one scatter (``bincount`` over each
    nonzero's ``i`` coordinate) per rank column, sharing no code with the
    kernel bodies, which walk the mode-0 slice extents."""
    b, c = _check_factors(tensor, b, c)
    m = np.empty((tensor.shape[0], b.shape[1]))
    for r in range(b.shape[1]):
        m[:, r] = np.bincount(
            tensor.i,
            weights=tensor.values * b[tensor.j, r] * c[tensor.k, r],
            minlength=tensor.shape[0],
        )
    return m


def spmttkrp(
    tensor: SparseTensor3,
    b: np.ndarray,
    c: np.ndarray,
    *,
    ctx=None,
) -> AppResult:
    """Load-balanced MTTKRP on the simulated GPU.

    ``ctx`` is the execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`).  Its policy may
    name any registered schedule -- including ``nonzero_split``, which
    reproduces F-COO's equal-nonzeros-per-thread behaviour as a
    *schedule* instead of a storage format.
    """
    b, c = _check_factors(tensor, b, c)
    problem = SimpleNamespace(tensor=tensor, b=b, c=c)
    return run_app("spmttkrp", problem, ctx=ctx)


def spmttkrp_driver(problem, rt: Runtime) -> AppResult:
    """The registered MTTKRP declaration.

    The tensor's coordinates are sorted by mode-0 index (the
    :class:`SparseTensor3` invariant), so atom ids index the coordinate
    arrays directly and each slice's atoms form a contiguous range.
    """
    tensor, b, c = problem.tensor, problem.b, problem.c
    b, c = _check_factors(tensor, b, c)
    rank = b.shape[1]
    work = WorkSpec.from_counts(tensor.slice_counts(), label="mttkrp")
    # The mode-0 matricization pattern (slices x J), zero-copy over the
    # tensor's arrays: gives the heuristic policy the shape statistics it
    # needs, same as the matrix apps.
    proxy = CsrMatrix.from_arrays(
        tensor.slice_offsets(),
        tensor.j,
        tensor.values,
        (tensor.shape[0], tensor.shape[1]),
        validate=False,
    )
    costs = mttkrp_costs(rt.spec, rank)
    sched = rt.schedule_for(work, matrix=proxy, costs=costs)

    def kernel():
        m = np.zeros((tensor.shape[0], rank))
        values, jj, kk = tensor.values, tensor.j, tensor.k
        atom_c, tile_c = sched.charges(costs)

        def body(ctx):
            for tile in sched.tiles(ctx):
                acc = np.zeros(rank)
                n = 0
                for nz in sched.atoms(ctx, tile):
                    acc += values[nz] * b[jj[nz]] * c[kk[nz]]
                    n += 1
                ctx.charge(n * atom_c + tile_c)
                if n:
                    # Partial-row accumulation: m[tile] += acc.
                    ctx.atomic_add(m, tile, acc)

        return body, lambda: m

    output, stats = rt.run_launch(
        sched,
        costs,
        MTTKRP_DECL,
        (tensor.slice_offsets(), tensor.j, tensor.k, tensor.values, b, c),
        simt=kernel,
        extras={"app": "spmttkrp"},
    )
    return AppResult(output=output, stats=stats, schedule=rt.schedule_name(sched))


def _check_factors(tensor: SparseTensor3, b, c) -> tuple[np.ndarray, np.ndarray]:
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != tensor.shape[1]:
        raise ValueError(
            f"factor B must be ({tensor.shape[1]} x R), got {b.shape}"
        )
    if c.ndim != 2 or c.shape[0] != tensor.shape[2]:
        raise ValueError(
            f"factor C must be ({tensor.shape[2]} x R), got {c.shape}"
        )
    if b.shape[1] != c.shape[1]:
        raise ValueError(f"factor ranks disagree: {b.shape[1]} vs {c.shape[1]}")
    return b, c


def _sweep_problem(matrix: CsrMatrix | SparseTensor3, seed: int) -> SimpleNamespace:
    """Derive the MTTKRP problem from one corpus entry.

    A native :class:`SparseTensor3` dataset (a *tensor corpus*) is used
    as-is; a CSR matrix is lifted into a 3-way tensor: its sparsity
    pattern supplies (i, j) and the third mode is a deterministic
    function of the coordinates, so the tensor inherits the matrix's
    row-degree skew (the quantity the schedules balance).  Either way
    the deterministic factor matrices come from the tensor's shape and
    the sweep seed.
    """
    if isinstance(matrix, SparseTensor3):
        tensor = matrix
    else:
        depth = max(1, min(32, matrix.num_cols))
        rows = np.repeat(
            np.arange(matrix.num_rows, dtype=np.int64), matrix.row_lengths()
        )
        k = (rows + matrix.col_indices) % depth
        tensor = SparseTensor3.from_arrays(
            rows,
            matrix.col_indices,
            k,
            matrix.values,
            (matrix.num_rows, matrix.num_cols, depth),
        )
    return SimpleNamespace(
        tensor=tensor,
        b=input_matrix(tensor.shape[1], SWEEP_RANK, seed),
        c=input_matrix(tensor.shape[2], SWEEP_RANK, seed + 1),
    )


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent sampled dense check: re-derive sampled (slice, rank)
    entries of M by walking the slice's nonzeros scalar-by-scalar --
    independent of the oracle's vectorized scatter-add."""
    tensor, b, c = problem.tensor, problem.b, problem.c
    m = np.asarray(output, dtype=np.float64)
    rank = b.shape[1]
    if m.shape != (tensor.shape[0], rank):
        return False
    if tensor.shape[0] == 0 or rank == 0:  # nothing to sample
        return True
    offs = tensor.slice_offsets()
    rng = np.random.default_rng(seed)
    slices = rng.integers(0, tensor.shape[0], size=samples)
    ranks = rng.integers(0, rank, size=samples)
    for i, r in zip(slices, ranks):
        lo, hi = int(offs[i]), int(offs[i + 1])
        expected = 0.0
        for nz in range(lo, hi):
            expected += (
                float(tensor.values[nz])
                * float(b[tensor.j[nz], r])
                * float(c[tensor.k[nz], r])
            )
        if not np.isclose(m[i, r], expected, rtol=1e-9, atol=1e-12):
            return False
    return True


register_app(
    AppSpec(
        name="spmttkrp",
        driver=spmttkrp_driver,
        kernels=(MTTKRP_DECL,),
        default_schedule="merge_path",
        oracle=lambda p: spmttkrp_reference(p.tensor, p.b, p.c),
        sweep_problem=_sweep_problem,
        sample_check=_sample_check,
        description="sparse tensor MTTKRP over mode-0 slices",
    )
)
