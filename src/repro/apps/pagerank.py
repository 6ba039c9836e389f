"""PageRank by power iteration over load-balanced SpMV.

Demonstrates kernel *fusion of reuse*: the whole algorithm is repeated
calls of the SpMV primitive already built on the abstraction, so PageRank
inherits every schedule (and the heuristic selector) with zero extra
load-balancing code -- the composability the paper's design goals call
for ("compose new load-balanced primitives from existing APIs").  Since
the SpMV declaration is engine-agnostic, PageRank also inherits every
engine for free: the driver simply re-runs the SpMV driver on the same
runtime every iteration, and its registration lists SpMV's kernel
declaration as its own -- so its race behaviour *is* SpMV's.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..engine import AppSpec, Runtime, register_app, run_app
from ..gpusim.cost_model import KernelStats
from ..sparse.convert import csr_to_coo, csr_transpose
from ..sparse.csr import CsrMatrix
from .common import AppResult
from .spmv import SPMV_DECL, spmv_driver

__all__ = ["pagerank", "pagerank_reference", "pagerank_driver"]


def _pull_matrix(adjacency: CsrMatrix) -> CsrMatrix:
    """Column-normalized transpose: rank flows along in-edges (pull step)."""
    out_deg = adjacency.row_lengths().astype(np.float64)
    inv = np.where(out_deg > 0, 1.0 / np.maximum(out_deg, 1), 0.0)
    row_ids = np.repeat(
        np.arange(adjacency.num_rows, dtype=np.int64), adjacency.row_lengths()
    )
    normalized = CsrMatrix.from_arrays(
        adjacency.row_offsets,
        adjacency.col_indices,
        adjacency.values * 0 + inv[row_ids],
        adjacency.shape,
        validate=False,
    )
    return csr_transpose(normalized)


def pagerank_reference(
    adjacency: CsrMatrix, damping: float = 0.85, tol: float = 1e-10, max_iter: int = 200
) -> np.ndarray:
    """Sparse push-iteration oracle, O(n + nnz) memory.

    Every stored entry ``(u, v)`` (duplicates and explicit zeros count)
    pushes ``rank[u] / outdeg(u)`` to ``v`` through one weighted
    ``bincount`` over the COO pattern; dangling vertices spread their
    rank evenly.  Stops once the L1 change falls under ``tol``, else
    after ``max_iter`` steps.  Shares nothing with the driver: no pull
    matrix, no transpose, no SpMV kernel.
    """
    n = adjacency.num_rows
    coo = csr_to_coo(adjacency)
    out_deg = np.bincount(coo.rows, minlength=n)
    share = 1.0 / out_deg[coo.rows]
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        pushed = np.bincount(coo.cols, weights=rank[coo.rows] * share, minlength=n)
        new = damping * (pushed + rank[dangling].sum() / n) + (1 - damping) / n
        if np.abs(new - rank).sum() < tol:
            return new
        rank = new
    return rank


def pagerank(
    adjacency: CsrMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    ctx=None,
) -> AppResult:
    """Load-balanced PageRank; one SpMV launch per iteration.

    ``ctx`` is the execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`; default schedule:
    ``merge_path``).
    """
    if adjacency.num_rows != adjacency.num_cols:
        raise ValueError("PageRank requires a square adjacency matrix")
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    problem = SimpleNamespace(
        adjacency=adjacency, damping=damping, tol=tol, max_iter=max_iter
    )
    return run_app("pagerank", problem, ctx=ctx)


def pagerank_driver(problem, rt: Runtime) -> AppResult:
    """The registered PageRank declaration: SpMV power iteration."""
    adjacency = problem.adjacency
    damping = getattr(problem, "damping", 0.85)
    tol = getattr(problem, "tol", 1e-10)
    max_iter = getattr(problem, "max_iter", 200)
    if adjacency.num_rows != adjacency.num_cols:
        raise ValueError("PageRank requires a square adjacency matrix")
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = adjacency.num_rows
    pull = _pull_matrix(adjacency)
    dangling = adjacency.row_lengths() == 0
    rank = np.full(n, 1.0 / n)
    steps = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        step = spmv_driver(
            SimpleNamespace(matrix=pull, x=rank, locality=False), rt
        )
        steps.append(step.stats)
        new = damping * (step.output + rank[dangling].sum() / n) + (1 - damping) / n
        delta = float(np.abs(new - rank).sum())
        rank = new
        if delta < tol:
            break
    return AppResult(
        output=rank,
        stats=KernelStats.chain(steps),
        schedule=rt.schedule_label(),
        extras={"iterations": iterations},
    )


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent sampled fixed-point audit over the raw adjacency.

    For sampled vertices the PageRank equation is re-derived from the
    *forward* adjacency arrays (in-contributions found by scanning the
    column indices) -- no pull-matrix transpose, no dense power
    iteration, nothing shared with either the driver or the oracle:

        rank[v] = d * (sum_{u -> v} rank[u] / outdeg[u]
                       + sum_{u dangling} rank[u] / n) + (1 - d) / n

    Plus the global invariants: ranks positive, summing to ~1.
    O(samples * nnz) per call.
    """
    adjacency = problem.adjacency
    damping = getattr(problem, "damping", 0.85)
    n = adjacency.num_rows
    rank = np.asarray(output, dtype=np.float64)
    if rank.shape != (n,) or np.any(rank <= 0):
        return False
    if not np.isclose(rank.sum(), 1.0, rtol=1e-6, atol=1e-9):
        return False
    out_deg = adjacency.row_lengths().astype(np.float64)
    dangling_mass = float(rank[out_deg == 0].sum()) / n
    row_ids = np.repeat(np.arange(n, dtype=np.int64), adjacency.row_lengths())
    rng = np.random.default_rng(seed)
    for v in rng.choice(n, size=min(samples, n), replace=False):
        v = int(v)
        preds = row_ids[adjacency.col_indices == v]
        pulled = float((rank[preds] / out_deg[preds]).sum())
        expected = damping * (pulled + dangling_mass) + (1.0 - damping) / n
        if not np.isclose(rank[v], expected, rtol=1e-4, atol=1e-8):
            return False
    return True


register_app(
    AppSpec(
        name="pagerank",
        driver=pagerank_driver,
        kernels=(SPMV_DECL,),
        default_schedule="merge_path",
        oracle=lambda p: pagerank_reference(
            p.adjacency,
            getattr(p, "damping", 0.85),
            getattr(p, "tol", 1e-10),
            getattr(p, "max_iter", 200),
        ),
        sweep_problem=lambda matrix, seed: SimpleNamespace(
            adjacency=matrix, damping=0.85, tol=1e-8, max_iter=100
        ),
        match=lambda output, expected: bool(
            np.allclose(output, expected, rtol=1e-5, atol=1e-8)
        ),
        accepts=lambda matrix: matrix.num_rows == matrix.num_cols,
        sample_check=_sample_check,
        description="PageRank power iteration composed from SpMV",
    )
)
