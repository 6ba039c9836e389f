"""Synthetic sparse-matrix generators.

The paper evaluates on (approximately) the entire SuiteSparse Matrix
Collection -- ~2,800 matrices, 886 GB on disk.  That corpus is not
available offline, so this module generates matrices spanning the same
structural axes the paper's figures sweep:

* total work (nnz from tens to millions);
* row-degree distribution, from perfectly uniform (regular FEM-like
  meshes) through Poisson to heavy-tailed power laws (web/social graphs),
  which is the axis that determines which load-balancing schedule wins;
* degenerate shapes the paper explicitly discusses: single-column
  matrices (sparse vectors, where CUB's thread-mapped heuristic wins) and
  tiny matrices (where launch overheads dominate cuSparse).

All generators take an explicit seed and are deterministic.
"""

from __future__ import annotations

import numpy as np

from .convert import coo_to_csr, offsets_from_counts
from .coo import CooMatrix
from .csr import CsrMatrix

__all__ = [
    "uniform_random",
    "poisson_random",
    "power_law",
    "rmat",
    "banded",
    "block_diagonal",
    "diagonal",
    "single_column",
    "dense_row_outliers",
    "empty_heavy",
    "random_graph_csr",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _fill_from_row_lengths(
    lengths: np.ndarray, cols: int, rng: np.random.Generator
) -> CsrMatrix:
    """Build a CSR matrix with prescribed per-row nonzero counts.

    Column indices within a row are sampled without replacement when the
    row is sparse relative to ``cols`` (rejection would be cheap), and by
    choice-without-replacement otherwise; values are uniform in (0, 1].
    """
    lengths = np.minimum(np.asarray(lengths, dtype=np.int64), cols)
    offsets = offsets_from_counts(lengths)
    nnz = int(offsets[-1])
    rows = lengths.size
    # Vectorized sampling *with* replacement: duplicate (row, col) entries
    # are legal CSR and every consumer in this library treats them as
    # summed, so exact per-row uniqueness is not required for benchmarking.
    # Sort columns within each row (canonical CSR ordering) as one in-place
    # sort of the key ``row * cols + col``; ``key % cols`` is the column.
    col_indices = np.repeat(np.arange(rows, dtype=np.int64) * cols, lengths)
    col_indices += rng.integers(0, cols, size=nnz, dtype=np.int64)
    col_indices.sort()
    col_indices %= cols
    values = rng.uniform(0.001, 1.0, size=nnz)
    return CsrMatrix.from_arrays(offsets, col_indices, values, (rows, cols))


def uniform_random(rows: int, cols: int, nnz_per_row: int, seed: int = 0) -> CsrMatrix:
    """Every row has exactly ``nnz_per_row`` nonzeros (perfectly balanced)."""
    rng = _rng(seed)
    lengths = np.full(rows, min(nnz_per_row, cols), dtype=np.int64)
    return _fill_from_row_lengths(lengths, cols, rng)


def poisson_random(rows: int, cols: int, mean_nnz: float, seed: int = 0) -> CsrMatrix:
    """Row lengths drawn from a Poisson distribution (mild imbalance)."""
    rng = _rng(seed)
    lengths = rng.poisson(mean_nnz, size=rows).astype(np.int64)
    return _fill_from_row_lengths(lengths, cols, rng)


def power_law(
    rows: int,
    cols: int,
    mean_nnz: float,
    alpha: float = 2.1,
    seed: int = 0,
    max_degree: int | None = None,
) -> CsrMatrix:
    """Heavy-tailed row degrees (Zipf-like), the classic irregular workload.

    ``alpha`` is the power-law exponent; smaller values give heavier tails
    and therefore worse load imbalance for tile-per-thread schedules.
    """
    rng = _rng(seed)
    raw = rng.zipf(alpha, size=rows).astype(np.float64)
    cap = max_degree if max_degree is not None else cols
    raw = np.minimum(raw, cap)
    scale = mean_nnz / max(raw.mean(), 1e-12)
    lengths = np.maximum(0, np.round(raw * scale)).astype(np.int64)
    return _fill_from_row_lengths(np.minimum(lengths, cols), cols, rng)


def rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> CsrMatrix:
    """Recursive-MATrix (R-MAT) graph generator (Graph500-style).

    Produces a ``2**scale`` square matrix with ``edge_factor * 2**scale``
    edges and a skewed degree distribution -- the canonical graph-analytics
    stress test for GPU load balancing.
    """
    if not 0 < a + b + c < 1 or min(a, b, c) < 0:
        raise ValueError("R-MAT needs a, b, c >= 0 and 0 < a+b+c < 1")
    n = 1 << scale
    nnz = edge_factor * n
    rng = _rng(seed)
    rows = np.zeros(nnz, dtype=np.int64)
    cols = np.zeros(nnz, dtype=np.int64)
    for level in range(scale):
        r = rng.uniform(size=nnz)
        # Quadrants a|b over c|d: bottom is c or d, right is b or d.
        bottom = r >= a + b
        right = (r >= a) & ~bottom | (r >= a + b + c)
        bit = 1 << (scale - level - 1)
        cols += right * bit
        rows += bottom * bit
    values = rng.uniform(0.001, 1.0, size=nnz)
    coo = CooMatrix.from_arrays(rows, cols, values, (n, n)).sum_duplicates()
    return coo_to_csr(coo)


def banded(rows: int, bandwidth: int, seed: int = 0) -> CsrMatrix:
    """A banded square matrix (regular stencil-like workload)."""
    rng = _rng(seed)
    r_list = []
    c_list = []
    for off in range(-bandwidth, bandwidth + 1):
        rr = np.arange(max(0, -off), min(rows, rows - off), dtype=np.int64)
        r_list.append(rr)
        c_list.append(rr + off)
    r = np.concatenate(r_list)
    c = np.concatenate(c_list)
    v = rng.uniform(0.001, 1.0, size=r.size)
    coo = CooMatrix.from_arrays(r, c, v, (rows, rows))
    return coo_to_csr(coo)


def block_diagonal(num_blocks: int, block_size: int, seed: int = 0) -> CsrMatrix:
    """Dense blocks on the diagonal (balanced, high nnz/row)."""
    rng = _rng(seed)
    n = num_blocks * block_size
    base = np.arange(block_size, dtype=np.int64)
    r = np.concatenate(
        [b * block_size + np.repeat(base, block_size) for b in range(num_blocks)]
    )
    c = np.concatenate(
        [b * block_size + np.tile(base, block_size) for b in range(num_blocks)]
    )
    v = rng.uniform(0.001, 1.0, size=r.size)
    return coo_to_csr(CooMatrix.from_arrays(r, c, v, (n, n)))


def diagonal(n: int, seed: int = 0) -> CsrMatrix:
    """A diagonal matrix: one atom per tile, the minimal-work extreme."""
    rng = _rng(seed)
    idx = np.arange(n, dtype=np.int64)
    return CsrMatrix.from_arrays(
        np.arange(n + 1, dtype=np.int64),
        idx,
        rng.uniform(0.001, 1.0, size=n),
        (n, n),
    )


def single_column(rows: int, density: float = 0.6, seed: int = 0) -> CsrMatrix:
    """A sparse vector stored as an ``rows x 1`` matrix.

    This is the exact shape for which CUB's SpMV dispatches a specialized
    thread-mapped kernel (paper, Section 6.1) -- included so Figure 2's
    "CUB wins on single-column datasets" behaviour is reproducible.
    """
    rng = _rng(seed)
    mask = rng.uniform(size=rows) < density
    lengths = mask.astype(np.int64)
    offsets = offsets_from_counts(lengths)
    nnz = int(offsets[-1])
    return CsrMatrix.from_arrays(
        offsets,
        np.zeros(nnz, dtype=np.int64),
        rng.uniform(0.001, 1.0, size=nnz),
        (rows, 1),
    )


def dense_row_outliers(
    rows: int,
    cols: int,
    base_nnz: int,
    num_outliers: int,
    outlier_nnz: int,
    seed: int = 0,
) -> CsrMatrix:
    """Mostly short rows plus a few very long ones.

    The worst case for thread-mapped scheduling: a handful of threads
    serialize the whole kernel while their warp-mates idle.
    """
    rng = _rng(seed)
    lengths = np.full(rows, base_nnz, dtype=np.int64)
    outliers = rng.choice(rows, size=min(num_outliers, rows), replace=False)
    lengths[outliers] = outlier_nnz
    return _fill_from_row_lengths(np.minimum(lengths, cols), cols, rng)


def empty_heavy(rows: int, cols: int, frac_empty: float, nnz_per_row: int, seed: int = 0) -> CsrMatrix:
    """Many empty rows (common in graph frontiers and filtered matrices)."""
    rng = _rng(seed)
    lengths = np.full(rows, nnz_per_row, dtype=np.int64)
    empty = rng.uniform(size=rows) < frac_empty
    lengths[empty] = 0
    return _fill_from_row_lengths(np.minimum(lengths, cols), cols, rng)


def random_graph_csr(
    n: int, mean_degree: float, *, weighted: bool = True, seed: int = 0
) -> CsrMatrix:
    """A random directed graph as a square CSR adjacency matrix.

    Edge weights are uniform in (0, 1] (used as SSSP distances); pass
    ``weighted=False`` for unit weights (BFS).
    """
    rng = _rng(seed)
    lengths = rng.poisson(mean_degree, size=n).astype(np.int64)
    csr = _fill_from_row_lengths(np.minimum(lengths, n), n, rng)
    if not weighted:
        csr = CsrMatrix.from_arrays(
            csr.row_offsets, csr.col_indices, np.ones(csr.nnz), csr.shape
        )
    return csr
