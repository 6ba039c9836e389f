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

All generators take an explicit seed and are deterministic.  Each writes
its CSR arrays directly, in one pass, with no COO matrix or COO-to-CSR sort
in between; a sweep generates one corpus matrix at a time, so a
generator's temporaries are a sweep's peak memory.
"""

from __future__ import annotations

import numpy as np

from .convert import offsets_from_counts
from .coo import sort_keys
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

    Column indices are drawn uniformly with replacement and values are
    uniform in (0, 1].  Duplicate (row, col) entries are legal CSR and
    every consumer in this library treats them as summed, so exact
    per-row uniqueness is not required for benchmarking.
    """
    lengths = np.minimum(np.asarray(lengths, dtype=np.int64), cols)
    offsets = offsets_from_counts(lengths)
    nnz = int(offsets[-1])
    rows = lengths.size
    # Sort columns within each row (canonical CSR ordering) as one
    # in-place sort of the key ``row * cols + col``; subtracting the
    # row base ``row * cols`` again leaves the column.
    row_base = np.repeat(np.arange(rows, dtype=np.int64) * cols, lengths)
    col_indices = rng.integers(0, cols, size=nnz, dtype=np.int64)
    col_indices += row_base
    col_indices.sort()
    col_indices -= row_base
    del row_base
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
    stress test for GPU load balancing.  Duplicate edges are merged, their
    values summed in draw order.

    Built in one pass: each level draws into one reused buffer and shifts
    its quadrant bit into the row and column arrays in place, and one
    stable sort of the key ``row * 2**scale + col`` orders the edges for
    CSR and lines up their duplicates.
    """
    if not 0 < a + b + c < 1 or min(a, b, c) < 0:
        raise ValueError("R-MAT needs a, b, c >= 0 and 0 < a+b+c < 1")
    n = 1 << scale
    nnz = edge_factor * n
    rng = _rng(seed)
    # Row and column indices fit int32 below scale 32, which halves the
    # level loop's memory traffic.
    index = np.int32 if scale < 32 else np.int64
    rows = np.zeros(nnz, dtype=index)
    cols = np.zeros(nnz, dtype=index)
    r = np.empty(nnz)
    bottom = np.empty(nnz, dtype=bool)
    right = np.empty(nnz, dtype=bool)
    far = np.empty(nnz, dtype=bool)
    for _ in range(scale):
        rng.random(out=r)  # the doubles ``rng.uniform(size=nnz)`` draws
        # Quadrants a|b over c|d: bottom is c or d, right is b or d.  The
        # thresholds are ordered, so "r >= a and not bottom, or r >=
        # a+b+c" is the exclusive-or of the three comparisons.
        np.greater_equal(r, a + b, out=bottom)
        np.greater_equal(r, a, out=right)
        np.greater_equal(r, a + b + c, out=far)
        right ^= bottom
        right ^= far
        # Level ``i`` sets bit ``scale - i - 1``: shift the earlier
        # levels' bits up one and put this level's bit in at the bottom.
        rows <<= 1
        rows |= bottom
        cols <<= 1
        cols |= right
    del r, bottom, right, far
    values = rng.uniform(0.001, 1.0, size=nnz)
    key = rows.astype(np.int64)
    del rows
    key <<= scale
    key |= cols
    del cols
    values = values[sort_keys(key, n * n)]
    # Sum each run of equal keys sequentially from 0.0, as
    # ``CooMatrix.sum_duplicates`` does.
    first = np.empty(nnz, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    values = np.bincount(np.cumsum(first) - 1, weights=values)
    key = key[first]
    offsets = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) << scale)
    key &= n - 1
    return CsrMatrix.from_arrays(offsets, key, values, (n, n))


def banded(rows: int, bandwidth: int, seed: int = 0) -> CsrMatrix:
    """A banded square matrix (regular stencil-like workload).

    Values are drawn diagonal by diagonal, from the lowest; each
    diagonal's values are scattered straight to their CSR slots, with no
    COO sort.
    """
    if bandwidth < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth}")
    rng = _rng(seed)
    row = np.arange(rows, dtype=np.int64)
    first_col = np.maximum(row - bandwidth, 0)
    lengths = np.minimum(row + bandwidth, rows - 1) - first_col + 1
    offsets = offsets_from_counts(lengths)
    nnz = int(offsets[-1])
    # Column ``j`` of row ``i`` sits at ``offsets[i] + j - first_col[i]``.
    slot_of_col0 = offsets[:-1] - first_col
    drawn = rng.uniform(0.001, 1.0, size=nnz)
    col_indices = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz)
    start = 0
    reach = min(bandwidth, rows - 1)
    for off in range(-reach, reach + 1):
        rr = row[max(0, -off):min(rows, rows - off)]
        slots = slot_of_col0[rr] + rr + off
        col_indices[slots] = rr + off
        values[slots] = drawn[start:start + rr.size]
        start += rr.size
    return CsrMatrix.from_arrays(offsets, col_indices, values, (rows, rows))


def block_diagonal(num_blocks: int, block_size: int, seed: int = 0) -> CsrMatrix:
    """Dense blocks on the diagonal (balanced, high nnz/row).

    Values are drawn block by block in row-major order, which is already
    CSR order, so the matrix is emitted directly.
    """
    rng = _rng(seed)
    n = num_blocks * block_size
    offsets = np.arange(n + 1, dtype=np.int64) * block_size
    col_indices = np.tile(np.arange(block_size, dtype=np.int64), n)
    col_indices += np.repeat(
        np.arange(num_blocks, dtype=np.int64) * block_size, block_size * block_size
    )
    values = rng.uniform(0.001, 1.0, size=n * block_size)
    return CsrMatrix.from_arrays(offsets, col_indices, values, (n, n))


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
