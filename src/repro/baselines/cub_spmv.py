"""Hardwired merge-path SpMV: the CUB comparator of Figure 2.

CUB's ``DeviceSpmv`` (Merrill & Garland) fuses the merge-path scheduling
into the SpMV kernel -- ~503 lines of kernel code that cannot be reused
for any other computation.  This module reproduces that *structure* on the
simulator:

* the merge-path partitioning and traversal are re-implemented here,
  tightly coupled, **bypassing the framework's Schedule/WorkSpec/ranges
  machinery entirely** -- so no abstraction tax is charged;
* CUB's dispatch heuristic is included: a single-column input (a sparse
  vector) takes a specialized thread-mapped kernel with zero
  load-balancing overhead (the one regime where CUB beats the framework
  in Figure 2).

Figure 2 compares this against ``repro.spmv(matrix, x,
ctx=ExecutionContext().with_policy("merge_path"))`` on identical work;
the measured delta is the abstraction's overhead.
"""

from __future__ import annotations

import numpy as np

from ..apps.common import spmv_costs
from ..core.schedules.merge_path import merge_path_partition
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.cost_model import KernelStats, price
from ..sparse.csr import CsrMatrix
from .reference import dense_spmv_oracle

__all__ = ["cub_spmv", "CUB_ITEMS_PER_THREAD"]

#: CUB's merge tile grain (items of the merge decision path per thread).
CUB_ITEMS_PER_THREAD = 8
_BLOCK_DIM = 128


def cub_spmv(
    matrix: CsrMatrix,
    x: np.ndarray,
    spec: GpuSpec = V100,
) -> tuple[np.ndarray, KernelStats]:
    """Hardwired CUB-style SpMV; returns ``(y, stats)``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != matrix.num_cols:
        raise ValueError(
            f"x must have length {matrix.num_cols}, got shape {x.shape}"
        )
    y = dense_spmv_oracle(matrix, x)
    if matrix.num_cols == 1:
        # CUB's dispatch heuristic: single-column matrices (SpVV) go to a
        # trivially balanced thread-mapped kernel with no scheduling cost.
        stats = _thread_mapped_spvv_stats(matrix, spec)
    else:
        stats = _merge_path_stats(matrix, spec)
    return y, stats


def _block_dim(spec: GpuSpec) -> int:
    block_dim = min(_BLOCK_DIM, spec.max_threads_per_block)
    return block_dim - block_dim % spec.warp_size


def _merge_path_stats(matrix: CsrMatrix, spec: GpuSpec) -> KernelStats:
    """Timing of the fused merge-path kernel (no abstraction tax)."""
    num_tiles, num_atoms = matrix.num_rows, matrix.nnz
    total = num_tiles + num_atoms
    n_threads = max(1, -(-total // CUB_ITEMS_PER_THREAD))
    block_dim = _block_dim(spec)
    grid_dim = max(1, -(-n_threads // block_dim))

    diagonals = np.minimum(
        np.arange(n_threads + 1, dtype=np.int64) * CUB_ITEMS_PER_THREAD, total
    )
    tile_bounds, atom_bounds = merge_path_partition(
        matrix.row_offsets, num_atoms, diagonals
    )
    atoms_per_thread = np.diff(atom_bounds).astype(np.float64)
    tiles_per_thread = np.diff(tile_bounds).astype(np.float64)
    # Identical per-atom/per-tile work to the framework's SpMV (same loads
    # + FMA): the comparison isolates scheduling, not arithmetic.
    costs = spmv_costs(spec)
    c = spec.costs
    ends_mid = (
        atom_bounds[1:]
        > matrix.row_offsets[np.minimum(tile_bounds[1:], num_tiles)]
    ).astype(np.float64)
    per_thread = (
        atoms_per_thread * costs.atom_total(spec)
        + tiles_per_thread * (costs.tile_cycles + c.loop_overhead)
        + ends_mid * c.atomic
    )
    return price(
        spec,
        grid_dim,
        block_dim,
        per_thread,
        setup=float(np.ceil(np.log2(max(2, total)))) * c.binary_search_step,
        costs=costs,
        atoms=num_atoms,
        tiles=num_tiles,
        extras={"kernel": "cub", "dispatch": "merge_path"},
    )


def _thread_mapped_spvv_stats(matrix: CsrMatrix, spec: GpuSpec) -> KernelStats:
    """CUB's specialized SpVV kernel: one thread per row, no scheduling."""
    block_dim = _block_dim(spec)
    grid_dim = max(1, -(-matrix.num_rows // block_dim))
    costs = spmv_costs(spec)
    per_thread = np.zeros(grid_dim * block_dim)
    per_thread[: matrix.num_rows] = matrix.row_lengths() * costs.atom_total(
        spec
    ) + (costs.tile_cycles + spec.costs.loop_overhead)
    return price(
        spec,
        grid_dim,
        block_dim,
        per_thread,
        costs=costs,
        atoms=matrix.nnz,
        tiles=matrix.num_rows,
        extras={"kernel": "cub", "dispatch": "thread_mapped_spvv"},
    )
