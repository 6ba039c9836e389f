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

Figure 2 compares this against ``repro.apps.spmv(matrix, x,
ctx=ExecutionContext().with_policy("merge_path"))`` on identical work;
the measured delta is the abstraction's overhead.
"""

from __future__ import annotations

import numpy as np

from ..core.schedules.merge_path import merge_path_partition
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.cost_model import KernelStats, kernel_stats_from_warp_cycles
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


def _spmv_atom_cycles(spec: GpuSpec) -> float:
    """Identical per-atom work to the framework's SpMV (same loads + FMA)
    -- the comparison isolates scheduling, not arithmetic."""
    c = spec.costs
    return (
        c.global_load_coalesced
        + c.global_load_coalesced
        + c.global_load_random
        + c.fma
        + c.loop_overhead
    )


def _spmv_tile_cycles(spec: GpuSpec) -> float:
    c = spec.costs
    return c.global_load_coalesced + c.global_store + c.loop_overhead


def _bandwidth_floor(matrix: CsrMatrix, spec: GpuSpec) -> float:
    """Raw DRAM floor -- no abstraction tax for the hardwired kernel."""
    total_bytes = matrix.nnz * 20.0 + matrix.num_rows * 12.0
    return total_bytes / spec.dram_bytes_per_cycle


def _merge_path_stats(matrix: CsrMatrix, spec: GpuSpec) -> KernelStats:
    """Timing of the fused merge-path kernel (no abstraction tax)."""
    num_tiles, num_atoms = matrix.num_rows, matrix.nnz
    total = num_tiles + num_atoms
    n_threads = max(1, -(-total // CUB_ITEMS_PER_THREAD))
    block_dim = min(_BLOCK_DIM, spec.max_threads_per_block)
    block_dim -= block_dim % spec.warp_size
    grid_dim = max(1, -(-n_threads // block_dim))

    diagonals = np.minimum(
        np.arange(n_threads + 1, dtype=np.int64) * CUB_ITEMS_PER_THREAD, total
    )
    tile_bounds, atom_bounds = merge_path_partition(
        matrix.row_offsets, num_atoms, diagonals
    )
    atoms_per_thread = np.diff(atom_bounds).astype(np.float64)
    tiles_per_thread = np.diff(tile_bounds).astype(np.float64)
    c = spec.costs
    ends_mid = (
        atom_bounds[1:]
        > matrix.row_offsets[np.minimum(tile_bounds[1:], num_tiles)]
    ).astype(np.float64)
    per_thread = (
        atoms_per_thread * _spmv_atom_cycles(spec)
        + tiles_per_thread * _spmv_tile_cycles(spec)
        + ends_mid * c.atomic
    )

    ws = spec.warp_size
    warps_per_block = block_dim // ws
    padded = np.zeros(grid_dim * warps_per_block * ws)
    padded[: min(n_threads, per_thread.size)] = per_thread[:n_threads]
    warp_cycles = padded.reshape(grid_dim, warps_per_block, ws).max(axis=2)
    setup = float(np.ceil(np.log2(max(2, total)))) * c.binary_search_step
    return kernel_stats_from_warp_cycles(
        warp_cycles,
        grid_dim,
        block_dim,
        spec,
        total_thread_cycles=float(per_thread.sum()),
        setup_cycles=setup,
        min_body_cycles=_bandwidth_floor(matrix, spec),
        extras={"kernel": "cub", "dispatch": "merge_path"},
    )


def _thread_mapped_spvv_stats(matrix: CsrMatrix, spec: GpuSpec) -> KernelStats:
    """CUB's specialized SpVV kernel: one thread per row, no scheduling."""
    counts = matrix.row_lengths().astype(np.float64)
    block_dim = min(_BLOCK_DIM, spec.max_threads_per_block)
    block_dim -= block_dim % spec.warp_size
    grid_dim = max(1, -(-matrix.num_rows // block_dim))
    n_threads = grid_dim * block_dim

    padded = np.zeros(n_threads)
    padded[: counts.size] = counts
    exists = np.zeros(n_threads)
    exists[: counts.size] = 1.0
    per_thread = padded * _spmv_atom_cycles(spec) + exists * _spmv_tile_cycles(spec)

    ws = spec.warp_size
    warps_per_block = block_dim // ws
    warp_cycles = per_thread.reshape(grid_dim, warps_per_block, ws).max(axis=2)
    return kernel_stats_from_warp_cycles(
        warp_cycles,
        grid_dim,
        block_dim,
        spec,
        total_thread_cycles=float(per_thread.sum()),
        min_body_cycles=_bandwidth_floor(matrix, spec),
        extras={"kernel": "cub", "dispatch": "thread_mapped_spvv"},
    )
