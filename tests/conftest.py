"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import LaunchParams
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse.csr import CsrMatrix
from repro.sparse import generators as gen


class FakeCtx:
    """A minimal stand-in for ThreadCtx used by per-thread schedule tests."""

    def __init__(self, gtid: int, num_threads: int, block_dim: int = 8, warp_size: int = 4):
        self.global_thread_id = gtid
        self.num_threads = num_threads
        self.block_dim = block_dim
        self.thread_idx = gtid % block_dim
        self.lane_id = gtid % warp_size
        self.warp_size = warp_size


@pytest.fixture
def fake_ctx_factory():
    return FakeCtx


@pytest.fixture
def v100():
    return V100


@pytest.fixture
def tiny_gpu():
    return TINY_GPU


@pytest.fixture
def small_launch():
    return LaunchParams(grid_dim=4, block_dim=8)


@pytest.fixture
def skewed_matrix() -> CsrMatrix:
    """A small heavy-tailed matrix (the irregular benchmark shape)."""
    return gen.power_law(64, 64, 6.0, 1.8, seed=7)


@pytest.fixture
def uniform_matrix() -> CsrMatrix:
    return gen.uniform_random(64, 64, 4, seed=7)


@pytest.fixture
def empty_matrix() -> CsrMatrix:
    return CsrMatrix.empty((8, 8))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_csr_from_counts(counts, cols=None, seed=0) -> CsrMatrix:
    """Build a CSR matrix with the given row lengths (test helper)."""
    counts = np.asarray(counts, dtype=np.int64)
    ncols = int(cols if cols is not None else max(1, counts.max() if counts.size else 1))
    rng = np.random.default_rng(seed)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    nnz = int(offsets[-1])
    col_indices = rng.integers(0, ncols, size=nnz, dtype=np.int64)
    values = rng.uniform(0.1, 1.0, size=nnz)
    return CsrMatrix.from_arrays(offsets, col_indices, values, (counts.size, ncols))


@pytest.fixture
def csr_from_counts():
    return make_csr_from_counts


#: Declared cost parity of each schedule: the bounds of
#: ``(vector / simt, vector / compiled)`` elapsed.  Each bound is the
#: measured extreme, rounded outward to 0.001, of SpMV on the smoke
#: ``tiny_*`` datasets on TINY_GPU (both ratios) and of every app's smoke
#: sweep on V100 (``vector / compiled``).  A bound of ``(1.0, 1.0)`` means
#: the planner prices exactly the work the engine measures.  Each
#: schedule class's docstring gives the reason for its residual.
PRICE_PARITY = {
    "thread_mapped": ((0.962, 0.985), (1.0, 1.0)),
    "merge_path": ((0.960, 1.009), (0.995, 1.010)),
    "nonzero_split": ((0.973, 1.023), (1.000, 1.029)),
    "warp_mapped": ((0.967, 0.993), (1.000, 1.118)),
    "lrb": ((0.969, 0.994), (1.000, 1.109)),
    "group_mapped": ((1.009, 1.226), (1.000, 1.363)),
    "block_mapped": ((2.526, 4.651), (1.000, 5.094)),
    "dynamic_queue": ((0.106, 0.695), (0.001, 1.004)),
}
