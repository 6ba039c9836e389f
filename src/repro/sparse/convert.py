"""Format conversions between COO, CSR and CSC.

All conversions are vectorized (stable counting-sort / prefix-sum based,
the same algorithms a GPU library would use) and preserve duplicate
entries; callers wanting canonical matrices should ``sum_duplicates``
first on the COO side.
"""

from __future__ import annotations

import numpy as np

from .coo import CooMatrix, lex_order
from .csc import CscMatrix
from .csr import CsrMatrix

__all__ = [
    "coo_to_csr",
    "csr_to_coo",
    "coo_to_csc",
    "csc_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "csr_transpose",
    "offsets_from_counts",
]


def offsets_from_counts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum turning per-tile counts into offsets."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def coo_to_csr(coo: CooMatrix) -> CsrMatrix:
    s = coo.sorted_by_row()
    counts = np.bincount(s.rows, minlength=s.shape[0]).astype(np.int64)
    offsets = offsets_from_counts(counts)
    return CsrMatrix.from_arrays(offsets, s.cols, s.values, s.shape, validate=False)


def csr_to_coo(csr: CsrMatrix) -> CooMatrix:
    """``cols`` and ``values`` are read-only views of the CSR's arrays."""
    rows = np.repeat(
        np.arange(csr.num_rows, dtype=np.int64), csr.row_lengths()
    )
    cols, values = csr.col_indices.view(), csr.values.view()
    cols.flags.writeable = values.flags.writeable = False
    return CooMatrix.from_arrays(rows, cols, values, csr.shape, validate=False)


def coo_to_csc(coo: CooMatrix) -> CscMatrix:
    order = lex_order(coo.cols, coo.rows, coo.shape[::-1])
    cols = coo.cols[order]
    counts = np.bincount(cols, minlength=coo.shape[1]).astype(np.int64)
    offsets = offsets_from_counts(counts)
    return CscMatrix.from_arrays(
        offsets, coo.rows[order], coo.values[order], coo.shape, validate=False
    )


def csc_to_coo(csc: CscMatrix) -> CooMatrix:
    cols = np.repeat(np.arange(csc.num_cols, dtype=np.int64), csc.col_lengths())
    return CooMatrix.from_arrays(
        csc.row_indices.copy(), cols, csc.values.copy(), csc.shape, validate=False
    )


def csr_to_csc(csr: CsrMatrix) -> CscMatrix:
    return coo_to_csc(csr_to_coo(csr))


def csc_to_csr(csc: CscMatrix) -> CsrMatrix:
    return coo_to_csr(csc_to_coo(csc))


def csr_transpose(csr: CsrMatrix) -> CsrMatrix:
    """Transpose a CSR matrix, returning CSR (rows and cols swapped)."""
    csc = csr_to_csc(csr)
    return CsrMatrix.from_arrays(
        csc.col_offsets,
        csc.row_indices,
        csc.values,
        (csr.num_cols, csr.num_rows),
        validate=False,
    )
