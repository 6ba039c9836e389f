"""Coordinate (COO) sparse matrices.

COO stores one ``(row, col, value)`` triple per nonzero.  In the paper's
vocabulary it is the format whose atom iterator is trivially the triple
index and whose atoms-per-tile iterator requires a row-pointer build or a
search -- which is why schedules in this framework consume a
:class:`~repro.core.work.WorkSpec` rather than a concrete format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CooMatrix", "lex_order", "sort_keys"]


def sort_keys(key: np.ndarray, bound: int) -> np.ndarray:
    """Stably sort the int64 ``key`` (values in ``[0, bound)``) in place.

    Returns the order: ``np.argsort(key, kind="stable")`` of the keys as
    they were, which ``key`` now holds sorted.  Each key is shifted up to
    make room for its position in the low bits, so every key is unique
    and one unstable sort gives the stable order; a stable argsort stands
    in when the shifted key could overflow int64.
    """
    bits = (key.size - 1).bit_length()
    if bound > 1 << (63 - bits):
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
        return order
    key <<= bits
    key |= np.arange(key.size, dtype=np.int64)
    key.sort()
    order = key & ((1 << bits) - 1)
    key >>= bits
    return order


def lex_order(major: np.ndarray, minor: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.lexsort((minor, major))`` (indices in ``[0, shape)``).

    One :func:`sort_keys` of ``major * shape[1] + minor``; lexsort stands
    in when that key could overflow int64.
    """
    bound = int(shape[0]) * int(shape[1])
    if bound >= 1 << 63:
        return np.lexsort((minor, major))
    key = major * int(shape[1])
    key += minor
    return sort_keys(key, bound)


@dataclass(frozen=True)
class CooMatrix:
    """An immutable COO sparse matrix (triples need not be sorted)."""

    rows: np.ndarray  # (nnz,) int64
    cols: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    shape: tuple[int, int]

    @staticmethod
    def from_arrays(rows, cols, values, shape, *, validate: bool = True) -> "CooMatrix":
        m = CooMatrix(
            rows=np.ascontiguousarray(rows, dtype=np.int64),
            cols=np.ascontiguousarray(cols, dtype=np.int64),
            values=np.ascontiguousarray(values, dtype=np.float64),
            shape=(int(shape[0]), int(shape[1])),
        )
        if validate:
            m.validate()
        return m

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    def validate(self) -> None:
        if not (self.rows.shape == self.cols.shape == self.values.shape):
            raise ValueError("rows, cols and values must have identical shapes")
        if self.rows.ndim != 1:
            raise ValueError("COO arrays must be one-dimensional")
        if self.nnz:
            if self.rows.min() < 0 or self.rows.max() >= self.shape[0]:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.shape[1]:
                raise ValueError("column index out of range")

    def sorted_by_row(self) -> "CooMatrix":
        """Stable sort by (row, col) -- the canonical order for CSR builds."""
        order = lex_order(self.rows, self.cols, self.shape)
        return CooMatrix.from_arrays(
            self.rows[order],
            self.cols[order],
            self.values[order],
            self.shape,
            validate=False,
        )

    def sum_duplicates(self) -> "CooMatrix":
        """Combine duplicate (row, col) entries by summing their values."""
        if self.nnz == 0:
            return self
        s = self.sorted_by_row()
        key_changes = np.empty(s.nnz, dtype=bool)
        key_changes[0] = True
        key_changes[1:] = (np.diff(s.rows) != 0) | (np.diff(s.cols) != 0)
        group_ids = np.cumsum(key_changes) - 1
        # bincount sums each group sequentially from 0.0, as np.add.at does.
        vals = np.bincount(group_ids, weights=s.values)
        first = np.nonzero(key_changes)[0]
        return CooMatrix.from_arrays(
            s.rows[first], s.cols[first], vals, self.shape, validate=False
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CooMatrix(shape={self.shape}, nnz={self.nnz})"
