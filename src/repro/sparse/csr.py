"""Compressed Sparse Row (CSR) matrices.

CSR is the paper's canonical input format (Listing 1): three arrays --
``row_offsets`` (the extent of each row), ``col_indices`` and ``values``.
In the load-balancing vocabulary, each nonzero is a *work atom*, each row a
*work tile*, and the matrix a *tile set*; ``row_offsets`` doubles as the
exclusive prefix sum of atoms-per-tile that every schedule consumes.

Implemented from scratch on NumPy (no SciPy dependency in library code;
SciPy appears only in tests as an independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import lex_order

__all__ = ["CsrMatrix"]


@dataclass(frozen=True)
class CsrMatrix:
    """An immutable CSR sparse matrix."""

    row_offsets: np.ndarray  # (rows + 1,) int64, non-decreasing
    col_indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    shape: tuple[int, int]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(
        row_offsets,
        col_indices,
        values,
        shape: tuple[int, int],
        *,
        validate: bool = True,
    ) -> "CsrMatrix":
        m = CsrMatrix(
            row_offsets=np.ascontiguousarray(row_offsets, dtype=np.int64),
            col_indices=np.ascontiguousarray(col_indices, dtype=np.int64),
            values=np.ascontiguousarray(values, dtype=np.float64),
            shape=(int(shape[0]), int(shape[1])),
        )
        if validate:
            m.validate()
        return m

    @staticmethod
    def from_dense(dense: np.ndarray) -> "CsrMatrix":
        d = np.asarray(dense, dtype=np.float64)
        if d.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        rows, cols = d.shape
        mask = d != 0
        counts = mask.sum(axis=1)
        offsets = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cidx = np.nonzero(mask)[1].astype(np.int64)
        vals = d[mask]
        return CsrMatrix.from_arrays(offsets, cidx, vals, (rows, cols))

    @staticmethod
    def empty(shape: tuple[int, int]) -> "CsrMatrix":
        return CsrMatrix.from_arrays(
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            shape,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the three CSR arrays (cache budgeting)."""
        return int(
            self.row_offsets.nbytes + self.col_indices.nbytes + self.values.nbytes
        )

    def row_lengths(self) -> np.ndarray:
        """Number of nonzeros in each row (= atoms per tile)."""
        return np.diff(self.row_offsets)

    def row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of one row, as views."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range for {self.num_rows} rows")
        lo, hi = self.row_offsets[row], self.row_offsets[row + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    # ------------------------------------------------------------------
    # Validation & conversion
    # ------------------------------------------------------------------
    def validate(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {self.shape}")
        if self.row_offsets.ndim != 1 or self.row_offsets.size != rows + 1:
            raise ValueError(
                f"row_offsets must have length rows+1={rows + 1}, "
                f"got {self.row_offsets.size}"
            )
        if self.row_offsets[0] != 0:
            raise ValueError("row_offsets[0] must be 0")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if self.row_offsets[-1] != self.col_indices.size:
            raise ValueError(
                f"row_offsets[-1]={self.row_offsets[-1]} does not match "
                f"nnz={self.col_indices.size}"
            )
        if self.values.shape != self.col_indices.shape:
            raise ValueError("values and col_indices must have the same length")
        if self.nnz and (
            self.col_indices.min() < 0 or self.col_indices.max() >= cols
        ):
            raise ValueError("column index out of range")

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.num_rows), self.row_lengths())
        # Duplicate (row, col) entries accumulate, matching sparse semantics.
        np.add.at(out, (rows, self.col_indices), self.values)
        return out

    def allclose(
        self, other: "CsrMatrix", *, rtol: float = 1e-05, atol: float = 1e-08
    ) -> bool:
        """``np.allclose(self.to_dense(), other.to_dense(), rtol, atol)``
        in O(nnz) memory (``False`` on unequal shapes): entries compare on
        the union of both patterns, merged from sorted row-major keys; an
        absent entry is 0 and duplicates add up as in :meth:`to_dense`.
        """
        if self.shape != other.shape:
            return False
        ka, va = self._summed_entries()
        kb, vb = other._summed_entries()
        pos = np.searchsorted(ka, kb)
        hit = pos < ka.size
        hit[hit] = ka[pos[hit]] == kb[hit]
        only_self = np.ones(ka.size, dtype=bool)
        only_self[pos[hit]] = False
        return bool(
            np.allclose(va[pos[hit]], vb[hit], rtol=rtol, atol=atol)
            and np.allclose(va[only_self], 0.0, rtol=rtol, atol=atol)
            and np.allclose(0.0, vb[~hit], rtol=rtol, atol=atol)
        )

    def _summed_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)``: the distinct row-major keys ``row * cols +
        col`` in increasing order, each with its entries' sum."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.row_lengths())
        keys = rows * self.num_cols + self.col_indices
        values = self.values.astype(np.float64, copy=False)
        if keys.size > 1 and not np.all(keys[1:] > keys[:-1]):
            order = lex_order(rows, self.col_indices, self.shape)
            keys, values = keys[order], values[order]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            keys, values = keys[starts], np.add.reduceat(values, starts)
        return keys, values

    def transpose(self) -> "CsrMatrix":
        """Transpose via a stable counting sort on column indices."""
        from .convert import csr_transpose

        return csr_transpose(self)

    def sort_rows(self) -> "CsrMatrix":
        """Return a copy with column indices sorted within each row."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.row_lengths())
        order = lex_order(rows, self.col_indices, self.shape)
        cidx, vals = self.col_indices[order], self.values[order]
        return CsrMatrix.from_arrays(
            self.row_offsets, cidx, vals, self.shape, validate=False
        )

    # ------------------------------------------------------------------
    # Statistics (drive corpus characterization)
    # ------------------------------------------------------------------
    def degree_stats(self) -> dict[str, float]:
        lengths = self.row_lengths().astype(np.float64)
        if lengths.size == 0:
            return {"mean": 0.0, "std": 0.0, "max": 0.0, "cv": 0.0, "empty_frac": 0.0}
        mean = float(lengths.mean())
        std = float(lengths.std())
        return {
            "mean": mean,
            "std": std,
            "max": float(lengths.max()),
            "cv": std / mean if mean > 0 else 0.0,
            "empty_frac": float((lengths == 0).mean()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"cv={self.degree_stats()['cv']:.2f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )
