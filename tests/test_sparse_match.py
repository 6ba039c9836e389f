"""Validating CSR outputs without densifying them.

``default_match`` compares two CSR outputs on the union of their
patterns (:meth:`CsrMatrix.allclose`).  It must give dense
``np.allclose``'s verdict on every pair -- differing patterns, explicit
zeros, duplicates, the tolerance edge, empty shapes -- while a
32,000 x 32,000 comparison costs memory in its nonzeros, not its area.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.engine import default_match
from repro.sparse.csr import CsrMatrix

RTOL, ATOL = 1e-9, 1e-12


def _csr(shape, entries):
    """A CSR matrix from ``(row, col, value)`` triples, kept in the given
    order within each row (duplicates and explicit zeros included)."""
    rows = np.array([r for r, _, _ in entries], dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=shape[0]) if entries else np.zeros(
        shape[0], dtype=np.int64
    )
    offsets = np.concatenate([[0], np.cumsum(counts)])
    cols = np.array([c for _, c, _ in entries], dtype=np.int64)[order]
    values = np.array([v for _, _, v in entries], dtype=np.float64)[order]
    return CsrMatrix.from_arrays(offsets, cols, values, shape)


def _dense_verdict(a, b):
    return bool(np.allclose(a.to_dense(), b.to_dense(), rtol=RTOL, atol=ATOL))


EDGE = 1.0 + (ATOL + RTOL * 1.0)

PAIRS = {
    "equal": ((2, 3), [(0, 1, 1.5), (1, 2, -2.0)], [(0, 1, 1.5), (1, 2, -2.0)]),
    "value_differs": ((2, 3), [(0, 1, 1.5)], [(0, 1, 1.6)]),
    "only_left_large": ((2, 3), [(0, 0, 1.0), (1, 1, 3.0)], [(0, 0, 1.0)]),
    "only_right_large": ((2, 3), [(0, 0, 1.0)], [(0, 0, 1.0), (1, 1, 3.0)]),
    "only_left_within_atol": ((2, 3), [(1, 2, 5e-13)], []),
    "only_right_within_atol": ((2, 3), [], [(1, 2, 5e-13)]),
    "only_left_beyond_atol": ((2, 3), [(1, 2, 2e-12)], []),
    "explicit_zero_left": ((3, 3), [(0, 0, 0.0), (2, 2, 4.0)], [(2, 2, 4.0)]),
    "explicit_zero_right": ((3, 3), [(2, 2, 4.0)], [(2, 2, 4.0), (1, 0, 0.0)]),
    "explicit_zero_vs_value": ((3, 3), [(1, 1, 0.0)], [(1, 1, 1e-3)]),
    "duplicates_sum": (
        (2, 4), [(0, 3, 1.0), (0, 1, 2.0), (0, 3, 2.0)], [(0, 1, 2.0), (0, 3, 3.0)]
    ),
    "duplicates_cancel": ((2, 4), [(1, 0, 5.0), (1, 0, -5.0)], []),
    "unsorted_columns": (
        (1, 5), [(0, 4, 1.0), (0, 0, 2.0), (0, 2, 3.0)],
        [(0, 0, 2.0), (0, 2, 3.0), (0, 4, 1.0)],
    ),
    "tolerance_edge": ((1, 2), [(0, 1, EDGE)], [(0, 1, 1.0)]),
    "tolerance_edge_swapped": ((1, 2), [(0, 1, 1.0)], [(0, 1, EDGE)]),
    "just_beyond_tolerance": ((1, 2), [(0, 1, 1.0 + 4 * RTOL)], [(0, 1, 1.0)]),
    "zero_vs_tiny_right": ((1, 1), [(0, 0, 0.0)], [(0, 0, 1e-13)]),
    "inf_equal": ((1, 2), [(0, 0, np.inf)], [(0, 0, np.inf)]),
    "inf_vs_absent": ((1, 2), [(0, 0, np.inf)], []),
    "nan": ((1, 2), [(0, 0, np.nan)], [(0, 0, np.nan)]),
    "empty_0x0": ((0, 0), [], []),
    "empty_0xn": ((0, 7), [], []),
    "empty_nx0": ((4, 0), [], []),
    "empty_1xn": ((1, 6), [], []),
    "row_1xn": ((1, 6), [(0, 5, 2.0), (0, 0, 1.0)], [(0, 0, 1.0), (0, 5, 2.0)]),
    "row_1xn_differs": ((1, 6), [(0, 5, 2.0)], [(0, 4, 2.0)]),
}


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_sparse_match_is_dense_allclose(case):
    shape, left, right = PAIRS[case]
    a, b = _csr(shape, left), _csr(shape, right)
    assert default_match(a, b) == _dense_verdict(a, b)


def test_the_cases_cover_both_verdicts():
    verdicts = {
        _dense_verdict(_csr(shape, left), _csr(shape, right))
        for shape, left, right in PAIRS.values()
    }
    assert verdicts == {True, False}


def test_sparse_match_on_random_pairs():
    """Random small pairs: perturbed, dropped, zeroed and duplicated
    entries all give the dense verdict."""
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        n = int(rng.integers(0, 12))
        entries = [
            (int(rng.integers(shape[0])), int(rng.integers(shape[1])),
             float(rng.choice([0.0, 1.0, -2.5, 1e-13, 3e6])))
            for _ in range(n)
        ]
        other = []
        for r, c, v in entries:
            roll = rng.random()
            if roll < 0.1:
                continue  # dropped
            if roll < 0.2:
                other += [(r, c, v / 2), (r, c, v / 2)]  # split in two
            elif roll < 0.3:
                other.append((r, c, v * (1 + rng.choice([5e-10, 5e-9]))))
            else:
                other.append((r, c, v))
        rng.shuffle(other)
        a, b = _csr(shape, entries), _csr(shape, other)
        expected = _dense_verdict(a, b)
        outcomes.add(expected)
        assert default_match(a, b) == expected
        assert default_match(b, a) == _dense_verdict(b, a)
    assert outcomes == {True, False}


def test_unequal_shapes_do_not_match():
    assert not default_match(_csr((2, 3), []), _csr((3, 2), []))


def test_large_sparse_match_stays_sparse(monkeypatch):
    """A 32,000 x 32,000 pair (7.6 GiB each if densified) compares within
    a memory budget set by its nonzeros."""
    # Densifying would fail here, not allocate 15 GiB first.
    monkeypatch.setattr(CsrMatrix, "to_dense", None)
    n, nnz = 32_000, 200_000
    rng = np.random.default_rng(3)
    counts = rng.multinomial(nnz, np.full(n, 1.0 / n))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    cols = rng.integers(0, n, nnz)
    values = rng.random(nnz)
    a = CsrMatrix.from_arrays(offsets, cols, values, (n, n))
    same = CsrMatrix.from_arrays(offsets, cols, values.copy(), (n, n))
    off = values.copy()
    off[nnz // 2] += 1.0
    differs = CsrMatrix.from_arrays(offsets, cols, off, (n, n))
    tracemalloc.start()
    try:
        assert default_match(a, same)
        assert not default_match(a, differs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
