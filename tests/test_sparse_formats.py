"""Tests for the sparse formats and conversions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_coo,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    csr_transpose,
    offsets_from_counts,
)
from repro.sparse.coo import CooMatrix, lex_order, sort_keys
from repro.sparse.csc import CscMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse import generators as gen


@st.composite
def random_coo(draw):
    rows = draw(st.integers(1, 20))
    cols = draw(st.integers(1, 20))
    nnz = draw(st.integers(0, 60))
    r = draw(
        st.lists(st.integers(0, rows - 1), min_size=nnz, max_size=nnz)
    )
    c = draw(
        st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz)
    )
    v = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CooMatrix.from_arrays(r, c, v, (rows, cols))


class TestCsr:
    def test_from_dense_roundtrip(self):
        d = np.array([[1.0, 0, 2], [0, 0, 0], [3, 4, 0]])
        m = CsrMatrix.from_dense(d)
        np.testing.assert_array_equal(m.to_dense(), d)
        assert m.nnz == 4
        np.testing.assert_array_equal(m.row_lengths(), [2, 0, 2])

    def test_empty(self):
        m = CsrMatrix.empty((3, 4))
        assert m.nnz == 0
        assert m.to_dense().shape == (3, 4)

    def test_row_slice(self):
        m = CsrMatrix.from_dense(np.array([[0, 5.0], [7.0, 0]]))
        cols, vals = m.row_slice(0)
        np.testing.assert_array_equal(cols, [1])
        np.testing.assert_array_equal(vals, [5.0])
        with pytest.raises(IndexError):
            m.row_slice(2)

    def test_validation_catches_corruption(self):
        with pytest.raises(ValueError, match="row_offsets\\[0\\]"):
            CsrMatrix.from_arrays([1, 2], [0], [1.0], (1, 1))
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix.from_arrays([0, 2, 1], [0, 0], [1.0, 1.0], (2, 1))
        with pytest.raises(ValueError, match="nnz"):
            CsrMatrix.from_arrays([0, 5], [0], [1.0], (1, 1))
        with pytest.raises(ValueError, match="column index"):
            CsrMatrix.from_arrays([0, 1], [7], [1.0], (1, 2))
        with pytest.raises(ValueError, match="same length"):
            CsrMatrix.from_arrays([0, 1], [0], [1.0, 2.0], (1, 1))

    def test_sort_rows(self):
        m = CsrMatrix.from_arrays([0, 3], [2, 0, 1], [1.0, 2.0, 3.0], (1, 3))
        s = m.sort_rows()
        np.testing.assert_array_equal(s.col_indices, [0, 1, 2])
        np.testing.assert_array_equal(s.values, [2.0, 3.0, 1.0])
        np.testing.assert_array_equal(s.to_dense(), m.to_dense())

    def test_transpose_matches_numpy(self):
        m = gen.poisson_random(15, 9, 3.0, seed=4)
        np.testing.assert_allclose(m.transpose().to_dense(), m.to_dense().T)

    def test_degree_stats(self):
        m = CsrMatrix.from_dense(
            np.array([[1.0, 1, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]])
        )
        stats = m.degree_stats()
        assert stats["mean"] == pytest.approx(7 / 4)
        assert stats["max"] == 4
        assert stats["empty_frac"] == pytest.approx(0.25)

    def test_equality(self):
        a = gen.uniform_random(10, 10, 3, seed=5)
        b = gen.uniform_random(10, 10, 3, seed=5)
        c = gen.uniform_random(10, 10, 3, seed=6)
        assert a == b
        assert a != c

    def test_duplicate_entries_accumulate_in_dense(self):
        m = CsrMatrix.from_arrays([0, 2], [1, 1], [2.0, 3.0], (1, 2))
        np.testing.assert_array_equal(m.to_dense(), [[0.0, 5.0]])


class TestCoo:
    def test_sum_duplicates(self):
        coo = CooMatrix.from_arrays([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        s = coo.sum_duplicates()
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense(), [[0, 5.0], [4.0, 0]])

    def test_sorted_by_row(self):
        coo = CooMatrix.from_arrays([1, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
        s = coo.sorted_by_row()
        assert list(s.rows) == [0, 1, 1]
        np.testing.assert_array_equal(s.to_dense(), coo.to_dense())

    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 6)), max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_lex_order_equals_lexsort(self, pairs):
        major = np.array([p[0] for p in pairs], dtype=np.int64)
        minor = np.array([p[1] for p in pairs], dtype=np.int64)
        np.testing.assert_array_equal(
            lex_order(major, minor, (10, 7)), np.lexsort((minor, major))
        )

    @pytest.mark.parametrize("nnz", [0, 1, 2, 3, 1000, 4097])
    @pytest.mark.parametrize(
        "shape", [(5, 3), (1, 1), (3000, 40), (2**31, 2**31)],
        ids=["small", "one_cell", "wide", "packed_key_overflows"],
    )
    def test_lex_order_equals_lexsort_with_duplicates(self, nnz, shape):
        """Random (heavily duplicated) indices: the packed key, nnz 0 and
        1, and the lexsort fallback when the position bits do not fit
        (``2**62`` cells leave one bit for positions)."""
        rng = np.random.default_rng(nnz)
        major = rng.integers(0, min(shape[0], 9), nnz) * (shape[0] // 9 or 1)
        minor = rng.integers(0, min(shape[1], 4), nnz)
        order = lex_order(major, minor, shape)
        np.testing.assert_array_equal(order, np.lexsort((minor, major)))
        assert order.dtype == np.intp

    @pytest.mark.parametrize("nnz", [0, 1, 1000])
    @pytest.mark.parametrize(
        "bound", [7, 2**62], ids=["packed", "argsort_fallback"]
    )
    def test_sort_keys_is_a_stable_argsort(self, nnz, bound):
        """Duplicated keys, in place: ``key`` ends sorted and the order
        is ``argsort(kind="stable")``, packed or not."""
        rng = np.random.default_rng(nnz)
        key = rng.integers(0, 7, nnz) * (bound // 7)
        want = np.argsort(key, kind="stable")
        sorted_key = key.copy()
        np.testing.assert_array_equal(sort_keys(sorted_key, bound), want)
        np.testing.assert_array_equal(sorted_key, key[want])

    def test_lex_order_overflow_falls_back_to_lexsort(self):
        # 2**40 * 2**40 overflows the int64 key, so lexsort must take over.
        rng = np.random.default_rng(3)
        big = np.int64(2**40)
        rows = rng.integers(0, 4, 200) * (big // 4)
        cols = rng.integers(0, 4, 200) * (big // 4) + rng.integers(0, 2, 200)
        order = lex_order(rows, cols, (2**40, 2**40))
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))
        coo = CooMatrix.from_arrays(rows, cols, np.arange(200.0), (2**40, 2**40))
        s = coo.sorted_by_row()
        np.testing.assert_array_equal(s.rows, rows[order])
        np.testing.assert_array_equal(s.cols, cols[order])
        np.testing.assert_array_equal(s.values, order.astype(np.float64))

    def test_validation(self):
        with pytest.raises(ValueError, match="row index"):
            CooMatrix.from_arrays([5], [0], [1.0], (2, 2))
        with pytest.raises(ValueError, match="identical"):
            CooMatrix.from_arrays([0, 1], [0], [1.0], (2, 2))


class TestCsc:
    def test_col_semantics(self):
        d = np.array([[1.0, 0], [2.0, 3.0]])
        csc = csr_to_csc(CsrMatrix.from_dense(d))
        np.testing.assert_array_equal(csc.col_lengths(), [2, 1])
        rows, vals = csc.col_slice(0)
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(csc.to_dense(), d)

    def test_validation(self):
        with pytest.raises(ValueError, match="col_offsets"):
            CscMatrix.from_arrays([0, 1], [0], [1.0], (1, 2))


class TestConversions:
    @given(random_coo())
    @settings(max_examples=40, deadline=None)
    def test_all_paths_preserve_dense(self, coo):
        dense = coo.to_dense()
        np.testing.assert_allclose(coo_to_csr(coo).to_dense(), dense)
        np.testing.assert_allclose(coo_to_csc(coo).to_dense(), dense)
        np.testing.assert_allclose(
            csc_to_csr(coo_to_csc(coo)).to_dense(), dense
        )
        np.testing.assert_allclose(
            csr_to_csc(coo_to_csr(coo)).to_dense(), dense
        )
        np.testing.assert_allclose(
            csc_to_coo(coo_to_csc(coo)).to_dense(), dense
        )
        np.testing.assert_allclose(
            csr_to_coo(coo_to_csr(coo)).to_dense(), dense
        )

    @given(random_coo())
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution(self, coo):
        csr = coo_to_csr(coo)
        np.testing.assert_allclose(
            csr_transpose(csr_transpose(csr)).to_dense(), csr.to_dense()
        )

    def test_offsets_from_counts(self):
        np.testing.assert_array_equal(
            offsets_from_counts([3, 0, 2]), [0, 3, 3, 5]
        )

    def test_against_scipy(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        m = gen.power_law(50, 40, 4.0, seed=9)
        s = scipy_sparse.csr_matrix(
            (m.values, m.col_indices, m.row_offsets), shape=m.shape
        )
        np.testing.assert_allclose(m.to_dense(), s.toarray())
        ours_csc = csr_to_csc(m)
        theirs_csc = s.tocsc()
        np.testing.assert_allclose(ours_csc.to_dense(), theirs_csc.toarray())


def test_csr_to_coo_views_the_csr_read_only():
    csr = gen.poisson_random(30, 20, 3.0, seed=4)
    before = csr.col_indices.copy(), csr.values.copy()
    coo = csr_to_coo(csr)
    for coo_array, csr_array in ((coo.cols, csr.col_indices),
                                 (coo.values, csr.values)):
        assert np.shares_memory(coo_array, csr_array)
        with pytest.raises(ValueError, match="read-only"):
            coo_array[0] = 7
    assert csr.col_indices.flags.writeable and csr.values.flags.writeable
    np.testing.assert_array_equal(csr.col_indices, before[0])
    np.testing.assert_array_equal(csr.values, before[1])
