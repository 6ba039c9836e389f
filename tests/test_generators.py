"""Tests for the synthetic matrix generators."""

import hashlib

import numpy as np
import pytest

from repro.sparse import generators as gen


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: gen.uniform_random(50, 50, 4, s),
            lambda s: gen.poisson_random(50, 50, 4.0, s),
            lambda s: gen.power_law(50, 50, 4.0, 2.0, s),
            lambda s: gen.rmat(6, 4, seed=s),
            lambda s: gen.banded(50, 3, s),
            lambda s: gen.single_column(50, 0.5, s),
            lambda s: gen.dense_row_outliers(50, 50, 2, 3, 30, s),
            lambda s: gen.empty_heavy(50, 50, 0.5, 4, s),
        ],
    )
    def test_same_seed_same_matrix(self, factory):
        assert factory(42) == factory(42)

    def test_different_seed_differs(self):
        assert gen.poisson_random(80, 80, 5.0, 1) != gen.poisson_random(80, 80, 5.0, 2)


class TestShapes:
    def test_uniform_exact_degrees(self):
        m = gen.uniform_random(30, 100, 7, seed=0)
        assert np.all(m.row_lengths() == 7)
        assert m.shape == (30, 100)

    def test_uniform_caps_at_cols(self):
        m = gen.uniform_random(10, 3, 9, seed=0)
        assert np.all(m.row_lengths() == 3)

    def test_poisson_mean_close(self):
        m = gen.poisson_random(5000, 5000, 12.0, seed=0)
        assert m.nnz / m.num_rows == pytest.approx(12.0, rel=0.1)

    def test_power_law_is_skewed(self):
        m = gen.power_law(2000, 2000, 8.0, 1.8, seed=0)
        stats = m.degree_stats()
        assert stats["cv"] > 1.0  # heavy tail
        assert stats["max"] > 20 * max(1.0, np.median(m.row_lengths()))

    def test_rmat_dimensions(self):
        m = gen.rmat(7, 4, seed=0)
        assert m.shape == (128, 128)
        assert m.nnz <= 4 * 128  # duplicates merged
        assert m.nnz > 128

    def test_rmat_skew(self):
        m = gen.rmat(10, 8, seed=0)
        assert m.degree_stats()["cv"] > 0.5

    def test_rmat_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            gen.rmat(4, 2, a=0.5, b=0.4, c=0.2)
        with pytest.raises(ValueError, match=">= 0"):
            gen.rmat(4, 2, a=0.6, b=-0.1, c=0.2)

    def test_banded_structure(self):
        m = gen.banded(20, 2, seed=0)
        dense = m.to_dense()
        i, j = np.nonzero(dense)
        assert np.all(np.abs(i - j) <= 2)
        # Interior rows have the full band.
        assert m.row_lengths()[10] == 5

    def test_block_diagonal(self):
        m = gen.block_diagonal(3, 4, seed=0)
        assert m.shape == (12, 12)
        assert m.nnz == 3 * 16
        dense = m.to_dense()
        assert dense[0, 5] == 0  # off-block is empty

    def test_diagonal(self):
        m = gen.diagonal(9, seed=0)
        assert np.all(m.row_lengths() == 1)
        assert np.all(m.col_indices == np.arange(9))

    def test_single_column(self):
        m = gen.single_column(100, 0.5, seed=0)
        assert m.num_cols == 1
        assert np.all(m.col_indices == 0)
        assert 20 < m.nnz < 80

    def test_dense_row_outliers(self):
        m = gen.dense_row_outliers(100, 200, 2, 3, 150, seed=0)
        lengths = np.sort(m.row_lengths())
        assert lengths[-3] == 150
        assert lengths[0] == 2

    def test_empty_heavy(self):
        m = gen.empty_heavy(1000, 1000, 0.9, 8, seed=0)
        assert m.degree_stats()["empty_frac"] == pytest.approx(0.9, abs=0.05)

    def test_random_graph_unit_weights(self):
        m = gen.random_graph_csr(50, 4.0, weighted=False, seed=0)
        assert np.all(m.values == 1.0)

    def test_all_valid_csr(self):
        for m in [
            gen.uniform_random(20, 20, 3, 0),
            gen.power_law(20, 20, 3.0, 2.0, 0),
            gen.rmat(5, 4, seed=0),
            gen.banded(20, 1, 0),
            gen.single_column(20, 0.5, 0),
        ]:
            m.validate()  # must not raise


def _digest(m) -> str:
    h = hashlib.sha256()
    h.update(f"{m.shape}".encode())
    for arr in (m.row_offsets, m.col_indices, m.values):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: Generator outputs outside the corpus's own parameters, as SHA-256 over
#: shape and CSR arrays (dtype + bytes).  Recorded before the one-pass
#: rewrites of ``rmat``, ``banded``, ``block_diagonal`` and
#: ``_fill_from_row_lengths``, which must not move a bit.
PINNED = {
    "banded_bw_eq_rows": (
        lambda: gen.banded(7, 7, 3),
        "b3877fcb8b14b256a2f54ced0b5f9049dea28f3ce6c987bd7ec220278ca559cf",
    ),
    "banded_bw_gt_rows": (
        lambda: gen.banded(6, 20, 1),
        "14a9f62311fd7ce743d1dbea24850db3922b018f98c08d40ab99629e4ed48239",
    ),
    "banded_one_row": (
        lambda: gen.banded(1, 0, 5),
        "c22bace2e125800032d8940adcbb731f62530e13643028e7000d385359dc3a0f",
    ),
    "block_diagonal_1x1": (
        lambda: gen.block_diagonal(1, 1, 0),
        "1bec548ef21d47788ff6d2ff46637fa2cdc1ac59711ef04ddd1a0491336c109f",
    ),
    "block_diagonal_3x5": (
        lambda: gen.block_diagonal(3, 5, 2),
        "f0a064fa3838771901a2fdc9bcfa889e1907133fa3d930874b2482dca7a6dc51",
    ),
    "rmat_scale0": (
        lambda: gen.rmat(0, 8, seed=4),
        "4f5a3436132d78773d9bce79dcc2f313b6fe0dbb7dae72aadaf17b567b442d03",
    ),
    "rmat_scale1": (
        lambda: gen.rmat(1, 8, seed=4),
        "67f5d16aae10709823d3613e7987738b870e84bcec87d5da63dce6a55e75e43e",
    ),
    "rmat_uniform_abc": (
        lambda: gen.rmat(6, 4, a=0.25, b=0.25, c=0.25, seed=3),
        "a2d69907a6c1b6b9667242a0f3f36ed0a13022a75173c010b8c75db11bfdcdb1",
    ),
    "rmat_no_b": (
        lambda: gen.rmat(5, 3, a=0.4, b=0.0, c=0.3, seed=9),
        "ecd77034661a96a032c18384ae9a679bcbc399678949585f0feabc47fd63c301",
    ),
    "uniform_nnz_gt_cols": (
        lambda: gen.uniform_random(8, 3, 9, 11),
        "f3329c0c3c187636483d0d5c6e777dd50db1070c46867d86182141a4150189f8",
    ),
    "uniform_one_col": (
        lambda: gen.uniform_random(5, 1, 4, 2),
        "75a452f0a50716eabf75076e4601dc323dc3e502c16f16d71554efc0ed1548ef",
    ),
    "empty_heavy_all_empty": (
        lambda: gen.empty_heavy(50, 40, 1.0, 4, 6),
        "dbf3e4e25fda19e659872f64bdcd4619dd9d371f9cfef5fe72c17dcacf4f1e5d",
    ),
    "outliers_wider_than_cols": (
        lambda: gen.dense_row_outliers(30, 20, 2, 3, 50, 8),
        "4e202e4fc7fbedf606e545858de30a8e83da862e4aadf43538ed44a8bc0b9fad",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_edge_case_bits_pinned(name):
    factory, want = PINNED[name]
    m = factory()
    m.validate()
    assert _digest(m) == want
