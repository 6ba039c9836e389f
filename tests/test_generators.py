"""Tests for the synthetic matrix generators."""

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
