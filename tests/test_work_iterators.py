"""Tests for the Listing 2 iterator-based WorkSpec constructor."""

import numpy as np
import pytest

from repro.core.iterators import (
    ArrayIterator,
    CountingIterator,
    TransformIterator,
    counting_iterator,
    make_transform_iterator,
)
from repro.core.work import WorkSpec


class TestFromIterators:
    def test_listing1_csr_construction(self):
        """Build a WorkSpec exactly as Listing 1 builds CSR iterators."""
        row_offsets = np.array([0, 2, 2, 7, 9], dtype=np.int64)
        nnz, rows = 9, 4
        atoms_iter = counting_iterator(0)
        tile_iter = counting_iterator(0)
        atoms_per_tile = make_transform_iterator(
            tile_iter, lambda i: row_offsets[i + 1] - row_offsets[i]
        )
        work = WorkSpec.from_iterators(atoms_iter, tile_iter, atoms_per_tile, nnz, rows)
        assert work.num_atoms == 9
        assert work.num_tiles == 4
        np.testing.assert_array_equal(work.tile_offsets, row_offsets)

    def test_array_iterator_counts(self):
        counts = ArrayIterator(np.array([3, 0, 2]))
        work = WorkSpec.from_iterators(
            CountingIterator(0), CountingIterator(0), counts, 5, 3
        )
        np.testing.assert_array_equal(work.atoms_per_tile(), [3, 0, 2])

    def test_scalar_only_iterator_fallback(self):
        """Iterators that reject array indexing still work (slow path)."""

        class ScalarOnly:
            def __getitem__(self, i):
                if isinstance(i, np.ndarray):
                    raise TypeError("scalar only")
                return 2

        work = WorkSpec.from_iterators(
            CountingIterator(0), CountingIterator(0), ScalarOnly(), 8, 4
        )
        np.testing.assert_array_equal(work.atoms_per_tile(), [2, 2, 2, 2])

    def test_count_mismatch_detected(self):
        with pytest.raises(ValueError, match="sums to"):
            WorkSpec.from_iterators(
                CountingIterator(0),
                CountingIterator(0),
                ArrayIterator([1, 1]),
                99,
                2,
            )

    def test_nonzero_based_iterators_rejected(self):
        with pytest.raises(ValueError, match="atom ids from 0"):
            WorkSpec.from_iterators(
                CountingIterator(5), CountingIterator(0), ArrayIterator([1]), 1, 1
            )
        with pytest.raises(ValueError, match="tile ids from 0"):
            WorkSpec.from_iterators(
                CountingIterator(0), CountingIterator(3), ArrayIterator([1]), 1, 1
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            WorkSpec.from_iterators(
                CountingIterator(0), CountingIterator(0), ArrayIterator([1]), -1, 1
            )

    def test_custom_format_end_to_end(self):
        """A user-defined format (ELL-style padded rows) mapped through
        iterators, then run through a real schedule -- the full Section 3.1
        user story."""
        from repro.core.schedule import make_schedule
        from repro.gpusim.arch import V100
        from repro.sparse import generators as gen

        csr = gen.poisson_random(50, 50, 4.0, seed=1)
        # The user's format: one fixed-width row of column ids per matrix
        # row, padded with -1; a row's length is its count of real slots.
        width = int(csr.row_lengths().max())
        padded = np.full((csr.num_rows, width), -1, dtype=np.int64)
        for row in range(csr.num_rows):
            cols = csr.col_indices[csr.row_offsets[row] : csr.row_offsets[row + 1]]
            padded[row, : cols.size] = cols
        lengths = (padded != -1).sum(axis=1)
        assert np.array_equal(lengths, csr.row_lengths())
        work = WorkSpec.from_iterators(
            CountingIterator(0),
            CountingIterator(0),
            TransformIterator(CountingIterator(0), lambda i: lengths[i]),
            int(lengths.sum()),
            padded.shape[0],
        )
        sched = make_schedule("merge_path", work, V100)
        from repro.apps.common import spmv_costs

        assert sched.plan(spmv_costs(V100)).elapsed_ms > 0
