"""Tests for the merge-path partition (Section 5.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import LaunchParams
from repro.core.schedules.merge_path import MergePathSchedule, merge_path_partition
from repro.core.work import WorkSpec
from repro.gpusim.arch import TINY_GPU, V100

counts_strategy = st.lists(st.integers(0, 30), min_size=0, max_size=80)


def _offsets(counts):
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _reference_partition(offsets, num_atoms, diagonals):
    """Per-diagonal 2-D binary search, one scalar loop per diagonal --
    the search each GPU thread runs, kept as an independent oracle."""
    num_tiles = len(offsets) - 1
    tiles = []
    for d in diagonals:
        lo, hi = max(0, d - num_atoms), min(d, num_tiles)
        while lo < hi:
            mid = (lo + hi) // 2
            if offsets[mid + 1] <= d - mid - 1:
                lo = mid + 1
            else:
                hi = mid
        tiles.append(lo)
    return np.array(tiles, dtype=np.int64), np.asarray(diagonals) - tiles


class TestPartitionFunction:
    def test_endpoints(self):
        offsets = _offsets([2, 3, 1])
        i, j = merge_path_partition(offsets, 6, np.array([0, 9]))
        assert (i[0], j[0]) == (0, 0)
        assert (i[1], j[1]) == (3, 6)  # everything consumed at the last diagonal

    def test_known_small_case(self):
        # rows = [2 atoms, 0 atoms, 1 atom]; merge list A = [2, 2, 3].
        offsets = _offsets([2, 0, 1])
        i, j = merge_path_partition(offsets, 3, np.arange(7))
        # d: 0..6; atoms win ties until a row-end's offset <= atom index.
        assert list(i + j) == list(range(7))
        assert i[-1] == 3 and j[-1] == 3

    def test_out_of_range_diagonal(self):
        with pytest.raises(ValueError):
            merge_path_partition(_offsets([1]), 1, np.array([3]))

    def test_empty_tileset(self):
        i, j = merge_path_partition(np.array([0]), 5, np.array([0, 3, 5]))
        np.testing.assert_array_equal(i, [0, 0, 0])
        np.testing.assert_array_equal(j, [0, 3, 5])

    @given(counts_strategy, st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, counts, ipt):
        offsets = _offsets(counts)
        num_tiles, num_atoms = len(counts), int(offsets[-1])
        total = num_tiles + num_atoms
        diagonals = np.minimum(np.arange(0, total + ipt, ipt), total)
        i, j = merge_path_partition(offsets, num_atoms, diagonals)
        # (1) i + j == d exactly.
        np.testing.assert_array_equal(i + j, diagonals)
        # (2) both coordinates are monotone non-decreasing.
        assert np.all(np.diff(i) >= 0)
        assert np.all(np.diff(j) >= 0)
        # (3) in range.
        assert i[-1] == num_tiles and j[-1] == num_atoms
        # (4) merge-path validity: at split (i, j), all atoms of finished
        # tiles precede j, and the next tile's start is not yet passed.
        for ii, jj in zip(i, j):
            assert offsets[ii] <= jj
            if ii < num_tiles:
                # Not having finished tile ii means its end > jj - else the
                # search would have advanced past it... allow equality when
                # atoms on the diagonal tie (CUB consumes atoms first).
                assert offsets[ii + 1] + ii >= jj + ii - 0  # trivially true
        # (5) per-thread shares are balanced: each thread's combined items
        # equal ipt (except possibly the last).
        shares = np.diff(i) + np.diff(j)
        if shares.size > 1:
            assert np.all(shares[:-1] == ipt)
        if shares.size:
            assert 0 <= shares[-1] <= ipt

    @given(counts_strategy, st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_search(self, counts, data):
        offsets = _offsets(counts)
        num_tiles, num_atoms = len(counts), int(offsets[-1])
        total = num_tiles + num_atoms
        # Always include both ends (d = 0 and d = T + A); empty tiles and
        # T = 0 come from the counts strategy.
        picked = data.draw(st.lists(st.integers(0, total), max_size=40))
        diagonals = np.array([0, total, *picked], dtype=np.int64)
        i, j = merge_path_partition(offsets, num_atoms, diagonals)
        ri, rj = _reference_partition(offsets, num_atoms, diagonals)
        np.testing.assert_array_equal(i, ri)
        np.testing.assert_array_equal(j, rj)

    @pytest.mark.parametrize(
        "counts", [[], [0], [0, 0, 0], [0, 5, 0], [3, 0, 0, 2], [7]]
    )
    def test_edge_cases_match_reference(self, counts):
        offsets = _offsets(counts)
        num_atoms = int(offsets[-1])
        diagonals = np.arange(len(counts) + num_atoms + 1, dtype=np.int64)
        i, j = merge_path_partition(offsets, num_atoms, diagonals)
        ri, rj = _reference_partition(offsets, num_atoms, diagonals)
        np.testing.assert_array_equal(i, ri)
        np.testing.assert_array_equal(j, rj)


class TestMergePathSchedule:
    def test_setup_cost_logarithmic(self):
        w_small = WorkSpec.from_counts([1] * 8)
        w_big = WorkSpec.from_counts([1] * 4096)
        s_small = MergePathSchedule(w_small, V100, LaunchParams(1, 32))
        s_big = MergePathSchedule(w_big, V100, LaunchParams(8, 256))
        from repro.apps.common import spmv_costs

        assert s_small.setup_cycles(spmv_costs(V100)) < s_big.setup_cycles(
            spmv_costs(V100)
        )

    def test_explicit_items_per_thread(self):
        w = WorkSpec.from_counts([3, 3, 3, 3])
        s = MergePathSchedule(
            w, TINY_GPU, LaunchParams(1, 8), items_per_thread=2
        )
        assert s.items_per_thread == 2

    def test_default_launch_sized_by_total_work(self):
        w = WorkSpec.from_counts([10] * 1000)
        launch = MergePathSchedule.default_launch(w, V100)
        total = w.num_atoms + w.num_tiles
        assert launch.num_threads >= total // MergePathSchedule.DEFAULT_ITEMS_PER_THREAD

    def test_block_must_be_warp_aligned(self):
        w = WorkSpec.from_counts([1])
        with pytest.raises(ValueError, match="warp"):
            MergePathSchedule(w, V100, LaunchParams(1, 100))

    def test_balance_insensitive_to_skew(self):
        """The whole point of merge-path: per-thread cycles stay flat no
        matter how skewed the tile sizes are (same total work)."""
        from repro.apps.common import spmv_costs

        uniform = WorkSpec.from_counts([8] * 64)
        skewed_counts = [0] * 63 + [8 * 64]
        skewed = WorkSpec.from_counts(skewed_counts)
        costs = spmv_costs(V100)
        wu = MergePathSchedule(uniform, V100, LaunchParams(2, 64)).cycles(costs)
        wk = MergePathSchedule(skewed, V100, LaunchParams(2, 64)).cycles(costs)
        # Max-to-mean per-thread ratio stays close to 1 for both.
        assert wu.max() / wu.mean() < 1.5
        assert wk.max() / wk.mean() < 1.5
