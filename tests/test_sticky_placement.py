"""Tests for deterministic sticky placement over worker slots.

The contract: each dataset's content key rendezvous-hashes to a stable
home slot, so repeated sweeps of the same grid land every dataset on the
same worker (and its warm caches); growing the pool moves only the keys
whose new HRW maximum is the added slot; a crashed worker is respawned
in its slot, remapping nothing -- only that slot's datasets see a new
pid.  Every row records its placement in ``meta["placement"]``.
"""

from __future__ import annotations

import pytest

from repro.engine import SweepExecutor, home_slot
from repro.evaluation.harness import run_suite

KERNELS = ["merge_path", "thread_mapped"]
WIDTH = 4
LIMIT = 8


def _kill_worker(_):
    """Simulate a worker crash (module-level: picklable by reference)."""
    import os

    os._exit(1)


def _placements(rows):
    """``dataset name -> (home, slot, mode)`` from the sweep rows."""
    placed = {}
    for row in rows:
        p = row.meta["placement"]
        placed[row.dataset] = (p["home"], p["slot"], p["mode"])
    return placed


def _pids(rows):
    """``dataset name -> executing worker pid`` from the sweep rows."""
    return {row.dataset: row.meta["placement"]["pid"] for row in rows}


class TestHomeSlot:
    def test_deterministic_and_in_range(self):
        keys = [("spmv", ("csr", i), 0, True) for i in range(64)]
        homes = [home_slot(k, WIDTH) for k in keys]
        assert homes == [home_slot(k, WIDTH) for k in keys]
        assert all(0 <= h < WIDTH for h in homes)
        # Rendezvous spreads keys: no slot owns everything.
        assert len(set(homes)) > 1

    def test_width_one_is_always_slot_zero(self):
        assert all(home_slot(("k", i), 1) == 0 for i in range(16))

    def test_growth_remaps_only_to_the_new_slot(self):
        """The HRW property: adding slot N only moves keys whose maximum
        is the new slot -- nothing reshuffles between surviving slots."""
        keys = [("spmv", ("csr", i, i * 31), 7, True) for i in range(256)]
        for width in (2, 3, 4, 7):
            before = {k: home_slot(k, width) for k in keys}
            after = {k: home_slot(k, width + 1) for k in keys}
            moved = {k for k in keys if before[k] != after[k]}
            assert all(after[k] == width for k in moved)
            # Roughly 1/(width+1) of the keys move, never all of them.
            assert 0 < len(moved) < len(keys) // 2


class TestStickyPlacement:
    def test_same_grid_lands_on_same_workers(self):
        """Two sweeps of one grid on a width-4 pool place every dataset
        on the same slot *and the same worker process*."""
        with SweepExecutor(max_workers=WIDTH) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=LIMIT,
                              executor="process", pool=pool)
            second = run_suite(KERNELS, scale="smoke", limit=LIMIT,
                               executor="process", pool=pool)
            assert _placements(first) == _placements(second)
            assert _pids(first) == _pids(second)
            info = pool.info()
            assert info["sticky_shards"] + info["stolen_shards"] == info["shards"]

    def test_placement_metadata_shape(self):
        with SweepExecutor(max_workers=2) as pool:
            rows = run_suite(KERNELS, scale="smoke", limit=4,
                             executor="process", pool=pool)
            pids = pool.worker_pids()
            for row in rows:
                p = row.meta["placement"]
                assert set(p) == {"home", "slot", "mode", "pid"}
                assert p["mode"] in ("sticky", "stolen")
                assert 0 <= p["home"] < pool.width
                assert 0 <= p["slot"] < pool.width
                assert p["pid"] in pids
                if p["mode"] == "sticky":
                    assert p["slot"] == p["home"]

    def test_crash_remaps_only_the_dead_slots_keys(self):
        """After a forced worker crash, the respawned slot gets a new
        pid but every dataset keeps its slot -- and datasets homed on
        surviving slots keep their exact worker process."""
        from concurrent.futures.process import BrokenProcessPool

        with SweepExecutor(max_workers=WIDTH) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=LIMIT,
                              executor="process", pool=pool)
            slots_before = _placements(first)
            pids_before = _pids(first)
            # Kill the worker executing the first dataset's slot.
            victim = slots_before[first[0].dataset][1]
            with pytest.raises(BrokenProcessPool):
                pool._slots[victim].pool.submit(_kill_worker, 0).result()
            second = run_suite(KERNELS, scale="smoke", limit=LIMIT,
                               executor="process", pool=pool)
            assert _placements(second) == slots_before
            pids_after = _pids(second)
            for dataset, (_home, slot, _mode) in slots_before.items():
                if slot == victim:
                    assert pids_after[dataset] != pids_before[dataset]
                else:
                    assert pids_after[dataset] == pids_before[dataset]

    def test_results_match_serial_under_stealing(self):
        """Placement and stealing are invisible in the results."""
        def key(rows):
            return [(r.app, r.kernel, r.dataset, r.elapsed) for r in rows]

        serial = run_suite(KERNELS, scale="smoke", limit=LIMIT,
                           executor="serial")
        with SweepExecutor(max_workers=WIDTH) as pool:
            placed = run_suite(KERNELS, scale="smoke", limit=LIMIT,
                               executor="process", pool=pool)
        assert key(placed) == key(serial)


def _shards(weights):
    """Unstaged shard records with distinct content keys."""
    from repro.engine.worker_pool import _Shard

    return [
        _Shard(task=None, index=i, dataset_key=("dataset", i), weight=w)
        for i, w in enumerate(weights)
    ]


def _layout(placed):
    """``[(slot, (shard index, ...)), ...]`` of an ``_assign`` result."""
    return [(slot, tuple(s.index for s in batch)) for slot, batch in placed]


class TestAssign:
    """The placement pass alone, on synthetic weights (no workers)."""

    @pytest.mark.parametrize("weights", [[3000, 2100], [2100, 3000]])
    def test_two_shard_home_group_cuts_into_two_batches(self, weights):
        """Batching cuts by count, so it cannot depend on which of two
        datasets is the heavier one."""
        placed = SweepExecutor()._assign(_shards(weights), 1)
        assert _layout(placed) == [(0, (0,)), (0, (1,))]

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(8))
    def test_placement_properties(self, width, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 40))
        # Heavy-tailed, like corpus weights: atoms plus a 2000 base.
        weights = (2000 + rng.pareto(1.2, count) * 20_000).astype(int)
        weights = [int(w) for w in weights]
        pool = SweepExecutor()
        shards = _shards(weights)
        placed = pool._assign(shards, width)

        # Every shard placed exactly once, in a batch of its own slot.
        assert sorted(s.index for _, b in placed for s in b) == list(
            range(count))
        for slot, batch in placed:
            assert batch and all(s.slot == slot for s in batch)
        # Homes are the rendezvous homes; sticky means "on its home".
        for shard in shards:
            assert shard.home == home_slot(shard.dataset_key, width)
            mode = shard.placement["mode"]
            assert mode == ("sticky" if shard.slot == shard.home
                            else "stolen")
        # Each slot's shards are cut into at most two batches by count.
        per_slot = {}
        for slot, batch in placed:
            per_slot.setdefault(slot, []).append(len(batch))
        for sizes in per_slot.values():
            assert len(sizes) == min(sum(sizes), pool._BATCHES_PER_SLOT)
            assert max(sizes) - min(sizes) <= 1
        # Deterministic: a fresh copy of the input places the same way.
        assert _layout(pool._assign(_shards(weights), width)) == _layout(
            placed)
        # Balanced, or no single-shard move can narrow the spread.
        loads = [0] * width
        for shard in shards:
            loads[shard.slot] += shard.weight
        mean = sum(loads) / width
        donor = max(range(width), key=loads.__getitem__)
        thief = min(range(width), key=loads.__getitem__)
        lightest = min(s.weight for s in shards if s.slot == donor)
        assert (loads[donor] <= pool._STEAL_FACTOR * mean
                or loads[thief] + lightest >= loads[donor])
