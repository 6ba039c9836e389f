"""Tests for the worker-resident problem/oracle cache.

The contract: steady-state sweeps of the same grid on a warm
(pid-stable) pool serve every shard's problem *and* oracle from the
bounded :class:`~repro.engine.worker_pool.ProblemCache` instead of
rebuilding them; the cache invalidates on seed and ``validate`` changes,
honours explicit entry/byte budgets with LRU eviction, and surfaces
hit/miss outcomes through ``SweepRow.meta``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SweepExecutor
from repro.engine.worker_pool import (
    PROBLEM_CACHE_BYTES_ENV,
    PROBLEM_CACHE_ENTRIES_ENV,
    ProblemCache,
    clear_problem_cache,
    problem_cache,
)
from repro.evaluation.harness import _ShardTask, _run_shard, run_suite
from repro.sparse.corpus import load_dataset

KERNELS = ["merge_path", "thread_mapped"]


def _key(rows):
    return [(r.app, r.kernel, r.dataset, r.rows, r.cols, r.nnzs, r.elapsed)
            for r in rows]


def _statuses(rows):
    return [r.meta["problem_cache"] for r in rows]


def _kill_worker(_):
    import os

    os._exit(1)


class TestProblemCacheUnit:
    def test_lru_entry_budget(self):
        cache = ProblemCache(max_entries=2, max_bytes=10**9)
        cache.store(("a",), np.zeros(4), None)
        cache.store(("b",), np.zeros(4), None)
        assert cache.lookup(("a",)) is not None  # refresh a
        cache.store(("c",), np.zeros(4), None)  # evicts b, the LRU entry
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is not None
        assert cache.lookup(("c",)) is not None
        assert cache.evictions == 1

    def test_byte_budget_evicts(self):
        one_kb = np.zeros(128)  # 1024 bytes of float64
        cache = ProblemCache(max_entries=100, max_bytes=2 * one_kb.nbytes)
        cache.store(("a",), one_kb, None)
        cache.store(("b",), one_kb.copy(), None)
        assert cache.info()["entries"] == 2
        cache.store(("c",), one_kb.copy(), None)
        info = cache.info()
        assert info["entries"] == 2 and info["bytes"] <= cache.max_bytes
        assert cache.lookup(("a",)) is None  # oldest went first

    def test_oversized_entry_never_cached(self):
        cache = ProblemCache(max_entries=8, max_bytes=64)
        cache.store(("big",), np.zeros(1000), None)
        assert cache.info()["entries"] == 0
        assert cache.lookup(("big",)) is None

    def test_restore_replaces_in_place(self):
        cache = ProblemCache(max_entries=4, max_bytes=10**9)
        cache.store(("a",), np.zeros(4), None)
        cache.store(("a",), np.zeros(8), "oracle")
        assert cache.info()["entries"] == 1
        problem, expected = cache.lookup(("a",))
        assert problem.size == 8 and expected == "oracle"

    def test_byte_estimate_walks_problem_payloads(self):
        from repro.engine.worker_pool import _payload_nbytes

        ds = load_dataset("tiny_power_256", "smoke")
        from repro.engine import get_app

        problem = get_app("spmv").sweep_problem(ds.matrix, 0)
        nbytes = _payload_nbytes(problem)
        # At least the matrix arrays and the x vector are counted.
        assert nbytes >= ds.matrix.nbytes + problem.x.nbytes

    def test_env_budgets(self, monkeypatch):
        monkeypatch.setenv(PROBLEM_CACHE_ENTRIES_ENV, "3")
        monkeypatch.setenv(PROBLEM_CACHE_BYTES_ENV, "12345")
        cache = ProblemCache.from_env()
        assert cache.max_entries == 3 and cache.max_bytes == 12345

    def test_malformed_env_budget_warns_and_uses_default(self, monkeypatch):
        """A tuning typo degrades to the default budget instead of
        crashing every sweep shard."""
        monkeypatch.setenv(PROBLEM_CACHE_ENTRIES_ENV, "64MB")
        monkeypatch.setenv(PROBLEM_CACHE_BYTES_ENV, "1e9")
        with pytest.warns(RuntimeWarning) as record:
            cache = ProblemCache.from_env()
        messages = [str(w.message) for w in record]
        for name in (PROBLEM_CACHE_ENTRIES_ENV, PROBLEM_CACHE_BYTES_ENV):
            assert any(name in m for m in messages), messages
        assert cache.max_entries == ProblemCache.DEFAULT_MAX_ENTRIES
        assert cache.max_bytes == ProblemCache.DEFAULT_MAX_BYTES

    def test_process_singleton(self):
        clear_problem_cache()
        try:
            assert problem_cache() is problem_cache()
        finally:
            clear_problem_cache()


class TestShardCacheKey:
    """_run_shard-level semantics, exercised in-process for determinism."""

    def _task(self, **overrides):
        defaults = dict(
            app="spmv",
            kernels=("merge_path",),
            dataset=load_dataset("tiny_power_256", "smoke"),
            seed=0,
            validate=True,
        )
        defaults.update(overrides)
        return _ShardTask(**defaults)

    def test_hit_on_identical_shard(self):
        clear_problem_cache()
        try:
            first = _run_shard(self._task())
            second = _run_shard(self._task())
            assert _statuses(first) == ["miss"]
            assert _statuses(second) == ["hit"]
            assert _key(first) == _key(second)
        finally:
            clear_problem_cache()

    def test_seed_change_invalidates(self):
        clear_problem_cache()
        try:
            _run_shard(self._task(seed=1))
            rows = _run_shard(self._task(seed=2))
            assert _statuses(rows) == ["miss"]
        finally:
            clear_problem_cache()

    def test_validate_change_invalidates(self):
        """A validate=False entry has no oracle; flipping validate must
        rebuild instead of serving the oracle-less entry."""
        clear_problem_cache()
        try:
            _run_shard(self._task(validate=False))
            rows = _run_shard(self._task(validate=True))
            assert _statuses(rows) == ["miss"]
            # And the validated rows really were validated (would raise).
            assert rows[0].elapsed > 0
        finally:
            clear_problem_cache()

    def test_app_is_part_of_the_key(self):
        clear_problem_cache()
        try:
            _run_shard(self._task())
            rows = _run_shard(self._task(app="histogram",
                                         kernels=("thread_mapped",)))
            assert _statuses(rows) == ["miss"]
        finally:
            clear_problem_cache()

    def test_unfingerprintable_payload_bypasses_the_cache(self, monkeypatch):
        """A payload no codec claims has no content key: the shard runs
        uncached (status 'off') instead of risking a stale identity key."""
        from repro.engine import worker_pool

        monkeypatch.setattr(worker_pool, "_CODECS", {})
        clear_problem_cache()
        try:
            rows = _run_shard(self._task())
            assert _statuses(rows) == ["off"]
            again = _run_shard(self._task())
            assert _statuses(again) == ["off"]
        finally:
            clear_problem_cache()

    def test_counters_surface_in_meta(self):
        clear_problem_cache()
        try:
            _run_shard(self._task())
            rows = _run_shard(self._task())
            meta = rows[0].meta
            assert meta["problem_cache"] == "hit"
            assert meta["problem_cache_hits"] >= 1
            assert meta["problem_cache_misses"] >= 1
        finally:
            clear_problem_cache()


def _exit_with_lock_status():
    import os

    from repro.engine import plan_cache, worker_pool

    free = (
        plan_cache.global_plan_cache()._lock.acquire(blocking=False)
        and worker_pool._PROBLEM_CACHE_LOCK.acquire(blocking=False)
    )
    os._exit(0 if free else 1)


class TestForkSafety:
    def test_forked_child_gets_fresh_cache_locks(self):
        """A lock another parent thread holds at fork time must not stay
        held forever in the child."""
        import multiprocessing

        from repro.engine import plan_cache, worker_pool

        fork = multiprocessing.get_context("fork")
        with plan_cache.global_plan_cache()._lock, worker_pool._PROBLEM_CACHE_LOCK:
            child = fork.Process(target=_exit_with_lock_status)
            child.start()
        child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == 0


class TestSteadyStateSweeps:
    @pytest.fixture(autouse=True)
    def _cold_parent_cache(self):
        # Forked workers drop the parent's entries (see
        # test_forked_worker_starts_with_an_empty_cache); this only keeps
        # each test's in-process entries from reaching the next test.
        clear_problem_cache()
        yield
        clear_problem_cache()

    def test_hit_across_sweeps_on_pid_stable_pool(self):
        """The tentpole: a second sweep on the same warm single-worker
        pool rebuilds no problem and no oracle."""
        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=4,
                              executor="process", pool=pool)
            pids = pool.worker_pids()
            second = run_suite(KERNELS, scale="smoke", limit=4,
                               executor="process", pool=pool)
            assert pool.worker_pids() == pids  # pid-stable: same worker
            assert _key(first) == _key(second)
            assert all(s == "miss" for s in _statuses(first))
            assert all(s == "hit" for s in _statuses(second))
            hits = second[-1].meta["problem_cache_hits"]
            assert hits >= 4  # one per dataset shard

    def test_hits_across_transports(self):
        """The shm publish fingerprint and the pickle-side fingerprint
        are the same content key: a sweep whose publishes are refused
        (payloads pickled into the task) still hits."""
        from repro.faults import clear_faults, configure_faults

        # A fresh executor: a warm one would reuse its published blocks.
        with SweepExecutor(max_workers=1) as pool:
            run_suite(["merge_path"], scale="smoke", limit=3,
                      executor="process", pool=pool)
        configure_faults("shm.publish:drop@*")
        try:
            with SweepExecutor(max_workers=1) as pool:
                run_suite(["merge_path"], scale="smoke", limit=3,
                          executor="process", pool=pool)
                rows = run_suite(["merge_path"], scale="smoke", limit=3,
                                 executor="process", pool=pool)
                assert pool.info()["shm_published"] == 0
        finally:
            clear_faults()
        assert all(s == "hit" for s in _statuses(rows))

    def test_seed_change_misses_on_warm_pool(self):
        with SweepExecutor(max_workers=1) as pool:
            run_suite(["merge_path"], scale="smoke", limit=3,
                      executor="process", pool=pool, seed=7)
            rows = run_suite(["merge_path"], scale="smoke", limit=3,
                             executor="process", pool=pool, seed=8)
            assert all(s == "miss" for s in _statuses(rows))

    def test_respawned_worker_rebuilds_after_crash(self):
        """A fresh worker starts with an empty cache: it rebuilds every
        problem and oracle locally, and its rows match the dead one's."""
        from concurrent.futures.process import BrokenProcessPool

        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(["merge_path"], scale="smoke", limit=3,
                              executor="process", pool=pool)
            with pytest.raises(BrokenProcessPool):
                pool._slots[0].pool.submit(_kill_worker, 0).result()
            second = run_suite(["merge_path"], scale="smoke", limit=3,
                               executor="process", pool=pool)
        assert all(s == "miss" for s in _statuses(first))
        assert all(s == "miss" for s in _statuses(second))
        assert _key(first) == _key(second)

    def test_forked_worker_starts_with_an_empty_cache(self):
        """A worker forked after in-process shards ran must not inherit
        the parent's cache: it never built those problems or oracles."""
        from repro.engine.seeding import DEFAULT_SEED
        from repro.evaluation.harness import expand_datasets

        for dataset in expand_datasets("spmv", scale="smoke", limit=3):
            _run_shard(_ShardTask(app="spmv", kernels=("merge_path",),
                                  dataset=dataset, seed=DEFAULT_SEED,
                                  validate=True))
        with SweepExecutor(max_workers=1) as pool:
            rows = run_suite(["merge_path"], scale="smoke", limit=3,
                             executor="process", pool=pool)
        assert _statuses(rows) == ["miss", "miss", "miss"]

    def test_eviction_under_tiny_budget(self, monkeypatch):
        """With room for one entry, alternating datasets evict each other
        and steady state never materializes -- the budget is honoured and
        every evicted entry is rebuilt locally, rows unchanged."""
        monkeypatch.setenv(PROBLEM_CACHE_ENTRIES_ENV, "1")
        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(["merge_path"], scale="smoke", limit=3,
                              executor="process", pool=pool)
            second = run_suite(["merge_path"], scale="smoke", limit=3,
                               executor="process", pool=pool)
        assert all(s == "miss" for s in _statuses(first))
        # Datasets run in order within the single batch, so every lookup
        # finds the previous dataset's entry instead of its own.
        assert all(s == "miss" for s in _statuses(second))
        assert _key(first) == _key(second)
