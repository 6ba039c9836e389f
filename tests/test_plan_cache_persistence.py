"""Tests for the plan cache's persistent (journal-backed) layer.

The disk layer must be *pure acceleration*: version mismatches and
malformed payloads can only ever read as cache misses -- never as an
error, never as a wrong plan.  The journal's own framing (truncation,
CRC damage, concurrent writers, cross-process warm starts) is covered in
``tests/test_plan_store.py``.
"""

from __future__ import annotations

import pytest

from repro.apps.common import spmv_costs
from repro.core.schedule import make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    CACHE_FORMAT_VERSION,
    ExecutionContext,
    PlanCache,
    VectorEngine,
    configure_global_plan_cache,
    global_plan_cache,
    input_vector,
    work_fingerprint,
)
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen


@pytest.fixture
def matrix():
    return gen.power_law(24, 24, 3.0, 1.9, seed=3)


def _sched(matrix):
    return make_schedule("merge_path", WorkSpec.from_csr(matrix), TINY_GPU)


def _plan_once(cache: PlanCache, matrix):
    return cache.plan(_sched(matrix), spmv_costs(TINY_GPU))


def _overwrite_payload(path, matrix, payload) -> None:
    """Append a newer record for the plan's key (newest record wins)."""
    cache = PlanCache(store_path=path)
    key = cache.key_for(_sched(matrix), spmv_costs(TINY_GPU))
    cache.store.put(key, payload)
    cache.store.close()


class TestRoundTrip:
    def test_disk_round_trip_between_cache_instances(self, tmp_path, matrix):
        path = tmp_path / "plans.journal"
        first = PlanCache(store_path=path)
        stats_cold = _plan_once(first, matrix)
        assert first.misses == 1 and first.disk_hits == 0
        assert first.info()["store_records"] == 1
        first.store.close()

        # A brand-new cache (empty memory) over the same journal serves
        # the identical plan from disk.
        second = PlanCache(store_path=path)
        stats_warm = _plan_once(second, matrix)
        assert second.misses == 0
        assert second.hits == 1 and second.disk_hits == 1
        assert stats_warm == stats_cold  # every timing field identical

    def test_disk_hit_promotes_to_memory(self, tmp_path, matrix):
        path = tmp_path / "plans.journal"
        _plan_once(PlanCache(store_path=path), matrix)  # seed the journal
        cache = PlanCache(store_path=path)
        _plan_once(cache, matrix)
        assert cache.disk_hits == 1
        _plan_once(cache, matrix)
        assert cache.hits == 2 and cache.disk_hits == 1  # second hit: memory

    def test_no_store_means_no_files(self, tmp_path, matrix):
        cache = PlanCache()
        _plan_once(cache, matrix)
        assert cache.store_path is None
        assert list(tmp_path.iterdir()) == []


class TestInvalidation:
    def test_version_mismatch_reads_as_miss(self, tmp_path, matrix):
        path = tmp_path / "plans.journal"
        stats = _plan_once(PlanCache(store_path=path), matrix)
        _overwrite_payload(
            path, matrix, {"version": CACHE_FORMAT_VERSION + 1, "stats": stats}
        )

        reader = PlanCache(store_path=path)
        replanned = _plan_once(reader, matrix)
        assert reader.disk_hits == 0 and reader.misses == 1
        assert replanned == stats  # planned live, same pure result

    def test_format_v2_journal_reads_cold(self, tmp_path, matrix):
        """A journal written under format 2 (keyed by the selecting
        policy's token) reads as cold: no error, no stale plan."""
        path = tmp_path / "plans.journal"
        sched, costs = _sched(matrix), spmv_costs(TINY_GPU)
        stats = sched.plan(costs)
        launch = sched.launch
        v2_key = (
            type(sched).__name__, sched.name, launch.grid_dim,
            launch.block_dim, sched.spec, work_fingerprint(sched.work), costs,
            ("fixed", "merge_path"),
        )
        writer = PlanCache(store_path=path)
        for key in (v2_key, writer.key_for(sched, costs)):
            writer.store.put(key, {"version": 2, "stats": stats})
        writer.store.close()

        reader = PlanCache(store_path=path)
        assert _plan_once(reader, matrix) == stats
        assert reader.disk_hits == 0 and reader.misses == 1

    @pytest.mark.parametrize(
        "garbage",
        [["wrong", "shape"], {"version": CACHE_FORMAT_VERSION, "stats": 42}],
        ids=["non-dict", "bad-stats"],
    )
    def test_malformed_payload_falls_through_to_live_plan(
        self, tmp_path, matrix, garbage
    ):
        path = tmp_path / "plans.journal"
        stats = _plan_once(PlanCache(store_path=path), matrix)
        _overwrite_payload(path, matrix, garbage)

        reader = PlanCache(store_path=path)
        replanned = _plan_once(reader, matrix)  # must not raise
        assert reader.disk_hits == 0 and reader.misses == 1
        assert replanned == stats

    def test_torn_journal_tail_falls_through_to_live_plan(self, tmp_path, matrix):
        path = tmp_path / "plans.journal"
        writer = PlanCache(store_path=path)
        stats = _plan_once(writer, matrix)
        writer.store.close()
        with open(path, "r+b") as fh:  # tear the only record mid-payload
            fh.truncate(path.stat().st_size - 5)

        reader = PlanCache(store_path=path)
        replanned = _plan_once(reader, matrix)  # must not raise
        assert reader.disk_hits == 0 and reader.misses == 1
        assert replanned == stats

    def test_clear_keeps_journal_records(self, tmp_path, matrix):
        cache = PlanCache(store_path=tmp_path / "plans.journal")
        _plan_once(cache, matrix)
        cache.clear()
        assert cache.info()["size"] == 0
        assert cache.info()["store_records"] == 1
        _plan_once(cache, matrix)
        assert cache.disk_hits == 1


class TestEngineIntegration:
    def test_vector_engine_persists_and_warm_starts(self, tmp_path, matrix):
        from repro.apps.spmv import spmv

        path = tmp_path / "plans.journal"
        x = input_vector(matrix.num_cols)
        cold = VectorEngine(plan_cache=PlanCache(store_path=path))
        first = spmv(matrix, x, ctx=ExecutionContext(spec=TINY_GPU, engine=cold))
        cold.plan_cache.store.close()

        warm = VectorEngine(plan_cache=PlanCache(store_path=path))
        second = spmv(matrix, x, ctx=ExecutionContext(spec=TINY_GPU, engine=warm))
        assert warm.plan_cache.disk_hits == 1
        assert second.stats == first.stats

    def test_configure_global_plan_cache_round_trips(self, tmp_path):
        path = tmp_path / "plans.journal"
        cache = configure_global_plan_cache(path)
        try:
            assert cache is global_plan_cache()
            assert cache.store_path == path and path.is_file()
            # Leaving store_path unset keeps the current attachment.
            configure_global_plan_cache(maxsize=cache.maxsize)
            assert cache.store_path == path
        finally:
            configure_global_plan_cache(None)
        assert cache.store_path is None
