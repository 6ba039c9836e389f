"""Tests for cross-worker oracle/problem payload sharing over shm.

The contract: the first worker to build an oracle publishes it to
shared memory once; every other worker (an evicted cache, a respawned
slot) *attaches* the published copy instead of rebuilding (status
``"attach"``), the parent's directory honours its byte budget with
pin-aware LRU eviction and unlinks every block at shutdown, and all of
it is best-effort -- any failure degrades to a local rebuild, never a
wrong result.
"""

from __future__ import annotations

import pytest

from repro.engine import SweepExecutor
from repro.engine.worker_pool import (
    _unlink_block,
    attach_payload,
    publish_payload,
)
from repro.evaluation.harness import run_suite

KERNELS = ["merge_path"]


def _kill_worker(_):
    import os

    os._exit(1)


def _statuses(rows):
    return [r.meta["problem_cache"] for r in rows]


def _key(rows):
    return [(r.app, r.kernel, r.dataset, r.rows, r.cols, r.nnzs, r.elapsed)
            for r in rows]


class TestPayloadTransport:
    """Oracle-side failure contracts; the codec round trips live in
    ``tests/test_worker_pool.py::TestTransportRoundTrip``."""

    def test_pickle_fallback_round_trip(self):
        payload = {"distances": [0, 1, 3], "source": 0}
        handle = publish_payload(payload)
        assert handle is not None
        try:
            assert handle.codec == "pickle"
            assert attach_payload(handle) == payload
        finally:
            _unlink_block(handle.shm_name)

    def test_attach_vanished_block_returns_none(self):
        handle = publish_payload({"x": 1})
        assert handle is not None
        _unlink_block(handle.shm_name)
        assert attach_payload(handle) is None

    def test_unpublishable_payload_returns_none(self):
        import threading

        assert publish_payload(threading.Lock()) is None  # unpicklable

    def test_unknown_codec_returns_none(self):
        handle = publish_payload({"x": 1})
        assert handle is not None
        try:
            from dataclasses import replace

            bogus = replace(handle, codec="no-such-codec")
            assert attach_payload(bogus) is None
        finally:
            _unlink_block(handle.shm_name)


class TestSharedOracleSweeps:
    def test_evicted_entries_attach_instead_of_rebuilding(self, monkeypatch):
        """With a one-entry local cache, the second sweep misses locally
        on every dataset -- but attaches the published oracles instead
        of rebuilding them."""
        from repro.engine.worker_pool import PROBLEM_CACHE_ENTRIES_ENV

        monkeypatch.setenv(PROBLEM_CACHE_ENTRIES_ENV, "1")
        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=3,
                              executor="process", pool=pool)
            second = run_suite(KERNELS, scale="smoke", limit=3,
                               executor="process", pool=pool)
            assert all(s == "miss" for s in _statuses(first))
            assert all(s == "attach" for s in _statuses(second))
            assert _key(first) == _key(second)
            info = pool.info()
            assert info["oracle_published"] == 3
            assert info["oracle_reused"] >= 3

    def test_respawned_worker_attaches_after_crash(self):
        """A fresh worker (empty local cache) re-attaches every oracle
        the dead worker published, rather than rebuilding."""
        from concurrent.futures.process import BrokenProcessPool

        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=3,
                              executor="process", pool=pool)
            with pytest.raises(BrokenProcessPool):
                pool._slots[0].pool.submit(_kill_worker, 0).result()
            second = run_suite(KERNELS, scale="smoke", limit=3,
                               executor="process", pool=pool)
            assert all(s == "miss" for s in _statuses(first))
            assert all(s == "attach" for s in _statuses(second))
            assert _key(first) == _key(second)

    def test_publish_and_attach_counters_in_row_meta(self):
        from concurrent.futures.process import BrokenProcessPool

        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=2,
                              executor="process", pool=pool)
            assert first[-1].meta["problem_cache_publishes"] == 2
            assert first[-1].meta["problem_cache_attaches"] == 0
            with pytest.raises(BrokenProcessPool):
                pool._slots[0].pool.submit(_kill_worker, 0).result()
            second = run_suite(KERNELS, scale="smoke", limit=2,
                               executor="process", pool=pool)
            assert second[-1].meta["problem_cache_attaches"] == 2

    def test_zero_budget_disables_sharing(self):
        from concurrent.futures.process import BrokenProcessPool

        with SweepExecutor(max_workers=1, oracle_cache_bytes=0) as pool:
            run_suite(KERNELS, scale="smoke", limit=2,
                      executor="process", pool=pool)
            with pytest.raises(BrokenProcessPool):
                pool._slots[0].pool.submit(_kill_worker, 0).result()
            second = run_suite(KERNELS, scale="smoke", limit=2,
                               executor="process", pool=pool)
            assert all(s == "miss" for s in _statuses(second))
            info = pool.info()
            assert info["oracle_published"] == 0
            assert info["oracle_reused"] == 0

    def test_tiny_budget_evicts_cold_blocks(self):
        """A positive-but-tiny budget keeps sharing on, then evicts
        every adopted block as soon as its pins release."""
        with SweepExecutor(max_workers=1, oracle_cache_bytes=1) as pool:
            run_suite(KERNELS, scale="smoke", limit=3,
                      executor="process", pool=pool)
            info = pool.info()
            assert info["oracle_published"] == 3
            assert info["oracle_evicted"] == 3
            assert info["oracle_cached"] == 0

    def test_shutdown_unlinks_published_blocks(self):
        with SweepExecutor(max_workers=1) as pool:
            run_suite(KERNELS, scale="smoke", limit=2,
                      executor="process", pool=pool)
            handles = [
                block.handle for block in pool._oracles._blocks.values()
            ]
            assert handles
        for handle in handles:
            assert attach_payload(handle) is None

    def test_env_budget_knob(self, monkeypatch):
        from repro.engine.worker_pool import SHARED_ORACLE_BYTES_ENV

        monkeypatch.setenv(SHARED_ORACLE_BYTES_ENV, "12345")
        assert SweepExecutor().oracle_cache_bytes == 12345
        monkeypatch.setenv(SHARED_ORACLE_BYTES_ENV, "not-a-number")
        with pytest.warns(RuntimeWarning, match="REPRO_SHARED_ORACLE_BYTES"):
            pool = SweepExecutor()
        assert pool.oracle_cache_bytes == SweepExecutor.DEFAULT_ORACLE_CACHE_BYTES
