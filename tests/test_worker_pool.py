"""Tests for the persistent sweep executor and shared-memory transport.

The contract: a :class:`SweepExecutor` survives across ``run_suite``
calls and across apps (same worker processes, warm plan caches), shard
batching and the shared-memory dataset transport are invisible in the
results (identical row sets vs serial), and every knob degrades cleanly
(pickle fallback, empty grids, misuse errors).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SweepExecutor, default_executor, shutdown_default_executor
from repro.engine.worker_pool import (
    ArrayBundleHandle,
    ShmCodec,
    attach_dataset,
    dataset_content_key,
    detach,
    publish_dataset,
    register_shm_codec,
)
from repro.evaluation.harness import _ShardTask, run_suite
from repro.sparse.corpus import Dataset, load_dataset
from repro.sparse.tensor import random_tensor

KERNELS = ["merge_path", "thread_mapped"]


def _kill_worker(_):
    """Simulate a worker crash (module-level: picklable by reference)."""
    import os

    os._exit(1)


def _key(rows):
    return [(r.app, r.kernel, r.dataset, r.rows, r.cols, r.nnzs, r.elapsed)
            for r in rows]


@pytest.fixture(scope="module")
def serial_rows():
    return run_suite(KERNELS, scale="smoke", limit=5, executor="serial")


class TestSharedMemoryTransport:
    def test_publish_attach_round_trip(self):
        ds = load_dataset("tiny_power_256", "smoke")
        pub = publish_dataset(ds)
        assert pub is not None
        try:
            assert isinstance(pub.handle, ArrayBundleHandle)
            clone, shm = attach_dataset(pub.handle)
            try:
                assert clone.name == ds.name and clone.family == ds.family
                assert clone.matrix == ds.matrix  # array-equal CSR
            finally:
                del clone
                detach(shm)
        finally:
            pub.unlink()

    def test_non_csr_payload_falls_back_to_pickle(self):
        class NotCsr:
            pass

        from dataclasses import replace

        ds = replace(load_dataset("tiny_diag_32", "smoke"), matrix=NotCsr())
        assert publish_dataset(ds) is None

    def test_shm_rows_equal_pickle_rows(self, serial_rows):
        from repro.faults import clear_faults, configure_faults

        def sweep():
            with SweepExecutor(max_workers=2) as pool:
                rows = run_suite(KERNELS, scale="smoke", limit=5,
                                 executor="process", pool=pool)
                return rows, pool.info()["shm_published"]

        shm, published = sweep()
        assert published == 5
        # A refused publish is the pickle path: payloads travel in the task.
        configure_faults("shm.publish:drop@*")
        try:
            pickled, published = sweep()
        finally:
            clear_faults()
        assert published == 0
        assert _key(shm) == _key(pickled) == _key(serial_rows)

    def test_one_refused_publish_pickles_only_that_payload(self, serial_rows):
        """Staging is per payload: a block that cannot be published
        travels pickled while the rest of the sweep still uses shm."""
        from repro.faults import clear_faults, configure_faults

        configure_faults("shm.publish:drop@1")
        try:
            with SweepExecutor(max_workers=2) as pool:
                rows = run_suite(KERNELS, scale="smoke", limit=5,
                                 executor="process", pool=pool)
                published = pool.info()["shm_published"]
        finally:
            clear_faults()
        assert published == 4
        assert _key(rows) == _key(serial_rows)

    def test_transport_is_not_a_knob(self):
        with pytest.raises(TypeError):
            SweepExecutor(transport="pickle")
        with pytest.raises(TypeError):
            SweepExecutor().map_shards([], transport="pickle")


class TestArrayBundleTransport:
    """The generalized (codec-based) array-bundle handle."""

    def test_tensor_round_trip(self):
        tensor = random_tensor((48, 32, 16), 700, skew=0.8, seed=5)
        ds = Dataset(name="tensor_ds", family="tensor", matrix=tensor,
                     meta={"kind": "coo"})
        pub = publish_dataset(ds)
        assert pub is not None and pub.handle.codec == "tensor3"
        try:
            assert pub.handle.content_key() == dataset_content_key(ds)
            labels = [seg.label for seg in pub.handle.segments]
            assert labels == ["i", "j", "k", "values"]
            clone, shm = attach_dataset(pub.handle)
            try:
                t = clone.matrix
                assert t.shape == tensor.shape
                for a, b in ((t.i, tensor.i), (t.j, tensor.j),
                             (t.k, tensor.k), (t.values, tensor.values)):
                    assert np.array_equal(a, b)
                assert clone.meta == {"kind": "coo"}
            finally:
                del clone, t
                detach(shm)
        finally:
            pub.unlink()

    def test_dense_round_trip(self):
        payload = np.arange(24.0).reshape(4, 6)
        ds = Dataset(name="factors", family="dense", matrix=payload)
        pub = publish_dataset(ds)
        assert pub is not None and pub.handle.codec == "dense"
        try:
            clone, shm = attach_dataset(pub.handle)
            try:
                assert np.array_equal(clone.matrix, payload)
                assert clone.matrix.dtype == payload.dtype
            finally:
                del clone
                detach(shm)
        finally:
            pub.unlink()

    def test_object_dtype_arrays_fall_back_to_pickle(self):
        """Object arrays hold process-local pointers; shipping their raw
        bytes through shm would segfault workers.  No codec may claim
        them -- they must pickle."""
        from repro.engine.worker_pool import shm_codec_for

        payload = np.array([{"a": 1}, [2, 3]], dtype=object)
        assert shm_codec_for(payload) is None
        ds = Dataset(name="objs", family="dense", matrix=payload)
        assert publish_dataset(ds) is None
        assert dataset_content_key(ds) is None

    def test_content_key_tracks_payload_mutation(self):
        a = random_tensor((16, 8, 4), 60, seed=1)
        b = random_tensor((16, 8, 4), 60, seed=2)
        key_a = dataset_content_key(Dataset(name="t", family="f", matrix=a))
        key_b = dataset_content_key(Dataset(name="t", family="f", matrix=b))
        assert key_a != key_b  # same name/shape, different content

    def test_duplicate_codec_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_shm_codec(ShmCodec(
                name="csr", matches=lambda p: False,
                pack=lambda p: ([], {}), unpack=lambda a, e: None,
            ))

    def test_publish_failure_closes_and_unlinks_the_block(self, monkeypatch):
        """Regression: a failure while filling an already-created block
        must not leak the block until interpreter exit."""
        from multiprocessing import shared_memory as real_shared_memory
        from types import SimpleNamespace

        from repro.engine import worker_pool

        created = []

        class RecordingSharedMemory(real_shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        monkeypatch.setattr(
            worker_pool, "_shared_memory",
            lambda: SimpleNamespace(SharedMemory=RecordingSharedMemory),
        )

        class Unfillable:
            pass

        # Structured arrays survive packing (they are ndarrays) but
        # their ``dtype.str`` collapses to a void type the fill cannot
        # cast into: the copy raises *after* the block was created --
        # the dtype-mismatch-during-fill case from the bug report.
        codec = ShmCodec(
            name="unfillable-test",
            matches=lambda p: isinstance(p, Unfillable),
            pack=lambda p: (
                [("data", np.zeros(4, dtype=[("a", "f8"), ("b", "i4")]))], {}
            ),
            unpack=lambda a, e: None,
        )
        register_shm_codec(codec)
        try:
            ds = Dataset(name="broken", family="test", matrix=Unfillable())
            with pytest.raises(TypeError):
                publish_dataset(ds)
            assert len(created) == 1  # the block really was created...
            with pytest.raises(FileNotFoundError):
                # ... and is gone: attaching by name finds nothing, so
                # nothing leaked for the resource tracker to reap.
                real_shared_memory.SharedMemory(name=created[0])
        finally:
            worker_pool._SHM_CODECS.pop("unfillable-test", None)


class TestSweepExecutor:
    def test_pool_persists_across_sweeps_and_apps(self, serial_rows):
        with SweepExecutor(max_workers=2) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=5,
                              executor="process", pool=pool)
            pids_after_first = pool.worker_pids()
            second = run_suite(KERNELS, scale="smoke", limit=5,
                               executor="process", pool=pool)
            other_app = run_suite(["thread_mapped"], app="histogram",
                                  scale="smoke", limit=3,
                                  executor="process", pool=pool)
            pids_after_third = pool.worker_pids()

            assert _key(first) == _key(second) == _key(serial_rows)
            assert len(other_app) == 3
            # Same worker processes served all three sweeps: the pool was
            # spawned once and kept.
            assert pool.pool_spawns == 1
            assert pids_after_first == pids_after_third
            assert pool.sweeps == 3
        assert not pool.alive  # context exit tears the pool down

    def test_lazy_spawn(self):
        pool = SweepExecutor(max_workers=1)
        assert not pool.alive
        assert pool.map_shards([]) == []
        assert not pool.alive  # empty work never spawns
        pool.shutdown()

    def test_batching_preserves_shard_order(self, serial_rows):
        # One batch per crossing: force everything through a single batch
        # and through many batches; both must match serial ordering.
        for batch_atoms in (1, 10**9):
            with SweepExecutor(max_workers=2, batch_atoms=batch_atoms) as pool:
                rows = run_suite(KERNELS, scale="smoke", limit=5,
                                 executor="process", pool=pool)
                assert _key(rows) == _key(serial_rows)

    def test_batches_fewer_crossings_than_shards(self):
        tasks = [
            _ShardTask(app="spmv", kernels=("merge_path",),
                       dataset=load_dataset(name, "smoke"))
            for name in ["tiny_diag_32", "tiny_uniform_64", "tiny_band_128",
                         "tiny_power_256", "tiny_poisson_512"]
        ]
        with SweepExecutor(max_workers=2) as pool:
            per_shard = pool.map_shards(tasks)
            assert len(per_shard) == len(tasks)
            assert [rows[0].dataset for rows in per_shard] == [
                t.dataset.name for t in tasks
            ]
            # Small datasets shared crossings: strictly fewer batches
            # than shards (the whole point of batching).
            assert 0 < pool.batches < len(tasks)

    def test_broken_pool_respawns_on_next_sweep(self, serial_rows):
        """A crashed worker poisons a ProcessPoolExecutor forever; the
        executor must replace it instead of failing every later sweep."""
        from concurrent.futures.process import BrokenProcessPool

        with SweepExecutor(max_workers=1) as pool:
            first = run_suite(KERNELS, scale="smoke", limit=5,
                              executor="process", pool=pool)
            with pytest.raises(BrokenProcessPool):
                list(pool._slots[0].pool.map(_kill_worker, [0]))
            recovered = run_suite(KERNELS, scale="smoke", limit=5,
                                  executor="process", pool=pool)
            assert _key(first) == _key(recovered) == _key(serial_rows)
            assert pool.pool_spawns == 2  # one respawn, not one per sweep

    def test_pool_grows_to_new_high_water_width(self):
        tasks = [
            _ShardTask(app="spmv", kernels=("merge_path",),
                       dataset=load_dataset("tiny_diag_32", "smoke")),
            _ShardTask(app="spmv", kernels=("merge_path",),
                       dataset=load_dataset("tiny_uniform_64", "smoke")),
        ]
        with SweepExecutor(max_workers=1) as pool:
            pool.map_shards(tasks)
            assert pool.width == 1
            pool.max_workers = 2  # what default_executor(max_workers=2) does
            pool.map_shards(tasks)
            assert pool.width == 2 and pool.pool_spawns == 2
            pool.max_workers = 1  # never shrinks a warm pool
            pool.map_shards(tasks)
            assert pool.width == 2 and pool.pool_spawns == 2

    def test_worker_exceptions_propagate(self):
        with SweepExecutor(max_workers=1) as pool:
            bad = _ShardTask(app="no-such-app", kernels=("merge_path",),
                             dataset=load_dataset("tiny_diag_32", "smoke"))
            with pytest.raises(KeyError, match="no-such-app"):
                pool.map_shards(bad for _ in range(1))


class TestDefaultExecutor:
    def test_sweeps_reuse_module_default(self, serial_rows):
        shutdown_default_executor()
        try:
            a = run_suite(KERNELS, scale="smoke", limit=5,
                          executor="process", pool=default_executor(2))
            b = run_suite(KERNELS, scale="smoke", limit=5,
                          executor="process", pool=default_executor())
            assert _key(a) == _key(b) == _key(serial_rows)
            pool = default_executor()
            assert pool.pool_spawns == 1 and pool.sweeps == 2
        finally:
            shutdown_default_executor()

    def test_default_executor_is_a_singleton(self):
        shutdown_default_executor()
        try:
            assert default_executor() is default_executor()
        finally:
            shutdown_default_executor()

    def test_shutdown_forgets_the_singleton(self):
        first = default_executor()
        shutdown_default_executor()
        assert default_executor() is not first
        shutdown_default_executor()


class TestWorkerPersistenceScoping:
    def test_knobless_sweep_detaches_previous_sweep_target(self, tmp_path):
        """A persistent worker must not keep writing plans to the
        previous sweep's (possibly temporary) journal once a later sweep
        carries no plan store."""
        from repro.engine import ExecutionContext, clear_plan_cache

        store = tmp_path / "plans.journal"
        # Forked workers inherit the parent's in-memory plan cache;
        # start it cold so the first sweep demonstrably writes to disk.
        clear_plan_cache()
        with SweepExecutor(max_workers=1) as pool:
            run_suite(["merge_path"], scale="smoke", limit=3,
                      executor="process", pool=pool,
                      ctx=ExecutionContext(plan_store=str(store)))
            size_after_first = store.stat().st_size
            assert size_after_first > 0  # the first sweep did persist here
            # Different kernel => different plans; no store => the worker
            # must fall back to ambient (here: none), not the old journal.
            run_suite(["lrb"], scale="smoke", limit=3,
                      executor="process", pool=pool)
            assert store.stat().st_size == size_after_first


class TestMisuse:
    def test_pool_requires_process_executor(self):
        with pytest.raises(ValueError, match="process"):
            run_suite(KERNELS, scale="smoke", limit=1, executor="serial",
                      pool=SweepExecutor())
