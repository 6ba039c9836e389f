"""Tests for the persistent sweep executor and shared-memory transport.

The contract: a :class:`SweepExecutor` survives across ``run_suite``
calls and across apps (same worker processes, warm plan caches), shard
batching and the shared-memory transport are invisible in the results
(identical row sets vs serial), and every knob degrades cleanly (pickle
fallback, empty grids, misuse errors).
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine import SweepExecutor, default_executor, shutdown_default_executor
from repro.engine import worker_pool
from repro.engine.worker_pool import (
    ShmHandle,
    _unlink_block,
    attach_dataset,
    attach_payload,
    dataset_content_key,
    detach,
    publish_dataset,
    publish_payload,
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


# ----------------------------------------------------------------------
# One transport, two entry points: every codec through the dataset
# publisher / attacher and the public payload publisher / attacher.
# ----------------------------------------------------------------------
def _payload(codec: str):
    if codec == "csr":
        return load_dataset("tiny_power_256", "smoke").matrix
    if codec == "tensor3":
        return random_tensor((48, 32, 16), 700, skew=0.8, seed=5)
    return np.arange(24.0).reshape(4, 6)


_ARRAYS = {
    "csr": ("row_offsets", "col_indices", "values"),
    "tensor3": ("i", "j", "k", "values"),
}


def _assert_bit_equal(codec: str, clone, payload) -> None:
    if codec == "dense":
        pairs = [(clone, payload)]
    else:
        assert clone.shape == payload.shape
        pairs = [(getattr(clone, a), getattr(payload, a))
                 for a in _ARRAYS[codec]]
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


_SIDES = [
    (side, c) for side in ("dataset", "oracle")
    for c in ("csr", "tensor3", "dense")
]


def _publish(side: str, codec: str):
    """``(handle, thing to attach, cleanup)`` for one side of the transport."""
    payload = _payload(codec)
    if side == "dataset":
        ds = Dataset(name=f"rt_{codec}", family="rt", matrix=payload,
                     meta={"kind": codec})
        pub = publish_dataset(ds)
        assert pub is not None
        return pub.handle.matrix, pub.handle, pub.unlink
    handle = publish_payload(payload)
    assert handle is not None

    def cleanup():
        cached = worker_pool._ATTACHMENTS.pop(handle.shm_name, None)
        if cached is not None:
            shm = cached[0]
            del cached  # drop the payload views before closing
            detach(shm)
        _unlink_block(handle.shm_name)

    return handle, handle, cleanup


def _assert_unlinked(handle: ShmHandle) -> None:
    if os.path.isdir("/dev/shm"):
        assert handle.shm_name.lstrip("/") not in os.listdir("/dev/shm")
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=handle.shm_name)


class TestTransportRoundTrip:
    @pytest.mark.parametrize("side,codec", _SIDES)
    def test_round_trip(self, side, codec):
        payload = _payload(codec)
        handle, staged, cleanup = _publish(side, codec)
        try:
            assert isinstance(handle, ShmHandle) and handle.codec == codec
            if side == "dataset":
                clone, shm = attach_dataset(staged)
                try:
                    assert (clone.name, clone.family, clone.meta) == (
                        f"rt_{codec}", "rt", {"kind": codec})
                    _assert_bit_equal(codec, clone.matrix, payload)
                    # The worker-side fingerprint of the attached dataset
                    # is the parent's content key, and its segment part
                    # is exactly what the handle carries.
                    key = dataset_content_key(clone)
                    assert key == dataset_content_key(
                        Dataset(name=clone.name, family="rt", matrix=payload))
                    assert key[2] == tuple(
                        (s.label, s.dtype, s.shape, s.crc)
                        for s in handle.segments
                    )
                finally:
                    del clone
                    detach(shm)
            else:
                clone = attach_payload(staged)
                _assert_bit_equal(codec, clone, payload)
                # Re-attaching in one process serves the cached mapping.
                assert attach_payload(staged) is clone
                del clone
        finally:
            cleanup()
        _assert_unlinked(handle)

    @pytest.mark.parametrize("side,codec", _SIDES)
    def test_corrupted_segment_fails_the_attach(self, side, codec):
        handle, staged, cleanup = _publish(side, codec)
        try:
            seg = handle.segments[-1]
            block = shared_memory.SharedMemory(name=handle.shm_name)
            block.buf[seg.offset] ^= 0xFF
            block.close()
            if side == "dataset":
                with pytest.raises(ValueError, match="CRC"):
                    attach_dataset(staged)  # the executor re-runs pickled
            else:
                assert attach_payload(staged) is None  # caller rebuilds
        finally:
            cleanup()
        _assert_unlinked(handle)


class _StubBlock:
    """Stands in for a published block: records its unlink."""

    def __init__(self, name: str, nbytes: int = 10) -> None:
        self.shm_name = name
        self.nbytes = nbytes
        self.pins = 0
        self.tick = 0
        self.unlinked = False

    def unlink(self) -> None:
        self.unlinked = True


class TestBlockDirectory:
    """The parent-side record of published dataset blocks."""

    def test_lru_eviction_skips_pinned_blocks(self):
        directory = worker_pool._BlockDirectory(budget=15)
        a, b = _StubBlock("a"), _StubBlock("b")
        assert directory.adopt(("a",), a) and directory.adopt(("b",), b)
        assert not directory.adopt(("a",), _StubBlock("dup"))  # key taken
        assert directory.pin(("a",)) is a  # newest and in flight
        directory.release()
        assert b.unlinked and not a.unlinked  # over budget: coldest goes
        directory.release([a])
        assert not a.unlinked and len(directory) == 1  # fits the budget

    def test_condemned_block_is_unlinked_once_its_pins_drop(self):
        directory = worker_pool._BlockDirectory(budget=10**9)
        block = _StubBlock("a")
        directory.adopt(("k",), block)
        directory.pin(("k",))
        directory.condemn("a")
        assert directory.pin(("k",)) is None  # the next sweep republishes
        directory.release()
        assert not block.unlinked  # a sweep still holds it
        directory.release([block])
        assert block.unlinked and len(directory) == 0


class TestSharedMemoryTransport:
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

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="needs a POSIX /dev/shm namespace")
    def test_pool_holds_one_block_per_dataset(self, serial_rows):
        """Validated two-worker sweeps leave exactly one shm block per
        dataset while the pool lives -- oracles stay in the workers'
        problem caches -- and shutdown unlinks them all."""
        before = set(os.listdir("/dev/shm"))
        with SweepExecutor(max_workers=2) as pool:
            for _ in range(2):
                rows = run_suite(KERNELS, scale="smoke", limit=5,
                                 executor="process", pool=pool)
                held = set(os.listdir("/dev/shm")) - before
                assert len(held) == 5 == pool.info()["shm_cached"]
                assert _key(rows) == _key(serial_rows)
        assert not held & set(os.listdir("/dev/shm"))

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
    """Codec-specific behaviour of the shared-memory block format."""

    def test_tensor_round_trip(self):
        tensor = random_tensor((48, 32, 16), 700, skew=0.8, seed=5)
        ds = Dataset(name="tensor_ds", family="tensor", matrix=tensor,
                     meta={"kind": "coo"})
        pub = publish_dataset(ds)
        assert pub is not None and pub.handle.matrix.codec == "tensor3"
        try:
            labels = [seg.label for seg in pub.handle.matrix.segments]
            assert labels == ["i", "j", "k", "values"]
            clone, shm = attach_dataset(pub.handle)
            try:
                assert dataset_content_key(clone) == dataset_content_key(ds)
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

    def test_object_dtype_arrays_fall_back_to_pickle(self):
        """Object arrays hold process-local pointers; shipping their raw
        bytes through shm would segfault workers.  No codec may claim
        them -- a dataset holding one must pickle.  Structured arrays
        are refused too: their dtype string is a bare void the fill
        cannot cast into."""
        for payload in (
            np.array([{"a": 1}, [2, 3]], dtype=object),
            np.zeros(4, dtype=[("a", "f8"), ("b", "i4")]),
        ):
            assert worker_pool._pack(payload) is None
            ds = Dataset(name="objs", family="dense", matrix=payload)
            assert publish_dataset(ds) is None
            assert dataset_content_key(ds) is None
            assert publish_payload(payload) is None

    def test_attach_vanished_block_returns_none(self):
        handle = publish_payload(np.arange(8.0))
        assert handle is not None
        _unlink_block(handle.shm_name)
        assert attach_payload(handle) is None

    def test_unknown_codec_returns_none(self):
        from dataclasses import replace

        handle = publish_payload(np.arange(8.0))
        assert handle is not None
        try:
            assert attach_payload(replace(handle, codec="no-such")) is None
        finally:
            _unlink_block(handle.shm_name)

    def test_unpublishable_payload_returns_none(self):
        """Without an oracle-only pickle segment, a payload no codec
        claims is refused rather than published."""
        import threading

        assert publish_payload(threading.Lock()) is None
        assert publish_payload({"distances": [0, 1, 3], "source": 0}) is None

    def test_content_key_tracks_payload_mutation(self):
        a = random_tensor((16, 8, 4), 60, seed=1)
        b = random_tensor((16, 8, 4), 60, seed=2)
        key_a = dataset_content_key(Dataset(name="t", family="f", matrix=a))
        key_b = dataset_content_key(Dataset(name="t", family="f", matrix=b))
        assert key_a != key_b  # same name/shape, different content

    def test_publish_failure_closes_and_unlinks_the_block(self, monkeypatch):
        """Regression: a failure while filling an already-created block
        must not leak the block; both publishers return ``None`` (the
        caller then pickles or rebuilds)."""
        from types import SimpleNamespace

        created = []

        class RecordingSharedMemory(shared_memory.SharedMemory):
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
        # cast into: the copy raises *after* the block was created.
        monkeypatch.setitem(worker_pool._CODECS, "unfillable-test", (
            lambda p: isinstance(p, Unfillable),
            lambda p: (
                [("data", np.zeros(4, dtype=[("a", "f8"), ("b", "i4")]))], {}
            ),
            lambda a, e: None,
        ))
        ds = Dataset(name="broken", family="test", matrix=Unfillable())
        assert publish_dataset(ds) is None
        assert publish_payload(Unfillable()) is None
        assert len(created) == 2  # the blocks really were created...
        for name in created:
            with pytest.raises(FileNotFoundError):
                # ... and are gone: attaching by name finds nothing, so
                # nothing leaked for the resource tracker to reap.
                shared_memory.SharedMemory(name=name)


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


class TestMisuse:
    def test_pool_requires_process_executor(self):
        with pytest.raises(ValueError, match="process"):
            run_suite(KERNELS, scale="smoke", limit=1, executor="serial",
                      pool=SweepExecutor())
