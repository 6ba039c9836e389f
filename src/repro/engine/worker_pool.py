"""Persistent sweep execution: warm worker pools + shared-memory transport.

The harness's original ``executor="process"`` path rebuilt the world per
call: every ``run_suite`` spawned a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, pickled every dataset's
CSR arrays across the pipe, and started each worker with a cold plan
cache -- so at smoke scale the process executor *lost* to serial (see
``BENCH_sweep.json``).  This module amortizes all three costs, the same
way persistent GPU runtimes amortize context/handle creation across
kernel launches:

:class:`SweepExecutor`
    A reusable, lazily-spawned worker pool.  The pool survives across
    ``run_suite`` calls and across apps; workers are warmed once by an
    initializer (NumPy + the app registry imported, the persistent plan
    cache attached) and keep their in-memory plan caches between sweeps.
    Use it as a context manager, or share the module-level
    :func:`default_executor` (``run_suite(..., pool=default_executor())``).

Sticky placement & shard batching
    Every dataset has a *home worker*: its content key is rendezvous-
    (HRW-)hashed over the pool's worker slots, so the same dataset lands
    on the same worker sweep after sweep -- warm worker caches stop
    depending on scheduler luck, and crash-respawn or width growth remap
    only the minimum number of keys.  Within a home group, small
    datasets are batched into contiguous weight-balanced batches so one
    pickle crossing carries several shards; oversized batches are
    work-stolen (bounded, deterministic) to the least-loaded slot.
    Every row records its placement (home, executing slot, sticky vs
    stolen, worker pid) in ``meta["placement"]``.  Results come back per
    shard, in submission order.

Shared-memory dataset transport
    Dataset payloads are packed into *array bundles* -- an ordered list
    of named ``(dtype, shape, crc)`` segments in one shared-memory block
    -- published once via :mod:`multiprocessing.shared_memory` and
    reattached zero-copy in the workers; the task pickle carries a small
    :class:`ArrayBundleHandle` instead of the arrays.  Payload types are
    pluggable :class:`ShmCodec` entries (CSR matrices, COO sparse
    tensors for spmttkrp, dense factor matrices out of the box); types
    with no codec (or platforms without shared memory) are pickled into
    the task instead, and so is any shard whose worker fails to attach
    its block.  Either way the rows are identical
    :class:`~repro.evaluation.harness.SweepRow` sets.

Worker-resident problem/oracle cache
    Repeated sweeps of the same grid used to rebuild every dataset's
    problem instance and oracle per sweep.  :class:`ProblemCache` is a
    bounded, content-keyed (app, dataset fingerprint, seed, validate)
    cache living in each worker process, so steady-state sweeps on a
    warm pool are problem-build-free *and* oracle-free; hit/miss
    counters surface through ``SweepRow.meta``.

Cross-worker oracle sharing
    A local problem-cache miss no longer always means a rebuild: the
    first worker that builds an oracle publishes it to a shared-memory
    payload block (:func:`publish_payload` -- array bundles for codec-
    claimed payloads, a pickled-bytes segment otherwise), and the parent
    records the handle in a pin/LRU byte-budgeted directory keyed by the
    same ``(app, fingerprint, seed, validate)`` problem-cache key.
    Every other worker that misses locally attaches the published copy
    zero-copy instead of rebuilding, so hot oracles are resident once
    per machine instead of once per worker.  Attach/publish counters
    ride in ``ProblemCache.info()`` and ``SweepRow.meta``.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import os
import pickle
import struct
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..faults import inject
from ..sparse.corpus import Dataset
from ..sparse.csr import CsrMatrix
from ..sparse.tensor import SparseTensor3

__all__ = [
    "SweepExecutor",
    "ArrayBundleHandle",
    "ArraySegment",
    "SharedPayloadHandle",
    "ShmCodec",
    "register_shm_codec",
    "shm_codec_for",
    "publish_payload",
    "attach_payload",
    "home_slot",
    "ProblemCache",
    "problem_cache",
    "clear_problem_cache",
    "default_executor",
    "shutdown_default_executor",
    "install_signal_cleanup",
    "PROBLEM_CACHE_ENTRIES_ENV",
    "PROBLEM_CACHE_BYTES_ENV",
    "SHARED_ORACLE_BYTES_ENV",
    "BATCH_TIMEOUT_ENV",
]

#: Environment knobs bounding each worker's problem/oracle cache.
PROBLEM_CACHE_ENTRIES_ENV = "REPRO_PROBLEM_CACHE_ENTRIES"
PROBLEM_CACHE_BYTES_ENV = "REPRO_PROBLEM_CACHE_BYTES"

#: Byte budget for the parent-coordinated shared-oracle directory; 0
#: disables cross-worker oracle sharing entirely.
SHARED_ORACLE_BYTES_ENV = "REPRO_SHARED_ORACLE_BYTES"

#: Floor, in seconds, of the per-batch watchdog deadline (the full
#: allowance also scales with the batch's staged weight).  ``0`` (or
#: negative) disables the watchdog and restores unbounded waits.
BATCH_TIMEOUT_ENV = "REPRO_BATCH_TIMEOUT"
DEFAULT_BATCH_TIMEOUT = 300.0

#: Extra deadline seconds granted per unit of staged batch weight
#: (weight ~ array elements + a fixed per-dataset overhead), so huge
#: batches are not misdiagnosed as hangs at the floor.
_TIMEOUT_SECONDS_PER_WEIGHT = 1e-6


def _shared_memory():
    """The stdlib shared-memory module, or ``None`` when unsupported."""
    try:
        from multiprocessing import shared_memory

        return shared_memory
    except ImportError:  # pragma: no cover - always present on CPython
        return None


# ----------------------------------------------------------------------
# Shared-memory dataset transport: array bundles + pluggable codecs
# ----------------------------------------------------------------------
#: Segment offsets inside a bundle block are padded to this boundary so
#: every dtype reattaches aligned, whatever precedes it.
_SEGMENT_ALIGN = 16


def _align(offset: int) -> int:
    return (offset + _SEGMENT_ALIGN - 1) // _SEGMENT_ALIGN * _SEGMENT_ALIGN


def _freeze(value):
    """Canonical hashable form of a codec ``extra`` value (content keys)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class ArraySegment:
    """One named array inside a shared-memory bundle block."""

    label: str
    dtype: str  # numpy dtype string, endianness-qualified
    shape: tuple
    crc: int  # crc32 of the array bytes (content key + attach check)
    offset: int  # byte offset inside the block

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize

    def fingerprint(self) -> tuple:
        """The offset-independent identity used in content keys."""
        return (self.label, self.dtype, tuple(self.shape), self.crc)


@dataclass(frozen=True)
class ArrayBundleHandle:
    """Picklable stand-in for a :class:`Dataset` whose arrays live in shm.

    The handle carries only the block name, the codec that knows how to
    rebuild the payload, and the ordered ``(dtype, shape, crc)`` segment
    list; workers reattach each segment as a zero-copy NumPy view over
    the block and hand the views to the codec's ``unpack``.
    """

    shm_name: str
    codec: str
    dataset_name: str
    family: str
    segments: tuple[ArraySegment, ...]
    extra: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def payload_bytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments)

    def content_key(self) -> tuple:
        """Content fingerprint; equals :func:`dataset_content_key` of the
        dataset this handle was published from."""
        return (
            self.dataset_name,
            self.codec,
            tuple(seg.fingerprint() for seg in self.segments),
            _freeze(self.extra),
        )



@dataclass(frozen=True)
class ShmCodec:
    """How one payload type travels through an array-bundle block.

    ``matches(payload)`` claims a payload; ``pack(payload)`` flattens it
    into ordered named arrays plus picklable scalar ``extra`` metadata;
    ``unpack(arrays, extra)`` rebuilds the payload from zero-copy views.
    Codecs are consulted in registration order; the built-ins cover CSR
    matrices, COO sparse tensors and dense ndarrays.
    """

    name: str
    matches: Callable[[Any], bool]
    pack: Callable[[Any], tuple[list, dict]]
    unpack: Callable[[dict, dict], Any]


_SHM_CODECS: "OrderedDict[str, ShmCodec]" = OrderedDict()


def register_shm_codec(codec: ShmCodec) -> ShmCodec:
    """Add a payload codec to the transport (consulted in order)."""
    if codec.name in _SHM_CODECS:
        raise ValueError(f"shm codec {codec.name!r} already registered")
    _SHM_CODECS[codec.name] = codec
    return codec


def shm_codec_for(payload: Any) -> ShmCodec | None:
    """The first registered codec claiming ``payload`` (``None`` = pickle)."""
    for codec in _SHM_CODECS.values():
        if codec.matches(payload):
            return codec
    return None


register_shm_codec(ShmCodec(
    name="csr",
    matches=lambda p: isinstance(p, CsrMatrix),
    pack=lambda m: (
        [("row_offsets", m.row_offsets), ("col_indices", m.col_indices),
         ("values", m.values)],
        {"shape": m.shape},
    ),
    unpack=lambda arrays, extra: CsrMatrix(
        row_offsets=arrays["row_offsets"],
        col_indices=arrays["col_indices"],
        values=arrays["values"],
        shape=tuple(extra["shape"]),
    ),
))

register_shm_codec(ShmCodec(
    name="tensor3",
    matches=lambda p: isinstance(p, SparseTensor3),
    pack=lambda t: (
        [("i", t.i), ("j", t.j), ("k", t.k), ("values", t.values)],
        {"shape": t.shape},
    ),
    # Direct construction, not from_arrays: the published coordinates
    # already satisfy the sorted-by-mode-0 invariant, and re-sorting
    # would copy the views the transport exists to avoid.
    unpack=lambda arrays, extra: SparseTensor3(
        i=arrays["i"], j=arrays["j"], k=arrays["k"],
        values=arrays["values"], shape=tuple(extra["shape"]),
    ),
))

register_shm_codec(ShmCodec(
    name="dense",
    # Object-dtype arrays hold process-local pointers: copying their raw
    # bytes into shared memory would hand workers foreign addresses.
    # Leave them (and other non-buffer payloads) to the pickle fallback.
    matches=lambda p: isinstance(p, np.ndarray) and not p.dtype.hasobject,
    pack=lambda a: ([("data", a)], {}),
    unpack=lambda arrays, extra: arrays["data"],
))


def _pack_bundle(dataset: Dataset):
    """``(codec, [(label, contiguous array), ...], extra)`` or ``None``."""
    codec = shm_codec_for(dataset.matrix)
    if codec is None:
        return None
    arrays, extra = codec.pack(dataset.matrix)
    return codec, [(label, np.ascontiguousarray(arr)) for label, arr in arrays], extra


class _PublishedDataset:
    """Owner-side record of one shm block (parent closes + unlinks).

    Published blocks are cached by the executor across sweeps (``pins``
    guards in-flight use, ``tick`` drives LRU eviction) -- repeated
    sweeps of the same corpus publish each dataset exactly once.
    """

    def __init__(self, handle: ArrayBundleHandle, shm) -> None:
        self.handle = handle
        self.shm = shm
        self.pins = 0
        self.tick = 0
        self.nbytes = shm.size
        # Set when an attach failure condemned the block: it leaves the
        # publish cache immediately and is unlinked once its pins drop.
        self.defunct = False

    def unlink(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - no exports kept here
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _bundle_crcs(arrays: list) -> list[int]:
    return [zlib.crc32(arr) for _, arr in arrays]


def _bundle_key(name: str, codec: ShmCodec, arrays: list, crcs: list, extra: dict) -> tuple:
    return (
        name,
        codec.name,
        tuple(
            (label, arr.dtype.str, arr.shape, crc)
            for (label, arr), crc in zip(arrays, crcs)
        ),
        _freeze(extra),
    )


def _layout_segments(arrays: list, crcs: list) -> tuple[list, int]:
    """Plan the aligned segment layout for a bundle block."""
    segments = []
    offset = 0
    for (label, arr), crc in zip(arrays, crcs):
        offset = _align(offset)
        segments.append(ArraySegment(
            label=label,
            dtype=arr.dtype.str,
            shape=arr.shape,
            crc=crc,
            offset=offset,
        ))
        offset += arr.nbytes
    return segments, offset


def _create_block(segments: list, arrays: list, total: int):
    """Allocate one shm block and copy the arrays in; ``None`` if refused.

    A failure while *filling* an already-created block closes and
    unlinks it before re-raising, so publish errors never leak shared
    memory.
    """
    shared_memory = _shared_memory()
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(1, total))
    except OSError:
        return None
    try:
        for seg, (_, arr) in zip(segments, arrays):
            np.ndarray(
                seg.shape, dtype=seg.dtype, buffer=shm.buf, offset=seg.offset
            )[:] = arr
    except Exception:
        # The block exists but was never handed out: reclaim it now
        # instead of leaking it until interpreter exit.
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        raise
    return shm


def _unlink_block(name: str) -> None:
    """Reclaim one shm block by name, tolerating its prior disappearance."""
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - always present
        return
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError):
        return  # already unlinked (or never materialized)
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing unlink
            pass


def dataset_content_key(dataset: Dataset) -> tuple | None:
    """Cheap content fingerprint of a bundleable dataset.

    Keys both the parent-side publish cache and the workers' problem/
    oracle cache.  Name and shape alone are not enough -- the same
    corpus name at a different scale (or a caller-mutated payload) must
    republish -- so the key includes a CRC per packed array.  The CRC
    pass is paid on every staging, but it costs about as much as one
    copy of the data -- cheap against what a hit saves (shm create +
    copy + worker reattach, or a problem/oracle rebuild) and trivial
    against what a miss would otherwise repay per sweep.  Returns
    ``None`` for payloads no codec claims.
    """
    bundle = _pack_bundle(dataset)
    if bundle is None:
        return None
    codec, arrays, extra = bundle
    return _bundle_key(dataset.name, codec, arrays, _bundle_crcs(arrays), extra)


def publish_dataset(
    dataset: Dataset, *, _bundle=None, _crcs: list | None = None
) -> _PublishedDataset | None:
    """Pack one dataset's arrays into a shared-memory bundle block.

    Returns ``None`` when the dataset cannot travel this way (no codec
    claims the payload, shared memory unavailable, block allocation
    refused) -- callers then fall back to pickling the dataset itself.
    A failure while *filling* an already-created block (a codec packing
    arrays the buffer cannot host) closes and unlinks the block before
    re-raising, so publish errors never leak shared memory.

    ``_bundle``/``_crcs`` let the staging path reuse the pack + CRC pass
    it already paid for the content key, so a fresh publish never packs
    or checksums the arrays twice.
    """
    shared_memory = _shared_memory()
    if shared_memory is None:
        return None
    if inject("shm.publish") is not None:
        return None  # injected publish refusal: caller falls back to pickle
    bundle = _pack_bundle(dataset) if _bundle is None else _bundle
    if bundle is None:
        return None
    codec, arrays, extra = bundle
    crcs = _bundle_crcs(arrays) if _crcs is None else _crcs
    segments, total = _layout_segments(arrays, crcs)
    shm = _create_block(segments, arrays, total)
    if shm is None:
        return None
    handle = ArrayBundleHandle(
        shm_name=shm.name,
        codec=codec.name,
        dataset_name=dataset.name,
        family=dataset.family,
        segments=tuple(segments),
        extra=dict(extra),
        meta=dict(dataset.meta),
    )
    return _PublishedDataset(handle, shm)


def attach_dataset(handle: ArrayBundleHandle) -> tuple[Dataset, object]:
    """Worker-side reattach: rebuild the Dataset over the shm buffer.

    Each segment becomes a zero-copy view, CRC-verified against the
    handle, and the codec's ``unpack`` rebuilds the payload.  Returns
    ``(dataset, shm)``; the caller must release the block with
    :func:`detach` once the shard's rows are computed.
    """
    shared_memory = _shared_memory()
    assert shared_memory is not None
    fault = inject("shm.attach")
    if fault == "crc":
        raise ValueError(
            f"shared-memory bundle of dataset {handle.dataset_name!r} "
            f"failed its CRC check (injected fault)"
        )
    if fault == "drop":
        raise FileNotFoundError(
            f"shared-memory block {handle.shm_name!r} vanished "
            f"(injected fault)"
        )
    codec = _SHM_CODECS.get(handle.codec)
    if codec is None:
        raise KeyError(
            f"dataset {handle.dataset_name!r} was published with codec "
            f"{handle.codec!r}, which is not registered in this worker"
        )
    # Pool workers are children of the publisher, so they share its
    # resource-tracker process: the attach-side register is a set no-op
    # and exactly one unregister happens at the parent's unlink.  (An
    # *unrelated* attacher would need bpo-39959's unregister dance; this
    # transport never crosses that topology.)
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    arrays = {}
    for seg in handle.segments:
        view = np.ndarray(
            seg.shape, dtype=seg.dtype, buffer=shm.buf, offset=seg.offset
        )
        if zlib.crc32(view) != seg.crc:
            detach(shm)
            raise ValueError(
                f"shared-memory segment {seg.label!r} of dataset "
                f"{handle.dataset_name!r} failed its CRC check"
            )
        arrays[seg.label] = view
    dataset = Dataset(
        name=handle.dataset_name,
        family=handle.family,
        matrix=codec.unpack(arrays, dict(handle.extra)),
        meta=dict(handle.meta),
    )
    return dataset, shm


def detach(shm) -> None:
    """Close a worker-side attachment, tolerating lingering array views."""
    try:
        shm.close()
    except BufferError:
        gc.collect()  # drop cycles still holding buffer views
        try:
            shm.close()
        except BufferError:  # released at worker exit instead
            pass


# ----------------------------------------------------------------------
# Shared payload (oracle) transport: publish once, attach everywhere
# ----------------------------------------------------------------------
#: Segment label + codec sentinel for the pickled-bytes fallback, used
#: when no registered ShmCodec claims an oracle payload.
_PICKLE_CODEC = "pickle"


@dataclass(frozen=True)
class SharedPayloadHandle:
    """Picklable stand-in for one built payload published to shm.

    The oracle-sharing analogue of :class:`ArrayBundleHandle`: codec-
    claimed payloads travel as array bundles and reattach as zero-copy
    views; anything else travels as one pickled ``uint8`` segment under
    the ``"pickle"`` codec sentinel (attached as a copy).  Handles are
    created by the worker that built the payload, adopted by the parent
    into its shared-oracle directory, and shipped back out to every
    worker that misses locally.
    """

    shm_name: str
    codec: str
    segments: tuple[ArraySegment, ...]
    extra: dict = field(default_factory=dict)

    @property
    def payload_bytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments)


def publish_payload(payload: Any) -> SharedPayloadHandle | None:
    """Publish one built payload (an oracle, typically) to shared memory.

    Codec-claimed payloads are packed exactly like dataset bundles;
    everything else is pickled into a single byte segment so sharing
    still works for scalar or namespace-shaped oracles.  Returns
    ``None`` when the payload cannot travel (unpicklable, shm
    unavailable, allocation refused, a codec pack error) -- callers then
    simply keep their locally-built copy.
    """
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - always present
        return None
    if inject("oracle.publish") is not None:
        return None  # injected refusal: the worker keeps its local copy
    codec = shm_codec_for(payload)
    try:
        if codec is not None:
            arrays, extra = codec.pack(payload)
            arrays = [
                (label, np.ascontiguousarray(arr)) for label, arr in arrays
            ]
            codec_name = codec.name
        else:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            arrays = [(_PICKLE_CODEC, np.frombuffer(blob, dtype=np.uint8))]
            extra = {}
            codec_name = _PICKLE_CODEC
        crcs = _bundle_crcs(arrays)
        segments, total = _layout_segments(arrays, crcs)
        shm = _create_block(segments, arrays, total)
    except Exception:
        return None  # a payload that cannot be shared is not an error
    if shm is None:
        return None
    handle = SharedPayloadHandle(
        shm_name=shm.name,
        codec=codec_name,
        segments=tuple(segments),
        extra=dict(extra),
    )
    # The publisher keeps no mapping: its ProblemCache already holds the
    # locally-built payload, and the parent owns the block's lifetime.
    shm.close()
    return handle


#: Worker-side payload attachment cache, mirroring ``_ATTACHED`` for
#: datasets: ``shm_name -> (shm, payload)`` in LRU order.  Only bundle-
#: codec payloads are cached (pickle attaches copy and detach at once).
_PAYLOAD_ATTACHMENTS: OrderedDict[str, tuple] = OrderedDict()
_PAYLOAD_ATTACH_CAP = 128


def attach_payload(handle: SharedPayloadHandle) -> Any | None:
    """Worker-side reattach of a published payload.

    Returns the payload (zero-copy views for bundle codecs, a fresh copy
    for the pickle fallback), or ``None`` on *any* failure -- a vanished
    block (parent evicted it), CRC mismatch, unknown codec -- so the
    caller falls back to building the payload itself.  Sharing can only
    skip work, never change results.
    """
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - always present
        return None
    if inject("oracle.attach") is not None:
        return None  # injected attach failure: caller rebuilds locally
    cached = _PAYLOAD_ATTACHMENTS.get(handle.shm_name)
    if cached is not None:
        _PAYLOAD_ATTACHMENTS.move_to_end(handle.shm_name)
        return cached[1]
    if handle.codec != _PICKLE_CODEC and handle.codec not in _SHM_CODECS:
        return None
    try:
        shm = shared_memory.SharedMemory(name=handle.shm_name)
    except (OSError, ValueError):
        return None
    arrays = {}
    try:
        for seg in handle.segments:
            view = np.ndarray(
                seg.shape, dtype=seg.dtype, buffer=shm.buf, offset=seg.offset
            )
            if zlib.crc32(view) != seg.crc:
                raise ValueError(f"CRC mismatch in segment {seg.label!r}")
            arrays[seg.label] = view
        if handle.codec == _PICKLE_CODEC:
            payload = pickle.loads(arrays[_PICKLE_CODEC].tobytes())
        else:
            payload = _SHM_CODECS[handle.codec].unpack(
                arrays, dict(handle.extra)
            )
    except Exception:
        arrays.clear()
        detach(shm)
        return None
    if handle.codec == _PICKLE_CODEC:
        arrays.clear()
        detach(shm)  # the bytes were copied out; no mapping to keep
        return payload
    while len(_PAYLOAD_ATTACHMENTS) >= _PAYLOAD_ATTACH_CAP:
        _, (old_shm, old_payload) = _PAYLOAD_ATTACHMENTS.popitem(last=False)
        del old_payload  # drop the buffer views before closing
        detach(old_shm)
    _PAYLOAD_ATTACHMENTS[handle.shm_name] = (shm, payload)
    return payload


class _SharedPayloadRecord:
    """Parent-side directory entry for one published oracle block.

    Same pin/tick lifecycle as :class:`_PublishedDataset`, but the block
    was *created by a worker*: the parent holds only the name, and
    reclaims the block by reopening it at eviction/shutdown (pool
    workers are fork children sharing the parent's resource tracker, so
    create-in-worker / unlink-in-parent balances exactly once).
    """

    def __init__(self, handle: SharedPayloadHandle) -> None:
        self.handle = handle
        self.pins = 0
        self.tick = 0
        self.nbytes = handle.payload_bytes

    def unlink(self) -> None:
        _unlink_block(self.handle.shm_name)


# ----------------------------------------------------------------------
# Sticky placement: rendezvous hashing of content keys over worker slots
# ----------------------------------------------------------------------
def home_slot(placement_key: Any, width: int) -> int:
    """Rendezvous (highest-random-weight) home slot for a placement key.

    Each ``(key, slot)`` pair gets a deterministic score (crc32 -- NOT
    Python's salted ``hash``); the winning slot is the key's home.  The
    HRW property is what makes placement *minimally* disruptive: growing
    the pool by one slot only moves the keys whose new maximum is that
    slot (~1/width of them), and respawning a crashed slot moves nothing
    because slot indices, not process identities, are scored.
    """
    if width <= 1:
        return 0
    digest = zlib.crc32(repr(placement_key).encode("utf-8"))
    best = 0
    best_score = -1
    for slot in range(width):
        score = zlib.crc32(struct.pack("<I", slot), digest)
        if score > best_score:
            best = slot
            best_score = score
    return best


# ----------------------------------------------------------------------
# Pool worker entry points (module-level: picklable by reference)
# ----------------------------------------------------------------------
def _worker_warmup(store_path: str | None) -> None:
    """Pool initializer: pay the import + cache-attach cost exactly once."""
    inject("worker.start")
    import numpy  # noqa: F401  (pre-faulted into the worker)

    from .. import apps  # noqa: F401  (registers every app and schedule)
    from .compiled import precompile_kernels
    from .plan_cache import configure_global_plan_cache

    if store_path is not None:
        configure_global_plan_cache(store_path)
    # Pay the JIT cost here, not in the first timed launch: the apps
    # import above registered every kernel's warmup, and with numba
    # absent this is a no-op.
    precompile_kernels()


#: Worker-side attachment cache: ``shm_name -> (shm, Dataset)``, in LRU
#: order (oldest first).  Block names are never reused by the OS within a
#: session, so a cached entry can never alias different content; the
#: parent keeps a published block alive for at least as long as any task
#: referencing it is in flight.
_ATTACHED: OrderedDict[str, tuple] = OrderedDict()
_ATTACHED_CAP = 128


def _attached_dataset(handle: ArrayBundleHandle) -> Dataset:
    """Reattach (or reuse) one shm-backed dataset in this worker."""
    cached = _ATTACHED.get(handle.shm_name)
    if cached is not None:
        _ATTACHED.move_to_end(handle.shm_name)
        return cached[1]
    dataset, shm = attach_dataset(handle)
    while len(_ATTACHED) >= _ATTACHED_CAP:
        # Evict least-recently-used, never the entry just fetched.
        _, (old_shm, old_ds) = _ATTACHED.popitem(last=False)
        del old_ds  # drop the buffer views before closing
        detach(old_shm)
    _ATTACHED[handle.shm_name] = (shm, dataset)
    return dataset


# ----------------------------------------------------------------------
# Worker-resident problem/oracle cache
# ----------------------------------------------------------------------
def _payload_nbytes(obj: Any, _seen: set | None = None) -> int:
    """Estimate the resident bytes of a problem/oracle payload.

    Counts ndarray buffers reachable through the containers the sweep
    problems actually use (namespaces, dataclasses, dicts, sequences);
    scalars and bookkeeping round to zero -- the budget guards array
    memory, not Python object overhead.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_payload_nbytes(v, _seen) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_payload_nbytes(v, _seen) for v in obj)
    attrs = getattr(obj, "__dict__", None)
    if attrs is None and hasattr(obj, "__dataclass_fields__"):
        attrs = {
            name: getattr(obj, name) for name in obj.__dataclass_fields__
        }
    if isinstance(attrs, dict):
        return sum(_payload_nbytes(v, _seen) for v in attrs.values())
    return 0


class ProblemCache:
    """Bounded, content-keyed cache of built ``(problem, oracle)`` pairs.

    Lives in each (persistent) worker process so steady-state sweeps of
    the same grid skip ``_build_problem`` *and* the oracle entirely.
    Keys are ``(app, dataset fingerprint, seed, validate)`` -- the
    fingerprint is the same per-array-CRC content key the shm transport
    publishes under, so a seed change, a ``validate`` flip or mutated
    dataset content each miss instead of serving a stale entry (problem
    construction is independent of the execution context, so ctx changes
    need no invalidation).  Both budgets are explicit: ``max_entries``
    bounds the count and ``max_bytes`` the estimated resident array
    bytes, with least-recently-used eviction.
    """

    DEFAULT_MAX_ENTRIES = 64
    DEFAULT_MAX_BYTES = 512 * 1024 * 1024

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        self.max_entries = (
            self.DEFAULT_MAX_ENTRIES if max_entries is None else int(max_entries)
        )
        self.max_bytes = (
            self.DEFAULT_MAX_BYTES if max_bytes is None else int(max_bytes)
        )
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Cross-worker sharing outcomes: misses served by attaching a
        # published copy, and local builds published for other workers.
        self.attaches = 0
        self.publishes = 0

    @classmethod
    def from_env(cls) -> "ProblemCache":
        """Budgets from the ``REPRO_PROBLEM_CACHE_*`` environment knobs.

        A malformed value warns and falls back to the default budget --
        a cache-tuning typo must degrade the optimization, never crash
        every sweep shard (same contract as the ambient plan-persistence
        env handling).
        """

        def _budget(name: str) -> int | None:
            raw = os.environ.get(name)
            if not raw:
                return None
            try:
                return int(raw)
            except ValueError:
                import warnings

                warnings.warn(
                    f"ignoring non-integer {name}={raw!r}; using the "
                    f"default problem-cache budget",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return None

        return cls(
            max_entries=_budget(PROBLEM_CACHE_ENTRIES_ENV),
            max_bytes=_budget(PROBLEM_CACHE_BYTES_ENV),
        )

    def lookup(self, key: tuple):
        """``(problem, expected)`` for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def store(self, key: tuple, problem: Any, expected: Any) -> None:
        nbytes = _payload_nbytes((problem, expected))
        if nbytes > self.max_bytes or self.max_entries < 1:
            return  # larger than the whole budget: never cacheable
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = ((problem, expected), nbytes)
            self._bytes += nbytes
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "attaches": self.attaches,
                "publishes": self.publishes,
            }


_PROBLEM_CACHE: ProblemCache | None = None
_PROBLEM_CACHE_LOCK = threading.Lock()


def problem_cache() -> ProblemCache:
    """This process's problem/oracle cache (env-budgeted, created lazily)."""
    global _PROBLEM_CACHE
    with _PROBLEM_CACHE_LOCK:
        if _PROBLEM_CACHE is None:
            _PROBLEM_CACHE = ProblemCache.from_env()
        return _PROBLEM_CACHE


def clear_problem_cache() -> None:
    """Drop the process cache (tests; re-reads the env budgets next use)."""
    global _PROBLEM_CACHE
    with _PROBLEM_CACHE_LOCK:
        _PROBLEM_CACHE = None


@dataclass(frozen=True)
class _BatchItem:
    """One placed shard crossing into a worker: task + sharing context.

    ``dataset_key`` is the staging-time content fingerprint (computed
    once in the parent, published or not, so workers never pay a fresh
    CRC pass); ``placement`` records home/executing slot and
    sticky-vs-stolen; ``oracle`` is a published handle the worker should
    try before rebuilding; ``publish`` tells it whether to publish what
    it builds.
    """

    task: Any
    index: int  # position in the sweep's original shard order
    dataset_key: tuple | None
    placement: dict
    oracle: SharedPayloadHandle | None = None
    publish: bool = False
    weight: float = 0.0  # staged weight (drives the watchdog allowance)


@dataclass(frozen=True)
class _AttachFailure:
    """Worker-side marker returned in a shard's row slot when its shm
    attach failed (CRC mismatch, vanished block, unknown codec); the
    parent condemns the published block and re-runs the shard over the
    pickle transport instead of failing the batch."""

    index: int
    shm_name: str
    error: str


def _run_batch(items: tuple) -> tuple[list, list]:
    """Run one placed batch of shard tasks; one pickle crossing each way.

    Returns ``(per-shard row lists, publications)`` where publications
    is a list of ``(problem-cache key, SharedPayloadHandle)`` pairs for
    oracles this worker built and published; the parent adopts them into
    its shared-oracle directory.  If the batch dies mid-flight its own
    publications are reclaimed here -- the parent never learned their
    names.  A shard whose shm attach fails yields an
    :class:`_AttachFailure` in its row slot; the rest of the batch still
    runs.
    """
    from ..evaluation.harness import _run_shard

    inject("worker.batch")
    out = []
    publications: list = []
    pid = os.getpid()
    try:
        for item in items:
            task = item.task
            if isinstance(task.dataset, ArrayBundleHandle):
                try:
                    task = replace(
                        task, dataset=_attached_dataset(task.dataset)
                    )
                except (OSError, ValueError, KeyError) as exc:
                    out.append(_AttachFailure(
                        index=item.index,
                        shm_name=task.dataset.shm_name,
                        error=f"{type(exc).__name__}: {exc}",
                    ))
                    continue
            rows = _run_shard(
                task,
                dataset_key=item.dataset_key,
                shared_oracle=item.oracle,
                publications=publications if item.publish else None,
            )
            for row in rows:
                row.meta["placement"] = {**item.placement, "pid": pid}
            out.append(rows)
    except BaseException:
        for _key, handle in publications:
            _unlink_block(handle.shm_name)
        raise
    return out, publications


def _worker_probe(_=None) -> int:
    """Identify the worker a task landed on (tests, pool introspection)."""
    return os.getpid()


#: One warning per process when a shm attach degrades to pickling --
#: visible, but not once per affected shard.
_TRANSPORT_FALLBACK_WARNED = False


def _warn_transport_fallback(failure: _AttachFailure) -> None:
    global _TRANSPORT_FALLBACK_WARNED
    if _TRANSPORT_FALLBACK_WARNED:
        return
    _TRANSPORT_FALLBACK_WARNED = True
    import warnings

    warnings.warn(
        f"shared-memory attach failed ({failure.error}); re-running the "
        f"affected shard(s) over the pickle transport",
        RuntimeWarning,
        stacklevel=4,
    )


# ----------------------------------------------------------------------
# The persistent executor
# ----------------------------------------------------------------------
@dataclass
class _WorkerSlot:
    """One home slot of the pool: a single-worker process pool.

    Slots -- not one monolithic N-worker pool -- are what make placement
    deterministic: a batch submitted to slot *i* runs on slot *i*'s
    worker, period.  A crashed worker breaks only its own slot, which is
    respawned in place (same index, new pid) on the next sweep, so every
    other slot keeps its warm caches and its keys.
    """

    index: int
    pool: ProcessPoolExecutor
    #: Set when the watchdog SIGKILLed this slot's worker: the executor
    #: may not have noticed the death yet, but the slot must be respawned
    #: before it can take work again.
    dead: bool = False

    @property
    def broken(self) -> bool:
        return self.dead or bool(getattr(self.pool, "_broken", False))


@dataclass
class _StagedShard:
    """Parent-side staging record for one shard task."""

    task: Any
    index: int  # position in the sweep's original order
    dataset_key: tuple | None
    atoms: int
    weight: float
    home: int = 0


class SweepExecutor:
    """A reusable pool of worker slots for per-dataset sweep shards.

    The slots are spawned lazily on the first :meth:`map_shards` and
    then *kept*: later sweeps -- same app or not -- reuse the warm
    workers, whose module imports, plan caches and problem caches
    persist.  Width is ``max_workers`` when given, else
    ``os.cpu_count()`` capped by the sweep's shard count; a sweep
    wanting a *wider* pool grows it in place (existing slots keep their
    warmth and their keys), and a slot broken by a crashed worker is
    respawned individually on the next sweep instead of failing forever.

    Placement is sticky: each dataset's content key rendezvous-hashes to
    a home slot (see :func:`home_slot`), so repeated sweeps land every
    dataset on the same worker and its caches.  Load imbalance is
    corrected by bounded deterministic work-stealing of whole batches.

    Use as a context manager for scoped pools, or share the module-level
    :func:`default_executor` across calls (``run_suite(...,
    pool=default_executor())``).
    """

    #: Default budget for the publish cache (bytes of live shm blocks).
    DEFAULT_SHM_CACHE_BYTES = 256 * 1024 * 1024

    #: Default budget for the shared-oracle directory (bytes of live
    #: published payload blocks); 0 disables cross-worker sharing.
    DEFAULT_ORACLE_CACHE_BYTES = 256 * 1024 * 1024

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        batch_atoms: int | None = None,
        shm_cache_bytes: int | None = None,
        oracle_cache_bytes: int | None = None,
        batch_timeout: float | None = None,
    ):
        self.max_workers = max_workers
        self.batch_atoms = batch_atoms
        self.shm_cache_bytes = (
            self.DEFAULT_SHM_CACHE_BYTES if shm_cache_bytes is None
            else shm_cache_bytes
        )
        self.oracle_cache_bytes = (
            self._oracle_budget_from_env() if oracle_cache_bytes is None
            else int(oracle_cache_bytes)
        )
        self.batch_timeout = (
            self._batch_timeout_from_env() if batch_timeout is None
            else float(batch_timeout)
        )
        self._slots: list[_WorkerSlot] = []
        self._width = 0
        self._lock = threading.Lock()
        self._shm_lock = threading.Lock()
        self._published: dict[tuple, _PublishedDataset] = {}
        self._defunct: list[_PublishedDataset] = []
        self._shared_oracles: dict[tuple, _SharedPayloadRecord] = {}
        self._clock = itertools.count()
        self.sweeps = 0
        self.batches = 0
        self.shards = 0
        self.pool_spawns = 0
        self.shm_published = 0
        self.shm_reused = 0
        self.oracle_published = 0
        self.oracle_reused = 0
        self.oracle_evicted = 0
        self.sticky_shards = 0
        self.stolen_shards = 0
        # Failure-path telemetry (see map_shards): watchdog expiries,
        # batches re-run on another slot, shards run in-parent, synthetic
        # error rows emitted, and shm attaches degraded to pickling.
        self.batch_timeouts = 0
        self.batch_retries = 0
        self.degraded_shards = 0
        self.error_rows = 0
        self.transport_fallbacks = 0

    @classmethod
    def _oracle_budget_from_env(cls) -> int:
        raw = os.environ.get(SHARED_ORACLE_BYTES_ENV)
        if not raw:
            return cls.DEFAULT_ORACLE_CACHE_BYTES
        try:
            return int(raw)
        except ValueError:
            import warnings

            warnings.warn(
                f"ignoring non-integer {SHARED_ORACLE_BYTES_ENV}={raw!r}; "
                f"using the default shared-oracle budget",
                RuntimeWarning,
                stacklevel=3,
            )
            return cls.DEFAULT_ORACLE_CACHE_BYTES

    @classmethod
    def _batch_timeout_from_env(cls) -> float:
        raw = os.environ.get(BATCH_TIMEOUT_ENV)
        if not raw:
            return DEFAULT_BATCH_TIMEOUT
        try:
            return float(raw)
        except ValueError:
            import warnings

            warnings.warn(
                f"ignoring non-numeric {BATCH_TIMEOUT_ENV}={raw!r}; "
                f"using the default batch watchdog deadline",
                RuntimeWarning,
                stacklevel=3,
            )
            return DEFAULT_BATCH_TIMEOUT

    # -- pool lifecycle -------------------------------------------------
    def _spawn_slot(self, index: int) -> _WorkerSlot:
        from .plan_cache import global_plan_cache

        cache = global_plan_cache()
        return _WorkerSlot(
            index=index,
            pool=ProcessPoolExecutor(
                max_workers=1,
                initializer=_worker_warmup,
                initargs=(
                    str(cache.store_path) if cache.store_path else None,
                ),
            ),
        )

    def _ensure_pool(self, num_shards: int) -> list[_WorkerSlot]:
        with self._lock:
            want = self.max_workers
            if want is None:
                want = min(os.cpu_count() or 1, max(1, num_shards))
            want = max(1, want, len(self._slots))  # never shrink warmth
            spawned = False
            for i, slot in enumerate(self._slots):
                if slot.broken:
                    # A crashed worker poisons its ProcessPoolExecutor
                    # permanently; respawn just that slot, in place, so
                    # its keys stay home and the other slots stay warm.
                    slot.pool.shutdown(wait=False)
                    self._slots[i] = self._spawn_slot(i)
                    spawned = True
            while len(self._slots) < want:
                self._slots.append(self._spawn_slot(len(self._slots)))
                spawned = True
            if spawned:
                self.pool_spawns += 1
            self._width = len(self._slots)
            return self._slots

    @property
    def alive(self) -> bool:
        return bool(self._slots)

    @property
    def width(self) -> int:
        return self._width

    def slot_pids(self) -> dict[int, int]:
        """``slot index -> live worker pid`` (placement introspection)."""
        self._ensure_pool(self._width or 1)
        pids: dict[int, int] = {}
        for slot in self._slots:
            processes = getattr(slot.pool, "_processes", None)
            if processes:  # stdlib-internal but stable; exact and instant
                pids[slot.index] = next(iter(processes))
            else:  # worker not forked yet: a probe forces the spawn
                pids[slot.index] = slot.pool.submit(_worker_probe).result()
        return pids

    def worker_pids(self) -> set[int]:
        """PIDs of the live worker processes (pool-persistence probes)."""
        return set(self.slot_pids().values())

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            for slot in self._slots:
                slot.pool.shutdown(wait=wait and not slot.broken)
            self._slots = []
            self._width = 0
        with self._shm_lock:
            for entry in self._published.values():
                entry.unlink()
            self._published.clear()
            for entry in self._defunct:
                entry.unlink()
            self._defunct.clear()
            for record in self._shared_oracles.values():
                record.unlink()
            self._shared_oracles.clear()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- batching & transport -------------------------------------------
    @staticmethod
    def _payload_atoms(task) -> int:
        dataset = task.dataset
        if isinstance(dataset, ArrayBundleHandle):
            elements = sum(
                max(1, seg.nbytes // np.dtype(seg.dtype).itemsize)
                for seg in dataset.segments
            )
            return max(1, elements)
        matrix = getattr(dataset, "matrix", None)
        if matrix is None:
            return 1
        try:
            return max(1, int(matrix.nnz) + int(matrix.num_rows))
        except AttributeError:
            return 1

    #: Per-dataset fixed cost expressed in atom equivalents: at smoke
    #: scale a cell's Python overhead (context, policy, fingerprints)
    #: dwarfs its arithmetic, so weight-balancing on raw atoms alone
    #: would pack many tiny datasets into one straggler batch.
    _BATCH_BASE_WEIGHT = 2000

    #: Batches per home slot under quantile batching -- two, so work-
    #: stealing has a unit smaller than "everything the slot owns".
    _BATCHES_PER_SLOT = 2

    #: A slot may exceed the mean sweep load by this factor before its
    #: batches are stolen; below it, stickiness wins over balance.
    _STEAL_FACTOR = 1.25

    def _batch_group(self, group: list) -> list[list]:
        """Split one home group into contiguous weight-balanced batches.

        ~:data:`_BATCHES_PER_SLOT` batches per slot, boundaries at equal
        quantiles of the cumulative weight (atoms plus a fixed per-
        dataset overhead) -- the merge-path idea, one level up: batches
        are the processors, datasets the tiles.  ``batch_atoms``
        overrides with a greedy atom budget per batch.
        """
        if not group:
            return []
        if self.batch_atoms is not None:
            batches: list[list] = []
            cur: list = []
            cur_atoms = 0
            for shard in group:
                cur.append(shard)
                cur_atoms += shard.atoms
                if cur_atoms >= self.batch_atoms:
                    batches.append(cur)
                    cur, cur_atoms = [], 0
            if cur:
                batches.append(cur)
            return batches
        weights = np.array([s.weight for s in group], dtype=np.float64)
        num_batches = min(len(group), max(1, self._BATCHES_PER_SLOT))
        cum = np.cumsum(weights)
        quantiles = cum[-1] * np.arange(1, num_batches) / num_batches
        bounds = [0, *np.searchsorted(cum, quantiles, side="left"), len(group)]
        return [
            group[lo:hi]
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]

    def _stage(self, tasks: list) -> tuple[list, list]:
        """Fingerprint every dataset and swap payloads for shm handles.

        One pack + CRC pass per dataset yields the content key that
        drives *all three* reuse layers -- the publish cache, sticky
        placement, and the shared-oracle directory.  Codec-claimed
        payloads are published to shared memory; anything else (or a
        refused publish) travels pickled in the task.  Publishing goes through the
        executor's content-keyed cache: repeated sweeps of the same
        corpus pin the already-published blocks instead of copying
        again.  Returns ``(staged_shards, pinned_entries)``; the caller
        unpins after the sweep.
        """
        staged: list[_StagedShard] = []
        pinned: list[_PublishedDataset] = []
        try:
            with self._shm_lock:
                for index, task in enumerate(tasks):
                    bundle = _pack_bundle(task.dataset)
                    if bundle is None:
                        key = crcs = None
                    else:
                        codec, arrays, extra = bundle
                        crcs = _bundle_crcs(arrays)
                        key = _bundle_key(
                            task.dataset.name, codec, arrays, crcs, extra
                        )
                    atoms = self._payload_atoms(task)
                    staged_task = task
                    entry = None if key is None else self._published.get(key)
                    if entry is None:
                        entry = None if key is None else publish_dataset(
                            task.dataset, _bundle=bundle, _crcs=crcs
                        )
                        if entry is not None:
                            self._published[key] = entry
                            self.shm_published += 1
                    else:
                        self.shm_reused += 1
                    if entry is not None:
                        entry.pins += 1
                        entry.tick = next(self._clock)
                        pinned.append(entry)
                        staged_task = replace(task, dataset=entry.handle)
                    staged.append(_StagedShard(
                        task=staged_task,
                        index=index,
                        dataset_key=key,
                        atoms=atoms,
                        weight=atoms + self._BATCH_BASE_WEIGHT,
                    ))
        except Exception:
            self._unpin(pinned)
            raise
        return staged, pinned

    def _unpin(self, pinned: list) -> None:
        """Release sweep pins, then evict cold blocks over the byte budget."""
        with self._shm_lock:
            for entry in pinned:
                entry.pins -= 1
            if self._defunct:
                keep = []
                for entry in self._defunct:
                    if entry.pins <= 0:
                        entry.unlink()
                    else:
                        keep.append(entry)
                self._defunct = keep
            total = sum(e.nbytes for e in self._published.values())
            if total <= self.shm_cache_bytes:
                return
            for key, entry in sorted(
                self._published.items(), key=lambda kv: kv[1].tick
            ):
                if total <= self.shm_cache_bytes:
                    break
                if entry.pins > 0:
                    continue
                entry.unlink()
                del self._published[key]
                total -= entry.nbytes

    # -- shared-oracle directory -----------------------------------------
    def _problem_key(self, shard: _StagedShard) -> tuple | None:
        """The worker-side problem-cache key this shard will look up."""
        if shard.dataset_key is None:
            return None
        task = shard.task
        return (task.app, shard.dataset_key, task.seed, task.validate)

    def _oracle_handles(self, staged: list) -> tuple[dict, list]:
        """Published handles for shards whose oracle some worker built.

        Returns ``(shard index -> handle, pinned records)``; pins hold
        eviction off while the handles are in flight.
        """
        handles: dict[int, SharedPayloadHandle] = {}
        pinned: list[_SharedPayloadRecord] = []
        if self.oracle_cache_bytes <= 0:
            return handles, pinned
        with self._shm_lock:
            for shard in staged:
                key = self._problem_key(shard)
                if key is None:
                    continue
                record = self._shared_oracles.get(key)
                if record is None:
                    continue
                record.pins += 1
                record.tick = next(self._clock)
                pinned.append(record)
                handles[shard.index] = record.handle
                self.oracle_reused += 1
        return handles, pinned

    def _adopt_publications(self, publications: list) -> None:
        """Take ownership of worker-published oracle blocks."""
        if not publications:
            return
        with self._shm_lock:
            for key, handle in publications:
                if (
                    self.oracle_cache_bytes <= 0
                    or key in self._shared_oracles
                ):
                    # Racing workers can build the same oracle in one
                    # sweep; first one in wins, duplicates are reclaimed.
                    _unlink_block(handle.shm_name)
                    continue
                record = _SharedPayloadRecord(handle)
                record.tick = next(self._clock)
                self._shared_oracles[key] = record
                self.oracle_published += 1
            self._evict_oracles_locked()

    def _evict_oracles_locked(self) -> None:
        total = sum(r.nbytes for r in self._shared_oracles.values())
        if total <= self.oracle_cache_bytes:
            return
        for key, record in sorted(
            self._shared_oracles.items(), key=lambda kv: kv[1].tick
        ):
            if total <= self.oracle_cache_bytes:
                break
            if record.pins > 0:
                continue
            record.unlink()
            del self._shared_oracles[key]
            total -= record.nbytes
            self.oracle_evicted += 1

    def _unpin_oracles(self, pinned: list) -> None:
        with self._shm_lock:
            for record in pinned:
                record.pins -= 1
            self._evict_oracles_locked()

    # -- placement --------------------------------------------------------
    def _assign(self, staged: list, share_oracles: bool,
                oracle_handles: dict) -> list[tuple]:
        """Place every staged shard: home slots, batches, work-stealing.

        Returns ``[(executing slot, (batch items...)), ...]``.  Homes
        come from rendezvous hashing the dataset content key (falling
        back to the dataset name for unfingerprintable payloads); each
        home group is batched contiguously, then whole batches are
        stolen -- deterministically, boundedly -- from slots whose load
        exceeds :data:`_STEAL_FACTOR` times the mean.
        """
        width = max(1, self._width)
        groups: list[list] = [[] for _ in range(width)]
        for shard in staged:
            key = shard.dataset_key
            if key is None:
                dataset = shard.task.dataset
                key = (
                    "unbundled",
                    getattr(dataset, "name", None)
                    or getattr(dataset, "dataset_name", ""),
                )
            shard.home = home_slot(key, width)
            groups[shard.home].append(shard)
        # (batch, stolen?) lists per executing slot.
        batches: list[list] = [
            [[batch, False] for batch in self._batch_group(group)]
            for group in groups
        ]
        loads = [
            sum(shard.weight for batch, _ in slot for shard in batch)
            for slot in batches
        ]
        mean = sum(loads) / width

        def batch_weight(batch: list) -> float:
            return sum(shard.weight for shard in batch)

        steals = 0
        while width > 1 and mean > 0 and steals < 2 * width:
            donor = max(range(width), key=loads.__getitem__)
            thief = min(range(width), key=loads.__getitem__)
            if donor == thief or loads[donor] <= self._STEAL_FACTOR * mean:
                break
            donor_batches = batches[donor]
            if len(donor_batches) == 1 and len(donor_batches[0][0]) > 1:
                # One oversized batch: split it at the weight midpoint
                # so the next round has a stealable unit.
                batch, stolen = donor_batches.pop(0)
                half = batch_weight(batch) / 2.0
                acc = 0.0
                cut = 1
                for i, shard in enumerate(batch[:-1]):
                    acc += shard.weight
                    if acc >= half:
                        cut = i + 1
                        break
                donor_batches.append([batch[:cut], stolen])
                donor_batches.append([batch[cut:], stolen])
                continue
            if len(donor_batches) <= 1:
                break  # a single indivisible shard: nothing to steal
            lightest = min(
                range(len(donor_batches)),
                key=lambda i: batch_weight(donor_batches[i][0]),
            )
            weight = batch_weight(donor_batches[lightest][0])
            if loads[thief] + weight >= loads[donor]:
                break  # moving it would not narrow the spread
            batch, _ = donor_batches.pop(lightest)
            batches[thief].append([batch, True])
            loads[donor] -= weight
            loads[thief] += weight
            steals += 1

        placed: list[tuple] = []
        for slot in range(width):
            for batch, stolen in batches[slot]:
                items = tuple(
                    _BatchItem(
                        task=shard.task,
                        index=shard.index,
                        dataset_key=shard.dataset_key,
                        placement={
                            "home": shard.home,
                            "slot": slot,
                            "mode": "stolen" if stolen else "sticky",
                        },
                        oracle=oracle_handles.get(shard.index),
                        publish=share_oracles,
                        weight=shard.weight,
                    )
                    for shard in batch
                )
                if stolen:
                    self.stolen_shards += len(items)
                else:
                    self.sticky_shards += len(items)
                placed.append((slot, items))
        return placed

    # -- execution ------------------------------------------------------
    def map_shards(self, tasks) -> list[list]:
        """Run every shard task; return per-shard row lists in order.

        Equivalent to ``[ _run_shard(t) for t in tasks ]`` but fanned out
        over the (persistent) pool, with sticky placement, batching and
        shared-memory dataset transport.  Deterministic exceptions
        raised inside a worker (bad app, validation failure) propagate
        after every in-flight batch settles, so successful batches'
        oracle publications are never leaked.

        Failure semantics (``batch_timeout`` > 0, the default): every
        batch gets a deadline -- the floor plus a weight-proportional
        allowance, cumulative per slot since one slot runs its batches
        serially.  A batch that misses its deadline has its worker
        SIGKILLed (the slot is respawned in place); batches lost to a
        timeout or a crashed worker are retried once on a neighbouring
        slot, then degraded to bounded in-parent execution.  Shards that
        still fail surface as synthetic rows with
        ``meta["status"]`` ``"timeout"``/``"error"`` instead of raising.
        Every row carries ``meta["attempts"]`` (1 = first try, 2 =
        retried, 3 = degraded) and ``meta["degraded"]``; a shard whose
        shm attach failed re-runs over pickle and is marked
        ``meta["transport_fallback"]``.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._ensure_pool(len(tasks))
        staged, pinned = self._stage(tasks)
        share_oracles = self.oracle_cache_bytes > 0
        oracle_handles, oracle_pinned = self._oracle_handles(staged)
        placed = self._assign(staged, share_oracles, oracle_handles)
        results: dict[int, list] = {}
        fallback_indexes: set[int] = set()
        try:
            error = self._run_placed(placed, tasks, results, fallback_indexes)
        finally:
            self._unpin(pinned)
            self._unpin_oracles(oracle_pinned)
        if error is not None:
            raise error
        for index in fallback_indexes:
            for row in results.get(index, ()):
                row.meta["transport_fallback"] = True
        self.sweeps += 1
        self.batches += len(placed)
        self.shards += len(tasks)
        return [results[index] for index in range(len(tasks))]

    def _run_placed(
        self,
        placed: list,
        tasks: list,
        results: dict,
        fallback_indexes: set,
    ) -> BaseException | None:
        """Drive the placed batches through at most three attempts.

        Round 1 runs the placement as planned.  Whatever it loses to
        crashes/timeouts is retried once on a neighbouring slot (round
        2), alongside pickle re-runs of shards whose shm attach failed.
        Anything round 2 loses is degraded to bounded in-parent
        execution, which always produces rows (synthetic error rows at
        worst).  Returns the first *deterministic* worker exception to
        re-raise after everything settles, or ``None``.
        """
        error, lost, bad_attach = self._await_round(placed, results, attempt=1)
        retry: list[tuple[int, tuple]] = []
        if bad_attach:
            retry.extend(
                self._transport_retry_batches(bad_attach, tasks, fallback_indexes)
            )
        if lost:
            self._respawn_dead_slots()
            width = max(1, self._width)
            for slot, items in lost:
                self.batch_retries += 1
                retry.append(((slot + 1) % width, items))
        if not retry:
            return error
        retry_error, lost2, bad2 = self._await_round(retry, results, attempt=2)
        error = error or retry_error
        leftovers = [item for _slot, items in lost2 for item in items]
        # A *retried* batch can itself hit an attach failure (its items
        # still carry shm handles); those shards degrade like the rest.
        leftovers.extend(item for item, _failure in bad2)
        for item in leftovers:
            self._degrade_shard(item, tasks[item.index], results)
        if lost2:
            self._respawn_dead_slots()
        return error

    def _batch_allowance(self, items) -> float:
        """Deadline seconds for one batch: floor + weight-linear term."""
        weight = sum(getattr(item, "weight", 0.0) for item in items)
        return self.batch_timeout + weight * _TIMEOUT_SECONDS_PER_WEIGHT

    def _await_round(
        self, placed: list, results: dict, attempt: int
    ) -> tuple[BaseException | None, list, list]:
        """Submit one round of batches and settle every future.

        Returns ``(deterministic error, lost batches, attach failures)``
        where lost batches are ``(slot, items)`` pairs that died to a
        timeout or a broken worker and attach failures are
        ``(item, _AttachFailure)`` pairs.
        """
        watchdog = self.batch_timeout > 0
        start = time.monotonic()
        slot_allowance: dict[int, float] = {}
        submitted = []
        for slot, items in placed:
            future = self._slots[slot].pool.submit(_run_batch, items)
            deadline = None
            if watchdog:
                slot_allowance[slot] = (
                    slot_allowance.get(slot, 0.0) + self._batch_allowance(items)
                )
                deadline = start + slot_allowance[slot]
            submitted.append((future, slot, items, deadline))
        error: BaseException | None = None
        lost: list[tuple[int, tuple]] = []
        bad_attach: list[tuple] = []
        for future, slot, items, deadline in submitted:
            try:
                if deadline is None:
                    shard_rows, publications = future.result()
                else:
                    shard_rows, publications = future.result(
                        timeout=max(0.05, deadline - time.monotonic())
                    )
            except _FuturesTimeout:
                self.batch_timeouts += 1
                self._kill_slot(slot)
                lost.append((slot, items))
                continue
            except BrokenExecutor:
                lost.append((slot, items))
                continue
            except BaseException as exc:
                if error is None:
                    error = exc
                continue
            self._adopt_publications(publications)
            for item, rows in zip(items, shard_rows):
                if isinstance(rows, _AttachFailure):
                    bad_attach.append((item, rows))
                    continue
                for row in rows:
                    row.meta["attempts"] = attempt
                    row.meta["degraded"] = False
                    row.meta.setdefault("status", "ok")
                results[item.index] = rows
        return error, lost, bad_attach

    def _kill_slot(self, slot_index: int) -> None:
        """SIGKILL a hung slot's worker and retire its pool in place."""
        slot = self._slots[slot_index]
        slot.dead = True
        processes = getattr(slot.pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already gone
                pass
        try:
            slot.pool.shutdown(wait=False)
        except Exception:  # pragma: no cover - defensive
            pass

    def _respawn_dead_slots(self) -> None:
        """Respawn killed/broken slots so a retry round has live workers."""
        with self._lock:
            respawned = False
            for i, slot in enumerate(self._slots):
                if slot.broken:
                    try:
                        slot.pool.shutdown(wait=False)
                    except Exception:  # pragma: no cover - defensive
                        pass
                    self._slots[i] = self._spawn_slot(i)
                    respawned = True
            if respawned:
                self.pool_spawns += 1

    def _transport_retry_batches(
        self, bad_attach: list, tasks: list, fallback_indexes: set
    ) -> list[tuple[int, tuple]]:
        """Pickle re-runs for shards whose shm attach failed.

        The condemned block leaves the publish cache (unlinked once its
        sweep pins drop) so later sweeps republish from the source
        arrays; the shard itself is resubmitted to its original slot
        carrying the real dataset instead of a handle.
        """
        batches: list[tuple[int, tuple]] = []
        for item, failure in bad_attach:
            self.transport_fallbacks += 1
            fallback_indexes.add(item.index)
            self._discard_published(failure.shm_name)
            _warn_transport_fallback(failure)
            batches.append((
                item.placement.get("slot", 0),
                (replace(item, task=tasks[item.index]),),
            ))
        return batches

    def _discard_published(self, shm_name: str) -> None:
        """Condemn one published block after a worker failed to attach it."""
        with self._shm_lock:
            for key, entry in list(self._published.items()):
                if entry.handle.shm_name == shm_name:
                    entry.defunct = True
                    self._defunct.append(entry)
                    del self._published[key]

    def _degrade_shard(self, item, task, results: dict) -> None:
        """Last resort: run one shard in the parent, on a bounded thread.

        ``task`` is the sweep's *original* task (real dataset, no shm
        handle).  A deterministic failure or a blown deadline yields
        synthetic error rows -- by this point the shard has already
        cost a worker twice, so surfacing a typed row beats raising.
        """
        from .plan_cache import global_plan_cache

        self.degraded_shards += 1
        prev_store = global_plan_cache().store_path
        outcome: dict = {}

        def _runner() -> None:
            from ..evaluation.harness import _run_shard

            try:
                outcome["rows"] = _run_shard(task, dataset_key=item.dataset_key)
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(
            target=_runner, daemon=True, name="repro-degraded-shard"
        )
        thread.start()
        timeout = (
            self._batch_allowance((item,)) if self.batch_timeout > 0 else None
        )
        thread.join(timeout)
        self._restore_plan_persistence(prev_store)
        if thread.is_alive():
            self.batch_timeouts += 1
            results[item.index] = self._error_rows(
                task, item, "timeout",
                "degraded in-parent execution exceeded its deadline",
            )
        elif "error" in outcome:
            exc = outcome["error"]
            results[item.index] = self._error_rows(
                task, item, "error", f"{type(exc).__name__}: {exc}"
            )
        else:
            rows = outcome["rows"]
            for row in rows:
                row.meta["attempts"] = 3
                row.meta["degraded"] = True
                row.meta.setdefault("status", "ok")
                row.meta["placement"] = self._degraded_placement(item)
            results[item.index] = rows

    @staticmethod
    def _degraded_placement(item) -> dict:
        return {
            "home": item.placement.get("home", 0),
            "slot": -1,
            "mode": "degraded",
            "pid": os.getpid(),
        }

    @staticmethod
    def _restore_plan_persistence(store_path) -> None:
        """Reattach the parent's plan persistence after a degraded run
        (the shard's ``_run_shard`` call reconfigures the process-global
        cache for *its* context; the parent must get its own back)."""
        from .plan_cache import configure_global_plan_cache

        try:
            configure_global_plan_cache(store_path)
        except Exception:  # pragma: no cover - restoration is best-effort
            pass

    def _error_rows(self, task, item, status: str, message: str) -> list:
        """Synthetic per-kernel rows for a shard that exhausted every
        attempt: ``elapsed`` 0.0, real dataset dims where known, and the
        failure typed in ``meta`` (``status``/``error``)."""
        from ..evaluation.harness import SweepRow

        dataset = task.dataset
        matrix = getattr(dataset, "matrix", None)
        try:
            num_rows = int(matrix.num_rows)
            num_cols = int(matrix.num_cols)
            nnzs = int(matrix.nnz)
        except (AttributeError, TypeError, ValueError):
            num_rows = num_cols = nnzs = 0
        name = getattr(dataset, "name", "") or getattr(
            dataset, "dataset_name", ""
        )
        rows = []
        for kernel in task.kernels:
            self.error_rows += 1
            rows.append(SweepRow(
                app=task.app,
                kernel=kernel,
                dataset=name,
                rows=num_rows,
                cols=num_cols,
                nnzs=nnzs,
                elapsed=0.0,
                meta={
                    "status": status,
                    "error": message,
                    "attempts": 3,
                    "degraded": True,
                    "placement": self._degraded_placement(item),
                },
            ))
        return rows

    def info(self) -> dict:
        with self._shm_lock:
            shm_cached = len(self._published)
            shm_cached_bytes = sum(e.nbytes for e in self._published.values())
            oracle_cached = len(self._shared_oracles)
            oracle_cached_bytes = sum(
                r.nbytes for r in self._shared_oracles.values()
            )
        return {
            "alive": self.alive,
            "width": self._width,
            "sweeps": self.sweeps,
            "batches": self.batches,
            "shards": self.shards,
            "pool_spawns": self.pool_spawns,
            "shm_published": self.shm_published,
            "shm_reused": self.shm_reused,
            "shm_cached": shm_cached,
            "shm_cached_bytes": shm_cached_bytes,
            "oracle_published": self.oracle_published,
            "oracle_reused": self.oracle_reused,
            "oracle_evicted": self.oracle_evicted,
            "oracle_cached": oracle_cached,
            "oracle_cached_bytes": oracle_cached_bytes,
            "sticky_shards": self.sticky_shards,
            "stolen_shards": self.stolen_shards,
            "batch_timeout": self.batch_timeout,
            "batch_timeouts": self.batch_timeouts,
            "batch_retries": self.batch_retries,
            "degraded_shards": self.degraded_shards,
            "error_rows": self.error_rows,
            "transport_fallbacks": self.transport_fallbacks,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"width={self._width}" if self.alive else "idle"
        return f"SweepExecutor({state}, sweeps={self.sweeps})"


# ----------------------------------------------------------------------
# Module-level default: one warm pool per process, shared by every
# ``run_suite(..., pool=default_executor())`` call site.
# ----------------------------------------------------------------------
_DEFAULT: SweepExecutor | None = None
_DEFAULT_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def default_executor(max_workers: int | None = None) -> SweepExecutor:
    """The process-wide persistent :class:`SweepExecutor`.

    Created lazily on first use and shut down at interpreter exit, or
    explicitly via :func:`shutdown_default_executor`.  An explicit
    ``max_workers`` raises the shared pool's width (the pool grows on
    the next sweep); it never shrinks a warm pool.
    """
    global _DEFAULT, _ATEXIT_REGISTERED
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = SweepExecutor(max_workers=max_workers)
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_default_executor)
                _ATEXIT_REGISTERED = True
            # Best effort (main thread only): atexit alone leaks shm on
            # SIGTERM/SIGINT deaths.
            install_signal_cleanup()
        elif max_workers is not None and (
            _DEFAULT.max_workers is None or max_workers > _DEFAULT.max_workers
        ):
            _DEFAULT.max_workers = max_workers
        return _DEFAULT


def shutdown_default_executor() -> None:
    """Tear down the shared pool (tests; long-lived host processes)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.shutdown()
            _DEFAULT = None


# ----------------------------------------------------------------------
# Signal cleanup: atexit never runs when the process dies on an
# unhandled SIGTERM/SIGINT, so a killed default-pool sweep would leak its
# /dev/shm dataset blocks and shared-oracle segments (named, kernel-
# persistent objects that outlive the process).  Installing chained
# handlers turns those deaths into an orderly shm unlink first.
# ----------------------------------------------------------------------
_SIGNAL_CHAIN: dict[int, object] = {}
_SIGNALS_INSTALLED = False


def _signal_cleanup(signum, frame) -> None:
    """Chained handler: unlink every shm segment, then defer onward."""
    global _DEFAULT
    import signal as _signal

    # Never block inside a signal handler: if the interrupted main
    # thread holds the module lock (mid default_executor()), steal the
    # reference without it -- worst case two shutdowns race, and
    # shutdown() is idempotent.
    locked = _DEFAULT_LOCK.acquire(blocking=False)
    try:
        pool, _DEFAULT = _DEFAULT, None
    finally:
        if locked:
            _DEFAULT_LOCK.release()
    if pool is not None:
        try:
            pool.shutdown()
        except Exception:
            pass
    previous = _SIGNAL_CHAIN.get(signum)
    if callable(previous):
        previous(signum, frame)
    elif previous == _signal.SIG_DFL:
        # Re-deliver under the default disposition so the exit status
        # still says "killed by signal" (process supervisors key on it).
        _signal.signal(signum, _signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    # SIG_IGN (or no previous handler): cleanup was the whole job.


def install_signal_cleanup() -> bool:
    """Unlink shm segments on SIGTERM/SIGINT, not only at interpreter exit.

    Installed lazily by :func:`default_executor` and safe to call
    directly from any long-lived host process.  The handlers *chain*:
    after cleanup the previously installed handler runs (Python's
    default SIGINT handler still raises ``KeyboardInterrupt``; a
    ``SIG_DFL`` disposition is re-delivered so the process still dies
    by signal).  Signals can only be installed from the main thread;
    anywhere else this is a no-op returning ``False``.
    """
    global _SIGNALS_INSTALLED
    if _SIGNALS_INSTALLED:
        return True
    import signal as _signal

    try:
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            previous = _signal.signal(signum, _signal_cleanup)
            if previous is not _signal_cleanup:
                _SIGNAL_CHAIN[signum] = previous
    except ValueError:  # not the main thread
        return False
    _SIGNALS_INSTALLED = True
    return True
