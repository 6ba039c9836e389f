"""Persistent sweep execution: warm worker pools + shared-memory transport.

A process sweep pays three costs serial does not: spawning workers,
shipping every dataset's arrays to them and warming each worker's plan
cache.  This module amortizes all three across sweeps, the same way
persistent GPU runtimes amortize context/handle creation across kernel
launches:

:class:`SweepExecutor`
    The one way a sweep fans out: a reusable, lazily-spawned worker pool
    owned by its caller (``with SweepExecutor(max_workers=N) as pool:
    run_suite(..., executor="process", pool=pool)``).  The pool survives
    across ``run_suite`` calls and across apps; workers are warmed once
    by an initializer (NumPy + the app registry imported, kernels
    precompiled) and keep their in-memory plan caches between sweeps.
    Every executor with live workers is shut down -- its shm blocks
    unlinked -- at interpreter exit, and on SIGTERM/SIGINT once
    :func:`install_signal_cleanup` has run.

Sticky placement & shard batching
    Every dataset has a *home worker*: its content key is rendezvous-
    (HRW-)hashed over the pool's worker slots, so the same dataset lands
    on the same worker sweep after sweep -- warm worker caches stop
    depending on scheduler luck, and crash-respawn or width growth remap
    only the minimum number of keys.  Load skew is corrected one shard
    at a time: while the most-loaded slot is well above the mean, its
    lightest shard moves to the least-loaded slot (deterministically).
    Each slot's final shard list is then cut by count into a few
    contiguous batches, so one pickle crossing carries several shards.
    Every row records its placement (home, executing slot, sticky vs
    stolen, worker pid) in ``meta["placement"]``.  Results come back per
    shard, in submission order.

Shared-memory transport
    A dataset is packed into an ordered list of named ``(dtype, shape,
    crc)`` segments in one :mod:`multiprocessing.shared_memory` block,
    and the task pickle carries a small :class:`ShmHandle` instead of
    the arrays.  A fixed codec table covers CSR matrices, COO sparse
    tensors (spmttkrp) and dense arrays.  The parent publishes each
    dataset once per content key (a staged task keeps its ``Dataset``
    with ``matrix`` swapped for the handle), owns every block in one
    pinned, byte-budgeted LRU directory and unlinks them; workers
    reattach zero-copy, CRC-verified, and keep an LRU of their mappings.
    A dataset no codec claims is pickled into the task, and so is any
    shard the executor re-runs -- including one whose worker failed to
    attach its block; either way the rows are identical
    :class:`~repro.evaluation.harness.SweepRow` sets.

Worker-resident problem/oracle cache
    Repeated sweeps of the same grid used to rebuild every dataset's
    problem instance and oracle per sweep.  :class:`ProblemCache` is a
    bounded, content-keyed (app, dataset fingerprint, seed, validate)
    cache living in each worker process.  Sticky placement sends a
    dataset to the same worker every sweep, so steady-state sweeps on a
    warm pool are problem-build-free *and* oracle-free; an entry lost to
    eviction or a respawned worker is rebuilt locally.  Hit/miss
    counters surface through ``SweepRow.meta``.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import os
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
    "ArraySegment",
    "ShmHandle",
    "publish_payload",
    "attach_payload",
    "home_slot",
    "ProblemCache",
    "problem_cache",
    "clear_problem_cache",
    "install_signal_cleanup",
]

#: Default floor, in seconds, of the per-batch watchdog deadline (the
#: full allowance also scales with the batch's staged weight).
#: ``batch_timeout=0`` (or negative) disables the watchdog.
DEFAULT_BATCH_TIMEOUT = 300.0

#: Extra deadline seconds granted per unit of staged batch weight
#: (weight ~ array elements + a fixed per-dataset overhead), so huge
#: batches are not misdiagnosed as hangs at the floor.
_TIMEOUT_SECONDS_PER_WEIGHT = 1e-6

#: Byte budget of the parent's published-dataset directory.
_DATASET_BLOCK_BYTES = 256 * 1024 * 1024


def _shared_memory():
    """The stdlib shared-memory module, or ``None`` when unsupported."""
    try:
        from multiprocessing import shared_memory

        return shared_memory
    except ImportError:  # pragma: no cover - always present on CPython
        return None


# ----------------------------------------------------------------------
# Shared-memory transport: datasets as CRC-checked array blocks
# ----------------------------------------------------------------------
#: Segment offsets inside a block are padded to this boundary so every
#: dtype reattaches aligned, whatever precedes it.
_SEGMENT_ALIGN = 16


def _freeze(value):
    """Canonical hashable form of a codec ``extra`` value (content keys)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class ArraySegment:
    """One named array inside a shared-memory block."""

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


@dataclass(frozen=True)
class ShmHandle:
    """Picklable stand-in for a payload whose arrays live in one shm block.

    The handle carries only the block name, the codec that rebuilds the
    payload and the ordered segment list; an attacher maps each segment
    as a zero-copy NumPy view over the block and hands the views to the
    codec's ``unpack``.
    """

    shm_name: str
    codec: str
    segments: tuple[ArraySegment, ...]
    extra: dict = field(default_factory=dict)


#: The transport's codecs, consulted in order: ``name -> (claims, pack,
#: unpack)``.  ``pack`` flattens a payload into ordered named arrays plus
#: picklable ``extra`` metadata; ``unpack(arrays, extra)`` rebuilds it
#: from zero-copy views.
_CODECS: dict[str, tuple[Callable, Callable, Callable]] = {
    "csr": (
        lambda p: isinstance(p, CsrMatrix),
        lambda m: (
            [("row_offsets", m.row_offsets), ("col_indices", m.col_indices),
             ("values", m.values)],
            {"shape": m.shape},
        ),
        lambda arrays, extra: CsrMatrix(
            row_offsets=arrays["row_offsets"],
            col_indices=arrays["col_indices"],
            values=arrays["values"],
            shape=tuple(extra["shape"]),
        ),
    ),
    "tensor3": (
        lambda p: isinstance(p, SparseTensor3),
        lambda t: (
            [("i", t.i), ("j", t.j), ("k", t.k), ("values", t.values)],
            {"shape": t.shape},
        ),
        # Direct construction, not from_arrays: the published coordinates
        # already satisfy the sorted-by-mode-0 invariant, and re-sorting
        # would copy the views the transport exists to avoid.
        lambda arrays, extra: SparseTensor3(
            i=arrays["i"], j=arrays["j"], k=arrays["k"],
            values=arrays["values"], shape=tuple(extra["shape"]),
        ),
    ),
    "dense": (
        # Object arrays hold process-local pointers (their raw bytes would
        # hand workers foreign addresses), and a structured dtype's string
        # is a bare void the fill cannot cast into: both are left unclaimed.
        lambda p: (
            isinstance(p, np.ndarray)
            and not p.dtype.hasobject
            and p.dtype.fields is None
        ),
        lambda a: ([("data", a)], {}),
        lambda arrays, extra: arrays["data"],
    ),
}

def _pack(payload: Any):
    """``(codec, [(label, contiguous array), ...], extra, crcs)``, or
    ``None`` when no codec claims ``payload``."""
    codec = next(
        (name for name, (claims, _, _) in _CODECS.items() if claims(payload)),
        None,
    )
    if codec is None:
        return None
    arrays, extra = _CODECS[codec][1](payload)
    arrays = [(label, np.ascontiguousarray(arr)) for label, arr in arrays]
    return codec, arrays, extra, [zlib.crc32(arr) for _, arr in arrays]


def _content_key(name: str, packed: tuple) -> tuple:
    codec, arrays, extra, crcs = packed
    return (
        name,
        codec,
        tuple(
            (label, arr.dtype.str, arr.shape, crc)
            for (label, arr), crc in zip(arrays, crcs)
        ),
        _freeze(extra),
    )


def dataset_content_key(dataset: Dataset) -> tuple | None:
    """Cheap content fingerprint of a transportable dataset.

    Keys the parent's dataset directory, sticky placement and the
    workers' problem/oracle cache.  Name and shape alone are not enough
    -- the same corpus name at a different scale (or a caller-mutated
    payload) must republish -- so the key includes a CRC per packed
    array.  The CRC pass is paid on every staging, but it costs about as
    much as one copy of the data -- cheap against what a hit saves (shm
    create + copy + worker reattach, or a problem/oracle rebuild).
    Returns ``None`` for payloads no codec claims.
    """
    packed = _pack(dataset.matrix)
    return None if packed is None else _content_key(dataset.name, packed)


def _publish(payload: Any, *, packed=None):
    """Pack, checksum, lay out, create and fill one block.

    Returns its :class:`ShmHandle`, or ``None`` when the payload cannot
    travel (no codec, shared memory unavailable, allocation refused, a
    fill error) -- the caller then pickles it into the task.  A
    block that fails to fill is unlinked first, so a refused publish
    leaves no shared memory behind.  The publisher keeps no mapping: the
    block lives until the parent unlinks it by name.  ``packed`` reuses
    a pack + CRC pass the caller already paid for.
    """
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - always present
        return None
    packed = packed or _pack(payload)
    if packed is None:
        return None
    codec, arrays, extra, crcs = packed
    segments = []
    offset = 0
    for (label, arr), crc in zip(arrays, crcs):
        offset = (offset + _SEGMENT_ALIGN - 1) // _SEGMENT_ALIGN * _SEGMENT_ALIGN
        segments.append(ArraySegment(label, arr.dtype.str, arr.shape, crc, offset))
        offset += arr.nbytes
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    except OSError:
        return None
    try:
        for seg, (_, arr) in zip(segments, arrays):
            np.ndarray(
                seg.shape, dtype=seg.dtype, buffer=shm.buf, offset=seg.offset
            )[:] = arr
    except Exception:
        detach(shm)
        shm.unlink()
        return None
    detach(shm)
    return ShmHandle(shm.name, codec, tuple(segments), dict(extra))


def _attach(handle: ShmHandle) -> tuple[Any, Any]:
    """Map ``handle``'s block, CRC-verify every segment and unpack it.

    Returns ``(payload, shm)``: the payload is zero-copy views over the
    mapping, which the caller releases with :func:`detach`.  Raises on
    any failure (unknown codec, vanished block, CRC mismatch), after
    releasing the mapping.
    """
    unpack = _CODECS[handle.codec][2]
    # Pool workers are children of the publisher, so they share its
    # resource-tracker process: the attach-side register is a set no-op
    # and exactly one unregister happens at the parent's unlink.  (An
    # *unrelated* attacher would need bpo-39959's unregister dance; this
    # transport never crosses that topology.)
    shm = _shared_memory().SharedMemory(name=handle.shm_name)
    arrays: dict = {}
    try:
        for seg in handle.segments:
            arrays[seg.label] = np.ndarray(
                seg.shape, dtype=seg.dtype, buffer=shm.buf, offset=seg.offset
            )
            if zlib.crc32(arrays[seg.label]) != seg.crc:
                raise ValueError(
                    f"shared-memory segment {seg.label!r} of block "
                    f"{handle.shm_name!r} failed its CRC check"
                )
        payload = unpack(arrays, dict(handle.extra))
    except BaseException:
        arrays.clear()
        detach(shm)
        raise
    return payload, shm


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


def detach(shm) -> None:
    """Close an attachment, tolerating lingering array views."""
    try:
        shm.close()
    except BufferError:
        gc.collect()  # drop cycles still holding buffer views
        try:
            shm.close()
        except BufferError:  # released at process exit instead
            pass


#: This worker's attachments, ``shm_name -> (shm, payload)`` in LRU
#: order (oldest first).  Block names are random and never reused while
#: a pool runs, so an entry can never alias different content; the
#: parent keeps a block alive for at least as long as any task
#: referencing it is in flight.
_ATTACHMENTS: OrderedDict[str, tuple] = OrderedDict()
_ATTACH_CAP = 256


def _attached(handle: ShmHandle, attach=_attach) -> Any:
    """The payload of ``handle`` in this worker, attached on first use."""
    cached = _ATTACHMENTS.get(handle.shm_name)
    if cached is not None:
        _ATTACHMENTS.move_to_end(handle.shm_name)
        return cached[1]
    payload, shm = attach(handle)
    while len(_ATTACHMENTS) >= _ATTACH_CAP:
        # Evict least-recently-used, never the entry just fetched.
        _, (old_shm, old_payload) = _ATTACHMENTS.popitem(last=False)
        del old_payload  # drop the buffer views before closing
        detach(old_shm)
    _ATTACHMENTS[handle.shm_name] = (shm, payload)
    return payload


def _attach_dataset_block(handle: ShmHandle) -> tuple[Any, Any]:
    """:func:`_attach` behind the ``shm.attach`` fault site: an injected
    ``crc``/``drop`` fails like a corrupt/vanished block would."""
    fault = inject("shm.attach")
    if fault == "crc":
        raise ValueError(
            f"shared-memory block {handle.shm_name!r} failed its CRC check "
            f"(injected fault)"
        )
    if fault == "drop":
        raise FileNotFoundError(
            f"shared-memory block {handle.shm_name!r} vanished "
            f"(injected fault)"
        )
    return _attach(handle)


def publish_dataset(dataset: Dataset, *, _packed=None) -> _Block | None:
    """Publish one dataset's payload to a shared-memory block.

    Returns the parent-side :class:`_Block`, whose ``handle`` is the
    staged dataset (``matrix`` swapped for a :class:`ShmHandle`), or
    ``None`` when the dataset cannot travel this way -- callers then
    pickle the dataset itself.  ``_packed`` lets staging reuse the pack
    + CRC pass it already paid for the content key.
    """
    if inject("shm.publish") is not None:
        return None  # injected publish refusal: caller falls back to pickle
    handle = _publish(dataset.matrix, packed=_packed)
    return None if handle is None else _Block(replace(dataset, matrix=handle))


def attach_dataset(dataset: Dataset) -> tuple[Dataset, object]:
    """Rebuild a staged dataset over its shared-memory block.

    Returns ``(dataset, shm)``; the caller releases the block with
    :func:`detach` once the shard's rows are computed.  Any failure
    raises -- the executor then re-runs the shard pickled.
    """
    matrix, shm = _attach_dataset_block(dataset.matrix)
    return replace(dataset, matrix=matrix), shm


def publish_payload(payload: Any) -> ShmHandle | None:
    """Publish one codec-claimed payload to its own shared-memory block.

    The sweep itself ships datasets only (see :func:`publish_dataset`);
    this pair stays public so a caller can time the transport on other
    payloads (perfbench's probe publishes spmv oracles through it).
    ``None`` means no codec claims the payload or the publish failed;
    the caller owns the block and unlinks it by ``shm_name``.
    """
    return _publish(payload)


def attach_payload(handle: ShmHandle) -> Any | None:
    """Reattach a :func:`publish_payload` block in this process.

    Returns zero-copy views (cached like a dataset attachment), or
    ``None`` on *any* failure -- a vanished block, CRC mismatch,
    unknown codec.
    """
    try:
        return _attached(handle)
    except Exception:
        return None


class _Block:
    """Parent-side record of one published dataset block.

    ``handle`` is the staged dataset that ships to workers (``matrix``
    swapped for its :class:`ShmHandle`); ``pins`` hold eviction off
    while tasks carrying it are in flight and ``tick`` orders LRU
    eviction.  The parent reclaims the block by name.
    """

    def __init__(self, handle: Dataset) -> None:
        self.handle = handle
        self.shm_name = handle.matrix.shm_name
        self.nbytes = max(
            (seg.offset + seg.nbytes for seg in handle.matrix.segments),
            default=0,
        )
        self.pins = 0
        self.tick = 0

    def unlink(self) -> None:
        _unlink_block(self.shm_name)


class _BlockDirectory:
    """The blocks the parent owns: content-keyed, pinned, LRU-budgeted.

    A pinned block is never evicted.  A *condemned* block (a worker
    failed to attach it) leaves its content key at once, so the next
    sweep republishes, and is unlinked as soon as its pins drop.  The
    executor holds its shm lock around every call.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.evictions = 0
        self._clock = itertools.count()
        self._blocks: dict = {}

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self._blocks.values())

    def pin(self, key) -> _Block | None:
        """The block filed under ``key``, pinned, or ``None``."""
        block = self._blocks.get(key)
        if block is not None:
            block.pins += 1
            block.tick = next(self._clock)
        return block

    def adopt(self, key, block: _Block) -> bool:
        """File ``block`` under ``key``; ``False`` if the key is taken."""
        if key in self._blocks:
            return False
        block.tick = next(self._clock)
        self._blocks[key] = block
        return True

    def condemn(self, shm_name: str) -> None:
        for key, block in list(self._blocks.items()):
            if block.shm_name == shm_name:
                # Re-filed under its name (content keys are tuples, so
                # nothing can hit it) and first in eviction order.
                block.tick = -1
                self._blocks[shm_name] = self._blocks.pop(key)

    def release(self, blocks=()) -> None:
        """Drop ``blocks``' pins, then unlink condemned blocks and cold
        ones until the directory fits its byte budget."""
        for block in blocks:
            block.pins -= 1
        total = self.nbytes
        for key, block in sorted(
            self._blocks.items(), key=lambda kv: kv[1].tick
        ):
            if total <= self.budget and block.tick >= 0:
                break
            if block.pins > 0:
                continue
            block.unlink()
            del self._blocks[key]
            total -= block.nbytes
            self.evictions += 1

    def clear(self) -> None:
        for block in self._blocks.values():
            block.unlink()
        self._blocks.clear()


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
def _worker_warmup() -> None:
    """Pool initializer: pay the import + JIT cost exactly once."""
    inject("worker.start")
    import numpy  # noqa: F401  (pre-faulted into the worker)

    from .. import apps  # noqa: F401  (registers every app and schedule)
    from .compiled import precompile_kernels

    # Pay the JIT cost here, not in the first timed launch: the apps
    # import above registered every kernel declaration, and with numba
    # absent this is a no-op.
    precompile_kernels()



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
    the same grid skip the problem build *and* the oracle entirely.
    Keys are ``(app, dataset fingerprint, seed, validate)`` -- the
    fingerprint is the same per-array-CRC content key the shm transport
    publishes under, so a seed change, a ``validate`` flip or mutated
    dataset content each miss instead of serving a stale entry (problem
    construction is independent of the execution context, so ctx changes
    need no invalidation).  Both budgets are explicit: ``max_entries``
    (default 64) bounds the count and ``max_bytes`` (default 512 MiB)
    the estimated resident array bytes, with least-recently-used
    eviction.
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
            }


_PROBLEM_CACHE: ProblemCache | None = None
_PROBLEM_CACHE_LOCK = threading.Lock()


def problem_cache() -> ProblemCache:
    """This process's problem/oracle cache (default budgets, created
    lazily)."""
    global _PROBLEM_CACHE
    with _PROBLEM_CACHE_LOCK:
        if _PROBLEM_CACHE is None:
            _PROBLEM_CACHE = ProblemCache()
        return _PROBLEM_CACHE


def clear_problem_cache() -> None:
    """Drop the process cache (tests; a fresh one is built next use)."""
    global _PROBLEM_CACHE
    with _PROBLEM_CACHE_LOCK:
        _PROBLEM_CACHE = None


def _forget_parent_cache() -> None:
    """A forked worker starts with an empty cache of its own: the parent's
    entries are problems and oracles this worker never built, and a lock
    a parent thread held at fork time would never be released here."""
    global _PROBLEM_CACHE, _PROBLEM_CACHE_LOCK
    _PROBLEM_CACHE = None
    _PROBLEM_CACHE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_parent_cache)


@dataclass
class _Shard:
    """One shard of a sweep, from staging through placement to retry.

    ``task`` is the staged task (its dataset swapped for a shm handle
    when published); a retry carries the sweep's original task instead.
    ``dataset_key`` is the staging-time content fingerprint (computed
    once in the parent, published or not, so workers never pay a fresh
    CRC pass); ``weight`` (array elements plus a fixed per-dataset
    overhead) drives stealing and the watchdog allowance.  ``home`` is
    the rendezvous slot, ``slot`` the one that runs the shard.
    """

    task: Any
    index: int  # position in the sweep's original shard order
    dataset_key: tuple | None
    weight: float
    home: int = 0
    slot: int = 0

    @property
    def placement(self) -> dict:
        """The shard's ``meta["placement"]``, less the worker pid."""
        return {
            "home": self.home,
            "slot": self.slot,
            "mode": "sticky" if self.slot == self.home else "stolen",
        }


@dataclass(frozen=True)
class _AttachFailure:
    """Worker-side marker returned in a shard's row slot when its shm
    attach failed (CRC mismatch, vanished block, unknown codec); the
    parent condemns the published block and re-runs the shard over the
    pickle transport instead of failing the batch."""

    shm_name: str
    error: str


def _run_batch(shards: tuple) -> list:
    """Run one placed batch of shards; one pickle crossing each way.

    Returns the per-shard row lists.  A shard whose shm attach fails
    yields an :class:`_AttachFailure` in its row slot; the rest of the
    batch still runs.
    """
    from ..evaluation.harness import _run_shard

    inject("worker.batch")
    out = []
    pid = os.getpid()
    for shard in shards:
        task = shard.task
        handle = task.dataset.matrix
        if isinstance(handle, ShmHandle):
            try:
                matrix = _attached(handle, _attach_dataset_block)
            except (OSError, ValueError, KeyError) as exc:
                out.append(_AttachFailure(
                    shm_name=handle.shm_name,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                continue
            task = replace(task, dataset=replace(task.dataset, matrix=matrix))
        rows = _run_shard(task, dataset_key=shard.dataset_key)
        for row in rows:
            row.meta["placement"] = {**shard.placement, "pid": pid}
        out.append(rows)
    return out


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
    corrected by deterministic work-stealing of single shards (see
    :meth:`_assign`), and each slot's shards are cut by count into
    contiguous batches.

    The caller owns the pool: use it as a context manager (or call
    :meth:`shutdown`), and pass it to every sweep that should share its
    warm workers (``run_suite(..., executor="process", pool=pool)``).
    ``batch_timeout`` is the watchdog floor in seconds per batch (see
    :meth:`map_shards`); ``0`` disables the watchdog.  An executor with
    live workers sits in a module-level live set until :meth:`shutdown`,
    so interpreter exit -- and SIGTERM/SIGINT once
    :func:`install_signal_cleanup` has run -- still unlinks its shm.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        batch_timeout: float = DEFAULT_BATCH_TIMEOUT,
    ):
        self.max_workers = max_workers
        self.batch_timeout = float(batch_timeout)
        self._slots: list[_WorkerSlot] = []
        self._width = 0
        self._lock = threading.Lock()
        # Guards the directory of published dataset blocks.
        self._shm_lock = threading.Lock()
        self._datasets = _BlockDirectory(_DATASET_BLOCK_BYTES)
        self.sweeps = 0
        self.batches = 0
        self.shards = 0
        self.pool_spawns = 0
        self.shm_published = 0
        self.shm_reused = 0
        self.sticky_shards = 0
        self.stolen_shards = 0
        # Failure-path telemetry (see map_shards): watchdog expiries,
        # batches lost to a timeout or crash (their shards re-run on
        # the next slot), shards run in-parent, synthetic error rows
        # emitted, and shm attaches degraded to pickling.
        self.batch_timeouts = 0
        self.batch_retries = 0
        self.degraded_shards = 0
        self.error_rows = 0
        self.transport_fallbacks = 0
        # Problem-cache outcomes of the shards returned, one per shard
        # (read from its rows' ``meta["problem_cache"]``).
        self.problem_cache_hits = 0
        self.problem_cache_misses = 0

    # -- pool lifecycle -------------------------------------------------
    def _spawn_slot(self, index: int) -> _WorkerSlot:
        return _WorkerSlot(
            index=index,
            pool=ProcessPoolExecutor(max_workers=1, initializer=_worker_warmup),
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
                _LIVE.add(self)
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
            self._datasets.clear()
        _LIVE.discard(self)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- batching & transport -------------------------------------------
    @staticmethod
    def _payload_atoms(task) -> int:
        matrix = task.dataset.matrix
        try:
            return max(1, int(matrix.nnz) + int(matrix.num_rows))
        except AttributeError:
            return 1

    #: Per-dataset fixed cost expressed in atom equivalents: at smoke
    #: scale a cell's Python overhead (context, policy, fingerprints)
    #: dwarfs its arithmetic, so stealing on raw atoms alone would
    #: leave many tiny datasets piled on one straggler slot.
    _BATCH_BASE_WEIGHT = 2000

    #: Batches each slot's shards are cut into: one pickle crossing
    #: carries several shards, and a crashed or hung worker loses only
    #: the batches it had not finished.
    _BATCHES_PER_SLOT = 2

    #: A slot may exceed the mean sweep load by this factor before its
    #: shards are stolen; below it, stickiness wins over balance.
    _STEAL_FACTOR = 1.25

    def _stage(self, tasks: list) -> tuple[list, list]:
        """Fingerprint every dataset and swap payloads for shm handles.

        One pack + CRC pass per dataset yields the content key that
        drives both reuse layers -- the dataset directory and sticky
        placement (and so the workers' problem caches).  Codec-claimed
        payloads are
        published to shared memory once per key: repeated sweeps of the
        same corpus pin the already-published blocks instead of copying
        again, and anything else (or a refused publish) travels pickled
        in the task.  Returns ``(shards, pinned_blocks)``; the caller
        releases the pins after the sweep.
        """
        shards: list[_Shard] = []
        pinned: list[_Block] = []
        try:
            with self._shm_lock:
                for index, task in enumerate(tasks):
                    packed = _pack(task.dataset.matrix)
                    key = None
                    staged_task = task
                    if packed is not None:
                        key = _content_key(task.dataset.name, packed)
                        block = self._datasets.pin(key)
                        if block is not None:
                            self.shm_reused += 1
                        else:
                            block = publish_dataset(task.dataset, _packed=packed)
                            if block is not None:
                                self._datasets.adopt(key, block)
                                self._datasets.pin(key)
                                self.shm_published += 1
                        if block is not None:
                            pinned.append(block)
                            staged_task = replace(task, dataset=block.handle)
                    shards.append(_Shard(
                        task=staged_task,
                        index=index,
                        dataset_key=key,
                        weight=self._payload_atoms(task)
                        + self._BATCH_BASE_WEIGHT,
                    ))
        except Exception:
            with self._shm_lock:
                self._datasets.release(pinned)
            raise
        return shards, pinned

    # -- placement --------------------------------------------------------
    def _assign(self, shards: list, width: int) -> list[tuple]:
        """Place every shard on a slot, then cut the slots into batches.

        Sets each shard's ``home`` and ``slot`` and returns ``[(slot,
        (shard, ...)), ...]``, in three steps:

        1. Each shard starts on its home slot, the rendezvous hash of
           its dataset content key (of the dataset name for payloads
           with no key).
        2. While the most-loaded slot exceeds :data:`_STEAL_FACTOR`
           times the mean load, its lightest shard moves to the least-
           loaded slot -- as long as that narrows the gap between the
           two.  Each move lowers the sum of squared slot loads, so
           the loop ends, and ties break by slot index and shard order,
           so the same grid is placed the same way every sweep.
        3. :meth:`_cut` cuts each slot's shards into batches.
        """
        width = max(1, width)
        loads = [0.0] * width
        for shard in shards:
            key = shard.dataset_key
            if key is None:
                key = ("unbundled", shard.task.dataset.name)
            shard.home = shard.slot = home_slot(key, width)
            loads[shard.home] += shard.weight
        limit = self._STEAL_FACTOR * sum(loads) / width
        while True:
            donor = max(range(width), key=loads.__getitem__)
            thief = min(range(width), key=loads.__getitem__)
            if loads[donor] <= limit:
                break
            shard = min(
                (s for s in shards if s.slot == donor),
                key=lambda s: s.weight,
            )
            if loads[thief] + shard.weight >= loads[donor]:
                break  # moving it would not narrow the spread
            shard.slot = thief
            loads[donor] -= shard.weight
            loads[thief] += shard.weight
        return self._cut(shards)

    def _cut(self, shards: list) -> list[tuple]:
        """Each slot's shards, in sweep order, cut by count into
        :data:`_BATCHES_PER_SLOT` contiguous batches: ``[(slot, (shard,
        ...)), ...]``."""
        by_slot: dict[int, list] = {}
        for shard in shards:
            by_slot.setdefault(shard.slot, []).append(shard)
        placed: list[tuple] = []
        for slot, group in sorted(by_slot.items()):
            parts = min(len(group), self._BATCHES_PER_SLOT)
            bounds = [len(group) * i // parts for i in range(parts + 1)]
            placed.extend(
                (slot, tuple(group[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])
            )
        return placed

    # -- execution ------------------------------------------------------
    def map_shards(self, tasks) -> list[list]:
        """Run every shard task; return per-shard row lists in order.

        Equivalent to ``[ _run_shard(t) for t in tasks ]`` but fanned out
        over the (persistent) pool, with sticky placement, shard
        stealing, batching and shared-memory dataset transport.
        Deterministic exceptions raised inside a worker (bad app,
        validation failure) propagate after every in-flight batch
        settles.

        Failure semantics (``batch_timeout`` > 0, the default): every
        batch gets a deadline -- the floor plus a weight-proportional
        allowance, cumulative per slot since one slot runs its batches
        serially.  A batch that misses its deadline has its worker
        SIGKILLed (the slot is respawned in place).  One retry rule
        covers every shard the first round did not finish -- lost to a
        timeout, a crashed worker or a failed shm attach: it re-runs
        once, on the next slot, carrying its original pickled task;
        anything that round loses degrades to bounded in-parent
        execution.  Shards that still fail surface as synthetic rows
        with ``meta["status"]`` ``"timeout"``/``"error"`` instead of
        raising.  Every row carries ``meta["attempts"]`` (1 = first try,
        2 = retried, 3 = degraded), ``meta["degraded"]`` and the slot
        it actually ran on in ``meta["placement"]``; a shard whose shm
        attach failed is marked ``meta["transport_fallback"]``.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._ensure_pool(len(tasks))
        shards, pinned = self._stage(tasks)
        placed = self._assign(shards, self._width)
        sticky = sum(shard.slot == shard.home for shard in shards)
        self.sticky_shards += sticky
        self.stolen_shards += len(shards) - sticky
        results: dict[int, list] = {}
        fallback_indexes: set[int] = set()
        try:
            error = self._run_placed(placed, tasks, results, fallback_indexes)
        finally:
            with self._shm_lock:
                self._datasets.release(pinned)
        if error is not None:
            raise error
        for index in fallback_indexes:
            for row in results.get(index, ()):
                row.meta["transport_fallback"] = True
        for rows in results.values():
            outcome = rows[0].meta.get("problem_cache") if rows else None
            self.problem_cache_hits += outcome == "hit"
            self.problem_cache_misses += outcome == "miss"
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

        Round 1 runs the placement as planned.  Every shard it did not
        finish -- its batch timed out or its worker crashed, or its shm
        attach failed (the block is condemned, so later sweeps
        republish) -- re-runs once in round 2, on the next slot, with
        its original task: round 2 ships no shm handle, so it cannot
        fail an attach.  Anything round 2 loses is degraded to bounded
        in-parent execution, which always produces rows (synthetic
        error rows at worst).  Returns the first *deterministic* worker
        exception to re-raise after everything settles, or ``None``.
        """
        error, lost, bad_attach = self._await_round(placed, results, attempt=1)
        self.batch_retries += len(lost)
        for shard, failure in bad_attach:
            self.transport_fallbacks += 1
            fallback_indexes.add(shard.index)
            with self._shm_lock:
                self._datasets.condemn(failure.shm_name)
            _warn_transport_fallback(failure)
        unfinished = [shard for _slot, batch in lost for shard in batch]
        unfinished.extend(shard for shard, _failure in bad_attach)
        if not unfinished:
            return error
        self._respawn_dead_slots()
        width = max(1, self._width)
        retry = [
            replace(shard, task=tasks[shard.index], slot=(shard.slot + 1) % width)
            for shard in sorted(unfinished, key=lambda s: s.index)
        ]
        retry_error, lost2, _ = self._await_round(
            self._cut(retry), results, attempt=2
        )
        for _slot, batch in lost2:
            for shard in batch:
                self._degrade_shard(shard, results)
        if lost2:
            self._respawn_dead_slots()
        return error or retry_error

    def _batch_allowance(self, shards) -> float:
        """Deadline seconds for one batch: floor + weight-linear term."""
        weight = sum(shard.weight for shard in shards)
        return self.batch_timeout + weight * _TIMEOUT_SECONDS_PER_WEIGHT

    def _await_round(
        self, placed: list, results: dict, attempt: int
    ) -> tuple[BaseException | None, list, list]:
        """Submit one round of batches and settle every future.

        Returns ``(deterministic error, lost batches, attach failures)``
        where lost batches are ``(slot, shards)`` pairs that died to a
        timeout or a broken worker and attach failures are
        ``(shard, _AttachFailure)`` pairs.
        """
        watchdog = self.batch_timeout > 0
        start = time.monotonic()
        slot_allowance: dict[int, float] = {}
        submitted = []
        for slot, batch in placed:
            future = self._slots[slot].pool.submit(_run_batch, batch)
            deadline = None
            if watchdog:
                slot_allowance[slot] = (
                    slot_allowance.get(slot, 0.0) + self._batch_allowance(batch)
                )
                deadline = start + slot_allowance[slot]
            submitted.append((future, slot, batch, deadline))
        error: BaseException | None = None
        lost: list[tuple[int, tuple]] = []
        bad_attach: list[tuple] = []
        for future, slot, batch, deadline in submitted:
            try:
                if deadline is None:
                    shard_rows = future.result()
                else:
                    shard_rows = future.result(
                        timeout=max(0.05, deadline - time.monotonic())
                    )
            except _FuturesTimeout:
                self.batch_timeouts += 1
                self._kill_slot(slot)
                lost.append((slot, batch))
                continue
            except BrokenExecutor:
                lost.append((slot, batch))
                continue
            except BaseException as exc:
                if error is None:
                    error = exc
                continue
            for shard, rows in zip(batch, shard_rows):
                if isinstance(rows, _AttachFailure):
                    bad_attach.append((shard, rows))
                    continue
                for row in rows:
                    row.meta["attempts"] = attempt
                    row.meta["degraded"] = False
                    row.meta.setdefault("status", "ok")
                results[shard.index] = rows
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

    def _degrade_shard(self, shard: _Shard, results: dict) -> None:
        """Last resort: run one shard in the parent, on a bounded thread.

        ``shard`` comes from the retry round, so it carries the sweep's
        *original* task (real dataset, no shm handle).  A deterministic
        failure or a blown deadline yields synthetic error rows -- by
        this point the shard has already cost a worker twice, so
        surfacing a typed row beats raising.
        """
        self.degraded_shards += 1
        outcome: dict = {}

        def _runner() -> None:
            from ..evaluation.harness import _run_shard

            try:
                outcome["rows"] = _run_shard(
                    shard.task, dataset_key=shard.dataset_key
                )
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(
            target=_runner, daemon=True, name="repro-degraded-shard"
        )
        thread.start()
        timeout = (
            self._batch_allowance((shard,)) if self.batch_timeout > 0 else None
        )
        thread.join(timeout)
        if thread.is_alive():
            self.batch_timeouts += 1
            results[shard.index] = self._error_rows(
                shard, "timeout",
                "degraded in-parent execution exceeded its deadline",
            )
        elif "error" in outcome:
            exc = outcome["error"]
            results[shard.index] = self._error_rows(
                shard, "error", f"{type(exc).__name__}: {exc}"
            )
        else:
            rows = outcome["rows"]
            for row in rows:
                row.meta["attempts"] = 3
                row.meta["degraded"] = True
                row.meta.setdefault("status", "ok")
                row.meta["placement"] = self._degraded_placement(shard)
            results[shard.index] = rows

    @staticmethod
    def _degraded_placement(shard: _Shard) -> dict:
        return {
            "home": shard.home,
            "slot": -1,
            "mode": "degraded",
            "pid": os.getpid(),
        }

    def _error_rows(self, shard: _Shard, status: str, message: str) -> list:
        """Synthetic per-kernel rows for a shard that exhausted every
        attempt: ``elapsed`` 0.0, real dataset dims where known, and the
        failure typed in ``meta`` (``status``/``error``)."""
        from ..evaluation.harness import SweepRow

        task = shard.task
        matrix = task.dataset.matrix
        try:
            num_rows = int(matrix.num_rows)
            num_cols = int(matrix.num_cols)
            nnzs = int(matrix.nnz)
        except (AttributeError, TypeError, ValueError):
            num_rows = num_cols = nnzs = 0
        rows = []
        for kernel in task.kernels:
            self.error_rows += 1
            rows.append(SweepRow(
                app=task.app,
                kernel=kernel,
                dataset=task.dataset.name,
                rows=num_rows,
                cols=num_cols,
                nnzs=nnzs,
                elapsed=0.0,
                meta={
                    "status": status,
                    "error": message,
                    "attempts": 3,
                    "degraded": True,
                    "placement": self._degraded_placement(shard),
                },
            ))
        return rows

    def info(self) -> dict:
        with self._shm_lock:
            shm_cached, shm_cached_bytes = len(self._datasets), self._datasets.nbytes
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
            "sticky_shards": self.sticky_shards,
            "stolen_shards": self.stolen_shards,
            "batch_timeout": self.batch_timeout,
            "batch_timeouts": self.batch_timeouts,
            "batch_retries": self.batch_retries,
            "degraded_shards": self.degraded_shards,
            "error_rows": self.error_rows,
            "transport_fallbacks": self.transport_fallbacks,
            "problem_cache_hits": self.problem_cache_hits,
            "problem_cache_misses": self.problem_cache_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"width={self._width}" if self.alive else "idle"
        return f"SweepExecutor({state}, sweeps={self.sweeps})"


# ----------------------------------------------------------------------
# Shutdown of every live executor.  Dataset blocks in /dev/shm are
# named, kernel-persistent objects that outlive the process, so every
# executor with spawned workers is shut down -- its blocks unlinked --
# at interpreter exit.  atexit never runs when the process dies on an
# unhandled SIGTERM/SIGINT; installing chained handlers turns those
# deaths into an orderly shm unlink first.
# ----------------------------------------------------------------------
#: Every executor with spawned workers, until its :meth:`shutdown`.
_LIVE: set[SweepExecutor] = set()


def _shutdown_live() -> None:
    """Shut down every live executor (idempotent; errors swallowed)."""
    for pool in list(_LIVE):
        try:
            pool.shutdown()
        except Exception:
            pass


atexit.register(_shutdown_live)
# A forked worker owns none of its parent's pools or their blocks.
os.register_at_fork(after_in_child=_LIVE.clear)

_SIGNAL_CHAIN: dict[int, object] = {}
_SIGNALS_INSTALLED = False


def _signal_cleanup(signum, frame) -> None:
    """Chained handler: unlink every shm segment, then defer onward."""
    import signal as _signal

    _shutdown_live()
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

    Every live :class:`SweepExecutor` is shut down first.  Call it from
    the main thread of the host process (``repro sweep --workers`` does);
    repeated calls are no-ops.  The handlers *chain*:
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
