"""Memoized schedule planning for corpus-scale sweeps.

Analytic planning (:meth:`Schedule.plan`) is pure: its result depends
only on the schedule class and options, the launch geometry, the work
shape, the device spec and the application's :class:`WorkCosts`.  Corpus
sweeps re-plan the exact same launch over and over -- every figure bench
re-runs the same (kernel, dataset) grid -- so the vector engine routes
planning through this small thread-safe LRU memo.

The key deliberately fingerprints the *content* of the work (a CRC over
the tile-offsets array), not object identity, so two loads of the same
corpus dataset hit the same entry.  Schedules constructed by the caller
as instances (rather than resolved from a registry name) bypass the
cache entirely: an instance may carry options the key cannot observe.

Persistence
-----------
On top of the in-memory LRU sits an optional *disk layer*: the
append-only single-file journal of :class:`~repro.engine.plan_store.
PlanStore`.  Attach it with ``PlanCache(store_path=...)``, the
``ExecutionContext(plan_store=...)`` / ``--plan-store`` knob, or the
``REPRO_PLAN_STORE`` environment variable for the process-wide cache,
and every planned launch is also appended to the journal, keyed by the
same content fingerprints.  A fresh process -- a repeated figure bench,
or a process-pool sweep worker -- then starts warm: in-memory misses
fall through to the journal before planning live.

The disk layer can never change behaviour, only skip recomputation:
records are CRC-verified and versioned (:data:`CACHE_FORMAT_VERSION`),
so a version bump or a damaged record reads as a miss, never as an
error.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..core.schedule import Schedule, WorkCosts
from ..core.work import WorkSpec
from ..gpusim.cost_model import KernelStats
from .plan_store import PlanStore

__all__ = [
    "PlanCache",
    "work_fingerprint",
    "global_plan_cache",
    "configure_global_plan_cache",
    "clear_plan_cache",
    "CACHE_FORMAT_VERSION",
    "PLAN_STORE_ENV",
]

#: Bump whenever the key schema, the pickled payload layout, or the
#: planner semantics change: old journals then read as cold
#: (version-mismatch entries are ignored) instead of serving stale plans.
#: v2: ``options_key`` became the policy cache token of the
#: ExecutionContext redesign (``("fixed", name)`` instead of the bare
#: schedule name).
CACHE_FORMAT_VERSION = 2

#: Environment variable attaching the journal store to the process-wide
#: cache (how process-pool sweep workers under ``spawn`` inherit it).
PLAN_STORE_ENV = "REPRO_PLAN_STORE"


def work_fingerprint(work: WorkSpec) -> tuple[int, int, int]:
    """Content hash of a workload: counts plus a CRC of the offsets."""
    offsets = np.ascontiguousarray(work.tile_offsets, dtype=np.int64)
    return (work.num_tiles, work.num_atoms, zlib.crc32(offsets.tobytes()))


class PlanCache:
    """A bounded LRU memo for :meth:`Schedule.plan` results.

    ``plan`` is a drop-in replacement for calling ``sched.plan(costs)``
    directly; unhashable keys and ``options_key=None`` fall through to a
    live plan, so the cache can never change behaviour -- only skip
    recomputation.  ``hits`` / ``misses`` counters make the skipping
    observable to tests; with a ``store_path``, ``disk_hits`` counts the
    subset of hits served from the persistent layer (warm starts of a
    fresh process).
    """

    def __init__(
        self,
        maxsize: int = 1024,
        store_path: str | Path | None = None,
    ):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self._entries: OrderedDict[tuple, KernelStats] = OrderedDict()
        self._lock = threading.Lock()
        self._store: PlanStore | None = None
        self.set_store_path(store_path)

    # ------------------------------------------------------------------
    # Persistence plumbing
    # ------------------------------------------------------------------
    @property
    def store_path(self) -> Path | None:
        return self._store.path if self._store is not None else None

    @property
    def store(self) -> PlanStore | None:
        """The attached journal store, if any."""
        return self._store

    def set_store_path(self, store_path: str | Path | None) -> None:
        """Attach the single-file journal layer (``None`` detaches).

        Re-attaching the journal already open is a no-op (the in-memory
        index and its warmth are kept).
        """
        if (
            store_path is not None
            and self._store is not None
            and self._store.path == Path(store_path)
        ):
            return
        if self._store is not None:
            self._store.close()
            self._store = None
        if store_path is None:
            return
        self._store = PlanStore(store_path)

    def _disk_load(self, key: tuple) -> KernelStats | None:
        """Read one persisted plan; any defect whatsoever reads as a miss."""
        if self._store is None:
            return None
        try:
            payload = self._store.get(key)
        except Exception:
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != CACHE_FORMAT_VERSION:
            return None
        stats = payload.get("stats")
        return stats if isinstance(stats, KernelStats) else None

    def _disk_store(self, key: tuple, stats: KernelStats) -> None:
        """Persist one plan; failures are silently dropped."""
        if self._store is None:
            return
        try:
            self._store.put(key, {"version": CACHE_FORMAT_VERSION, "stats": stats})
        except Exception:  # unpicklable key part, disk full, ...: skip
            pass

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def key_for(
        self, sched: Schedule, costs: WorkCosts, options_key: tuple
    ) -> tuple:
        """Cache key of one planned launch (content-based, no identity)."""
        return (
            type(sched).__name__,
            sched.name,
            sched.launch.grid_dim,
            sched.launch.block_dim,
            sched.spec,
            work_fingerprint(sched.work),
            costs,
            options_key,
        )

    def plan(
        self,
        sched: Schedule,
        costs: WorkCosts,
        *,
        extras: dict | None = None,
        options_key: tuple | None = None,
    ) -> KernelStats:
        """Return ``sched.plan(costs, extras=...)``, memoized when safe."""
        if options_key is None or self.maxsize <= 0:
            return sched.plan(costs, extras=extras)
        try:
            key = self.key_for(sched, costs, options_key)
            hash(key)
        except TypeError:  # unhashable spec/costs/options: plan live
            return sched.plan(costs, extras=extras)

        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if cached is None:
            cached = self._disk_load(key)
            if cached is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._entries[key] = cached
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.maxsize:
                        self._entries.popitem(last=False)
        if cached is not None:
            # Same numbers, caller's extras (extras never affect timing).
            return replace(cached, extras={"schedule": sched.name, **(extras or {})})

        stats = sched.plan(costs, extras=extras)
        with self._lock:
            self.misses += 1
            self._entries[key] = stats
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        self._disk_store(key, stats)
        return stats

    def clear(self) -> None:
        """Drop the in-memory entries and counters (the journal persists)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "store_path": (
                    str(self._store.path) if self._store is not None else None
                ),
                "store_records": (
                    len(self._store) if self._store is not None else None
                ),
            }


def _build_global() -> PlanCache:
    # The env-var attachment must honour the disk layer's contract --
    # never change behaviour, only skip recomputation -- so an unusable
    # REPRO_PLAN_STORE (unwritable, path through a file, foreign journal,
    # ...) reads as "no disk layer" instead of crashing every import of
    # the package.
    try:
        return PlanCache(store_path=os.environ.get(PLAN_STORE_ENV) or None)
    except Exception:
        return PlanCache()


_GLOBAL = _build_global()


def global_plan_cache() -> PlanCache:
    """The process-wide cache the default :class:`VectorEngine` uses."""
    return _GLOBAL


def configure_global_plan_cache(
    store_path: str | Path | None = ...,  # type: ignore[assignment]
    *,
    maxsize: int | None = None,
) -> PlanCache:
    """Reconfigure the process-wide cache (the CLI/harness knob).

    ``store_path`` attaches the journal layer; ``None`` detaches it and
    leaving it unset keeps the current attachment.  ``maxsize`` resizes
    the in-memory LRU.  Returns the global cache for chaining.
    """
    if store_path is not ...:
        _GLOBAL.set_store_path(store_path)
    if maxsize is not None:
        _GLOBAL.maxsize = maxsize
    return _GLOBAL


def clear_plan_cache() -> None:
    """Drop every memoized plan (tests; spec/cost-constant experiments)."""
    _GLOBAL.clear()
