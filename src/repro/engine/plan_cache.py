"""Memoized schedule planning for corpus-scale sweeps.

Analytic planning (:meth:`Schedule.plan`) is pure: its result depends
only on the schedule class and options, the launch geometry, the work
shape, the device spec and the application's :class:`WorkCosts`.  Corpus
sweeps re-plan the exact same launch over and over -- every figure bench
re-runs the same (kernel, dataset) grid -- so the vector engine routes
planning through this small thread-safe LRU memo.

The key is :func:`schedule_key` plus the costs -- never which policy
picked the schedule, so a heuristic cell, an oracle-best probe and a
fixed-schedule cell of the same launch share one entry.  It
fingerprints the *content* of the work (a CRC over the tile-offsets
array), not object identity, so two loads of the same corpus dataset
hit the same entry.  Schedules not built by
:func:`~repro.core.schedule.make_schedule` bypass the cache entirely:
their construction options are unknown to the key.  The compiled
engine's load cache keys on the same identity.

The cache is in-memory and per process: a fresh process (or pool
worker) starts cold and warms up over its first sweep.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import OrderedDict

import numpy as np

from ..core.schedule import Schedule, WorkCosts
from ..core.work import WorkSpec
from ..gpusim.cost_model import KernelStats

__all__ = [
    "PlanCache",
    "work_fingerprint",
    "schedule_key",
    "global_plan_cache",
    "clear_plan_cache",
]

def work_fingerprint(work: WorkSpec) -> tuple[int, int, int]:
    """Content hash of a workload: counts plus a CRC of the offsets."""
    offsets = np.ascontiguousarray(work.tile_offsets, dtype=np.int64)
    return (work.num_tiles, work.num_atoms, zlib.crc32(offsets))


def schedule_key(sched: Schedule) -> tuple | None:
    """The identity of one schedule's work assignment, for cache keys.

    Type, name, device spec, launch geometry, work fingerprint and the
    sorted construction options.  ``None`` -- plan live, cache nothing --
    when the schedule was not built by
    :func:`~repro.core.schedule.make_schedule` (its options are unknown).
    A key with an unhashable option value also plans live: the caches
    catch the ``TypeError`` of the lookup.
    """
    options = getattr(sched, "construction_options", None)
    if options is None:
        return None
    return (
        type(sched).__name__,
        sched.name,
        sched.spec,
        sched.launch.grid_dim,
        sched.launch.block_dim,
        work_fingerprint(sched.work),
        tuple(sorted(options.items())) if options else (),
    )


def _with_extras(stats: KernelStats, extras: dict) -> KernelStats:
    """``dataclasses.replace(stats, extras=extras)`` at a fraction of the
    cost: a shallow copy of the cached numbers that skips the frozen
    dataclass ``__init__`` (a cache hit is the hot path of every
    frontier iteration)."""
    out = object.__new__(KernelStats)
    out.__dict__.update(stats.__dict__)
    out.__dict__["extras"] = extras
    return out


class PlanCache:
    """A bounded LRU memo for :meth:`Schedule.plan` results.

    ``plan`` is a drop-in replacement for calling ``sched.plan(costs)``
    directly; schedules without a :func:`schedule_key` and unhashable
    keys fall through to a live plan, so the cache can never change
    behaviour -- only skip recomputation.  ``hits`` / ``misses``
    counters make the skipping observable to tests.
    """

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[int, list[tuple[tuple, KernelStats]]] = (
            OrderedDict()
        )
        self._size = 0
        self._lock = threading.Lock()

    @staticmethod
    def key_for(sched: Schedule, costs: WorkCosts) -> tuple | None:
        """Cache key of one planned launch; ``None`` = plan live."""
        ident = schedule_key(sched)
        return None if ident is None else (ident, costs)

    def plan(
        self,
        sched: Schedule,
        costs: WorkCosts,
        *,
        extras: dict | None = None,
    ) -> KernelStats:
        """Return ``sched.plan(costs, extras=...)``, memoized when safe."""
        key = self.key_for(sched, costs) if self.maxsize > 0 else None
        if key is None:
            return sched.plan(costs, extras=extras)

        try:
            h = hash(key)
        except TypeError:  # an unhashable option value or costs: plan live
            return sched.plan(costs, extras=extras)
        with self._lock:
            cached = self._lookup(h, key)
            if cached is not None:
                self.hits += 1
        if cached is not None:
            # Same numbers, caller's extras (extras never affect timing).
            return _with_extras(cached, {"schedule": sched.name, **(extras or {})})

        stats = sched.plan(costs, extras=extras)
        with self._lock:
            self.misses += 1
            self._insert(h, key, stats)
        return stats

    # The LRU is keyed on each key's hash, computed once per call: a hit
    # then costs one full key hash instead of two (lookup and refresh),
    # and the rare colliding keys share a bucket.  Callers hold the lock.
    def _lookup(self, h: int, key: tuple) -> KernelStats | None:
        bucket = self._entries.get(h)
        if bucket is not None:
            for stored, stats in bucket:
                if stored == key:
                    self._entries.move_to_end(h)
                    return stats
        return None

    def _insert(self, h: int, key: tuple, stats: KernelStats) -> None:
        if self._lookup(h, key) is not None:
            return  # a concurrent miss planned the same launch first
        self._entries.setdefault(h, []).append((key, stats))
        self._entries.move_to_end(h)
        self._size += 1
        while self._size > self.maxsize:
            _, evicted = self._entries.popitem(last=False)
            self._size -= len(evicted)

    def clear(self) -> None:
        """Drop the entries and counters."""
        with self._lock:
            self._entries.clear()
            self._size = 0
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": self._size,
                "maxsize": self.maxsize,
            }


_GLOBAL = PlanCache()
# Plans are pure functions of their key, so a forked worker may keep the
# parent's entries -- but not a lock some parent thread held at fork time.
os.register_at_fork(
    after_in_child=lambda: setattr(_GLOBAL, "_lock", threading.Lock())
)


def global_plan_cache() -> PlanCache:
    """The process-wide cache the default :class:`VectorEngine` uses."""
    return _GLOBAL


def clear_plan_cache() -> None:
    """Drop every memoized plan (tests; spec/cost-constant experiments)."""
    _GLOBAL.clear()
