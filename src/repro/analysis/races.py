"""Race verdicts: fold write classes through the schedules' load forms.

For each ``(kernel, schedule)`` cell the analyzer answers the question a
GPU race detector answers dynamically -- can two threads write the same
output element? -- but from the schedule's closed-form work partition
(:meth:`~repro.core.schedule.Schedule.loads` and
:meth:`~repro.core.schedule.Schedule.tile_writers`), evaluated on a
canonical skewed workload chosen to exercise every splitting behaviour a
schedule is capable of (a heavy tile, empty tiles, singleton tiles):

``SAFE``
    Every write's cross-thread sets are provably disjoint: atom-private
    writes always; tile-private writes when no tile ever has more than
    one writer; a global accumulator when at most one thread holds work.
``REDUCE``
    One tile's atoms (or the one shared cell) are split across threads:
    partial results must be combined -- by the ``owns_tile_fully``
    direct-store contract plus atomics the kernel bodies already follow.
``SCATTER``
    A data-dependent write: overlap is possible under *any* partition,
    so atomics/privatization are required regardless of schedule.

Verdicts depend only on the write classes and the schedule's partition
capability, never on a specific probe input -- which is what makes the
shadow-write validation (:mod:`.probe`) a soundness check: a ``SAFE``
cell must never observe a cross-thread overlap, on any instance.

Matrices are memoized content-keyed (like plans): the key digests the
declared kernel sources and write overrides, the schedule set and the
canonical workload, so edits to any of them invalidate the cached
verdicts.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import numpy as np

from ..core.schedule import available_schedules, make_schedule
from ..core.work import WorkSpec
from ..gpusim.arch import TINY_GPU, GpuSpec
from .effects import KernelEffects, kernel_effects

__all__ = [
    "VERDICTS",
    "FORMAT_VERSION",
    "canonical_work",
    "schedule_profile",
    "cell_verdict",
    "verdict_matrix",
]

#: Ordered least- to most-hazardous; a cell takes its worst write.
VERDICTS = ("SAFE", "REDUCE", "SCATTER")
FORMAT_VERSION = 1


def canonical_work() -> WorkSpec:
    """The skewed workload the verdicts are evaluated on.

    One heavy tile (it spans several threads under atom-splitting
    schedules and several lanes under group schedules), a band of
    mid-size tiles, a run of empty tiles (merge-path full-ownership
    spans), and singleton tiles -- every partition behaviour a built-in
    schedule can exhibit shows up on this shape.
    """
    counts = [64] + [5] * 12 + [0] * 16 + [1] * 19
    offsets = np.concatenate(
        ([0], np.cumsum(np.asarray(counts, dtype=np.int64)))
    )
    return WorkSpec.from_offsets(offsets, label="analysis-canonical")


def schedule_profile(
    name: str, work: WorkSpec | None = None, spec: GpuSpec = TINY_GPU
) -> dict:
    """The partition facts one schedule contributes to every verdict."""
    sched = make_schedule(name, work if work is not None else canonical_work(),
                          spec)
    writers = sched.tile_writers()
    atoms, _visits = sched.loads()
    if hasattr(sched, "num_chunks"):
        # Queue schedules are probed under the interpreter's
        # linearization (one thread drains everything), but concurrent
        # executions pop chunks from many threads at once: the honest
        # worker bound is the chunk count.
        potential = min(int(sched.launch.num_threads), int(sched.num_chunks()))
    else:
        potential = int(np.count_nonzero(atoms))
    return {
        "schedule": name,
        "max_tile_writers": int(writers.max(initial=0)),
        "potential_writers": potential,
    }


def _verdict_for_write(write_class: str, profile: dict) -> str:
    if write_class == "scatter":
        return "SCATTER"
    if write_class == "atom_private":
        return "SAFE"
    if write_class == "tile_private":
        return "SAFE" if profile["max_tile_writers"] <= 1 else "REDUCE"
    if write_class == "global_reduce":
        return "SAFE" if profile["potential_writers"] <= 1 else "REDUCE"
    raise ValueError(f"unknown write class {write_class!r}")


def cell_verdict(effects: KernelEffects, profile: dict) -> str:
    """Worst verdict over a kernel's writes under one schedule."""
    verdict = "SAFE"
    for write in effects.writes:
        v = _verdict_for_write(write.write_class, profile)
        if VERDICTS.index(v) > VERDICTS.index(verdict):
            verdict = v
    return verdict


_MATRIX_CACHE: dict = {}


def _content_key(apps, schedules, spec: GpuSpec) -> str:
    from ..engine import available_apps, get_app

    h = hashlib.sha256()
    h.update(f"races-v{FORMAT_VERSION}".encode())
    for app in available_apps():
        for decl in get_app(app).kernels:
            h.update(f"{app}/{decl.label}".encode())
            if decl.scalar is not None:
                h.update(inspect.getsource(decl.scalar).encode())
            h.update(json.dumps(decl.writes, sort_keys=True).encode())
    h.update(",".join(schedules).encode())
    h.update(",".join(apps).encode() if apps else b"*")
    h.update(canonical_work().tile_offsets.tobytes())
    h.update(spec.name.encode())
    return h.hexdigest()


def verdict_matrix(
    apps=None, schedules=None, spec: GpuSpec = TINY_GPU
) -> dict:
    """The full (kernel x schedule) verdict matrix.

    Returns ``{"schedules": [...], "rows": [{app, label, writes,
    verdicts: {schedule: verdict}}, ...]}``: one row per kernel on every
    registered app's ``AppSpec.kernels``, under every registered
    schedule.
    """
    effects_list = kernel_effects()
    if apps is not None:
        apps = list(apps)
        effects_list = [e for e in effects_list if e.app in apps]
    sched_names = list(schedules) if schedules else available_schedules()
    key = _content_key(
        sorted(e.app for e in effects_list), sched_names, spec
    )
    cached = _MATRIX_CACHE.get(key)
    if cached is not None:
        return cached

    profiles = {name: schedule_profile(name, spec=spec)
                for name in sched_names}
    rows = [
        {
            "app": effects.app,
            "label": effects.label,
            "writes": [
                {
                    "array": w.array,
                    "class": w.write_class,
                    "declared": w.declared,
                }
                for w in effects.writes
            ],
            "verdicts": {
                name: cell_verdict(effects, profiles[name])
                for name in sched_names
            },
        }
        for effects in effects_list
    ]
    result = {
        "schedules": sched_names,
        "profiles": profiles,
        "rows": rows,
        "content_key": key,
    }
    _MATRIX_CACHE[key] = result
    return result
