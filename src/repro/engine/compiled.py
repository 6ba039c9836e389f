"""The compiled engine: JIT the hot loop, keep the schedule's geometry.

:class:`~repro.engine.dispatch.SimtEngine` is the correctness ground
truth, but it *interprets* every kernel body thread-by-thread in Python
-- at corpus scale that interpretation dominates the sweep and no layer
of caching (plans, problems, shm datasets, warm pools) can remove it.
This module removes the interpreter from the loop:

* Each :class:`~repro.engine.registry.KernelDecl` on an app's
  ``AppSpec.kernels`` carries a flat *scalar* body over plain arrays
  (jit-able: no closures over Python objects) next to the equivalent
  vectorized ``arrays`` body.  When :mod:`numba` is importable the
  scalar body is ``njit``-compiled once per process; otherwise the
  vectorized body runs, so the engine always exists.
* The schedule still decides the launch: grid/block shape and the
  per-thread work assignment are taken from the schedule's own iterator
  view and *materialized* into per-thread (atoms, tile-visits) load
  vectors -- vectorized per built-in schedule, generically probed for
  custom ones -- then priced through the same
  :func:`~repro.gpusim.cost_model.kernel_stats_from_thread_cycles` fold
  the SIMT interpreter uses.  Schedule choice changes the compiled
  loop structure exactly as it changes the interpreted one.
* Materialized loads live in a process-wide bounded
  :class:`CompilationCache` keyed on (kernel label, schedule identity,
  dtype signature); hit/miss counters surface in every row's ``extras``
  and :func:`precompile_kernels` -- which walks every registered app's
  declarations -- is wired into the sweep worker initializer so warm
  pools amortize JIT cost.

The engine registers as ``"compiled"`` via
:func:`~repro.engine.dispatch.register_engine`, so it flows through
``ExecutionContext(engine="compiled")``, ``run_suite`` and the CLI
``--engine`` untouched.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from .._env import env_number
from ..core.ranges import StepRange
from ..core.schedule import Schedule
from ..gpusim.cost_model import kernel_stats_from_thread_cycles
from .dispatch import Engine, register_engine, tile_charges
from .plan_cache import schedule_key

__all__ = [
    "CompiledEngine",
    "CompilationCache",
    "compilation_cache",
    "compilation_cache_stats",
    "clear_compilation_cache",
    "precompile_kernels",
    "numba_available",
    "tile_writer_counts",
]

# Numba is an *optional* accelerator: the engine must exist (and produce
# identical results) without it.  Tests monkeypatch this module global to
# force either path.
try:  # pragma: no cover - exercised via monkeypatch either way
    import numba as _NUMBA  # type: ignore
except Exception:  # pragma: no cover - the container has no numba
    _NUMBA = None


def numba_available() -> bool:
    """Whether the JIT path is active (module-global, monkeypatchable)."""
    return _NUMBA is not None


def _dtype_signature(args: tuple) -> tuple:
    """Hashable dtype/shape-rank signature of a launch's argument tuple."""
    return tuple(
        (a.dtype.str, a.ndim) if isinstance(a, np.ndarray) else type(a).__name__
        for a in args
    )


# ----------------------------------------------------------------------
# Function compilation: one njit per scalar body per process.
# ----------------------------------------------------------------------
_FN_CACHE: dict[Callable, Callable] = {}


def _compiled_fn(decl) -> tuple[Callable, str]:
    """Resolve the callable for one kernel: ``(fn, "numba"|"numpy")``.

    The njit wrapper is cached per scalar function object, so each
    (kernel body, dtype signature) pair compiles once per process --
    numba's own dispatcher handles per-signature specialization.
    """
    if _NUMBA is None or decl.scalar is None:
        return decl.arrays, "numpy"
    fn = _FN_CACHE.get(decl.scalar)
    if fn is None:
        fn = _NUMBA.njit(decl.scalar)
        _FN_CACHE[decl.scalar] = fn
    return fn, "numba"


# ----------------------------------------------------------------------
# Per-thread load materialization.
#
# The compiled engine does not walk the schedule's iterator per thread
# (that is exactly the interpretation being removed); instead each
# built-in schedule's assignment is reproduced in closed form as two
# length-num_threads vectors: atoms consumed and tiles visited per
# thread.  Both agree exactly with a generic probe of the schedule's
# ``tiles()``/``atoms()`` view (asserted in tests), which remains the
# fallback for custom schedules.
# ----------------------------------------------------------------------
def _loads_thread_mapped(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    n_threads = sched.launch.num_threads
    counts = sched.work.atoms_per_tile().astype(np.float64)
    owner = np.arange(sched.work.num_tiles, dtype=np.int64) % n_threads
    atoms = np.bincount(owner, weights=counts, minlength=n_threads)
    visits = np.bincount(owner, minlength=n_threads).astype(np.float64)
    return atoms, visits


def _lane_split(counts: np.ndarray, group_size: int) -> np.ndarray:
    """Per-(tile, lane) atom counts for a lane-strided group walk.

    Lane ``r`` of a group consumes atoms ``lo + r, lo + r + g, ...`` of
    each tile: ``ceil(max(0, count - r) / g)`` atoms.
    """
    lanes = np.arange(group_size, dtype=np.float64)
    return np.ceil(np.maximum(0.0, counts[:, None] - lanes) / group_size)


def _grouped_loads(
    group_size: int,
    n_groups: int,
    n_threads: int,
    counts: np.ndarray,
    group_of_tile: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold tile->group assignment into per-thread (atoms, visits).

    Threads are grouped contiguously by global id (``gtid // g``); every
    lane of a group visits every tile of the group.
    """
    per_lane = _lane_split(counts.astype(np.float64), group_size)
    atoms_gl = np.zeros((n_groups, group_size))
    np.add.at(atoms_gl, group_of_tile, per_lane)
    visits_g = np.bincount(group_of_tile, minlength=n_groups).astype(np.float64)
    atoms = atoms_gl.reshape(-1)
    visits = np.repeat(visits_g, group_size)
    # Launches whose thread count is not an exact multiple of the group
    # size leave a trailing partial group; clip/pad to the true width.
    if atoms.size < n_threads:
        atoms = np.pad(atoms, (0, n_threads - atoms.size))
        visits = np.pad(visits, (0, n_threads - visits.size))
    return atoms[:n_threads], visits[:n_threads]


def _loads_group_per_tile(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """warp_mapped / block_mapped: strided tile->group round-robin."""
    g = sched.group_size()
    n_groups = sched._num_groups()
    counts = sched.work.atoms_per_tile()
    group_of_tile = np.arange(sched.work.num_tiles, dtype=np.int64) % n_groups
    return _grouped_loads(
        g, n_groups, sched.launch.num_threads, counts, group_of_tile
    )


def _loads_group_mapped(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """group_mapped: contiguous tile chunks per group."""
    g = sched.group_size  # attribute, not method, on GroupMappedSchedule
    n_groups = sched.num_groups()
    tpg = sched.tiles_per_group()
    counts = sched.work.atoms_per_tile()
    group_of_tile = np.minimum(
        np.arange(sched.work.num_tiles, dtype=np.int64) // max(1, tpg),
        n_groups - 1,
    )
    return _grouped_loads(
        g, n_groups, sched.launch.num_threads, counts, group_of_tile
    )


def _loads_lrb(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """lrb: warp-per-tile round-robin over the bin-sorted permutation."""
    g = sched.spec.warp_size
    n_groups = sched._num_groups()
    counts = sched.work.atoms_per_tile()[sched.permutation]
    group_of_tile = np.arange(sched.work.num_tiles, dtype=np.int64) % n_groups
    return _grouped_loads(
        g, n_groups, sched.launch.num_threads, counts, group_of_tile
    )


def _loads_merge_path(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    tile_bounds = sched._tile_bounds
    atom_bounds = sched._atom_bounds
    offsets = sched.work.tile_offsets
    num_tiles = sched.work.num_tiles
    i1 = tile_bounds[1:]
    j1 = atom_bounds[1:]
    # A thread additionally touches a partial tail tile when its atom
    # range extends past the last finished tile's start.
    partial = (i1 < num_tiles) & (j1 > offsets[np.minimum(i1, num_tiles)])
    visits = (i1 - tile_bounds[:-1] + partial).astype(np.float64)
    atoms = np.diff(atom_bounds).astype(np.float64)
    return atoms, visits


def _loads_nonzero_split(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    j0 = sched._atom_bounds[:-1]
    j1 = sched._atom_bounds[1:]
    atoms = (j1 - j0).astype(np.float64)
    nonempty = j1 > j0
    first = sched._tile_at_bound[:-1]
    last = sched.work.tile_of_atom(np.maximum(j1 - 1, 0))
    visits = np.where(nonempty, last - first + 1, 0).astype(np.float64)
    return atoms, visits


def _loads_dynamic_queue(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """dynamic_queue under the framework's sequential linearization.

    Threads drain a shared chunk queue; the interpreter runs thread 0 to
    completion first, so it pops every chunk -- the compiled engine
    reproduces that linearization (the planner view prices the balanced
    assignment separately).
    """
    n_threads = sched.launch.num_threads
    atoms = np.zeros(n_threads)
    visits = np.zeros(n_threads)
    atoms[0] = float(sched.work.num_atoms)
    visits[0] = float(sched.work.num_tiles)
    return atoms, visits


_LOAD_BUILDERS: dict[str, Callable[[Schedule], tuple[np.ndarray, np.ndarray]]] = {
    "thread_mapped": _loads_thread_mapped,
    "warp_mapped": _loads_group_per_tile,
    "block_mapped": _loads_group_per_tile,
    "group_mapped": _loads_group_mapped,
    "lrb": _loads_lrb,
    "merge_path": _loads_merge_path,
    "nonzero_split": _loads_nonzero_split,
    "dynamic_queue": _loads_dynamic_queue,
}


class _ProbeCtx:
    """Minimal ThreadCtx stand-in for probing a schedule's iterator view."""

    __slots__ = ("thread_idx", "block_idx", "block_dim", "grid_dim", "spec")

    def __init__(self, thread_idx, block_idx, block_dim, grid_dim, spec):
        self.thread_idx = thread_idx
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.spec = spec

    @property
    def global_thread_id(self) -> int:
        return self.block_idx * self.block_dim + self.thread_idx

    @property
    def num_threads(self) -> int:
        return self.block_dim * self.grid_dim

    @property
    def warp_size(self) -> int:
        return self.spec.warp_size

    @property
    def lane_id(self) -> int:
        return self.thread_idx % self.spec.warp_size

    @property
    def warp_id(self) -> int:
        return self.thread_idx // self.spec.warp_size

    @property
    def global_warp_id(self) -> int:
        return self.global_thread_id // self.spec.warp_size


def _generic_loads(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Probe ``tiles()``/``atoms()`` thread-by-thread (custom schedules).

    One interpreted pass over the *assignment* only (no kernel body), in
    launch order -- the same linearization the SIMT interpreter applies,
    so stateful schedules (the dynamic queue) agree.
    """
    launch, spec = sched.launch, sched.spec
    n_threads = launch.num_threads
    atoms = np.zeros(n_threads)
    visits = np.zeros(n_threads)
    reset = getattr(sched, "reset_queue", None)
    if reset is not None:
        reset()
    for block_idx in range(launch.grid_dim):
        for thread_idx in range(launch.block_dim):
            ctx = _ProbeCtx(
                thread_idx, block_idx, launch.block_dim, launch.grid_dim, spec
            )
            t = ctx.global_thread_id
            for tile in sched.tiles(ctx):
                rng = sched.atoms(ctx, tile)
                if not isinstance(rng, StepRange):  # pragma: no cover
                    rng = list(rng)
                atoms[t] += len(rng)
                visits[t] += 1
    if reset is not None:
        reset()
    return atoms, visits


def materialize_loads(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Per-thread (atoms, tile visits) under ``sched``'s assignment."""
    builder = _LOAD_BUILDERS.get(sched.name)
    if builder is not None:
        try:
            return builder(sched)
        except AttributeError:
            # A subclass renamed the internals the closed form reads;
            # fall back to probing its actual iterator view.
            pass
    return _generic_loads(sched)


# ----------------------------------------------------------------------
# Per-tile writer counts: the race-analysis marginal of the loads.
#
# The load builders answer "how much work does each thread get"; the
# static race analysis (repro.analysis.races) needs the transpose --
# "how many distinct threads touch each tile's output".  A thread is a
# *writer* of a tile when the tile-reduction contract every kernel body
# follows would make it store: it holds at least one of the tile's atoms,
# or the schedule lets it claim the whole tile via ``owns_tile_fully``
# (merge-path / nonzero-split full owners write even empty tiles).
# ----------------------------------------------------------------------
def _writers_thread_mapped(sched: Schedule) -> np.ndarray:
    # One owner thread per tile; kernels skip empty tiles (no owner API).
    counts = sched.work.atoms_per_tile()
    return (counts > 0).astype(np.int64)


def _writers_lane_strided(counts: np.ndarray, group_size: int) -> np.ndarray:
    """Lanes stride a tile's atoms, so min(count, group size) lanes hold
    at least one atom -- the tile's distinct atomic writers."""
    return np.minimum(counts.astype(np.int64), int(group_size))


def _writers_group_per_tile(sched: Schedule) -> np.ndarray:
    return _writers_lane_strided(sched.work.atoms_per_tile(), sched.group_size())


def _writers_group_mapped(sched: Schedule) -> np.ndarray:
    return _writers_lane_strided(sched.work.atoms_per_tile(), sched.group_size)


def _writers_lrb(sched: Schedule) -> np.ndarray:
    return _writers_lane_strided(
        sched.work.atoms_per_tile(), sched.spec.warp_size
    )


def _span_stab_writers(
    first: np.ndarray, last: np.ndarray, active: np.ndarray, num_tiles: int
) -> np.ndarray:
    """Count, per tile, the threads whose visited-tile span covers it.

    For contiguous-range schedules (merge-path, nonzero-split) a thread
    writes exactly the tiles of its span: nonempty tiles via its atoms,
    empty interior tiles via ``owns_tile_fully`` -- so span stabbing is
    the writer count for both.
    """
    diff = np.zeros(num_tiles + 1, dtype=np.int64)
    lo = first[active]
    hi = last[active] + 1
    np.add.at(diff, lo, 1)
    np.add.at(diff, np.minimum(hi, num_tiles), -1)
    return np.cumsum(diff[:num_tiles])


def _writers_merge_path(sched: Schedule) -> np.ndarray:
    tile_bounds = sched._tile_bounds
    atom_bounds = sched._atom_bounds
    offsets = sched.work.tile_offsets
    num_tiles = sched.work.num_tiles
    i0, i1 = tile_bounds[:-1], tile_bounds[1:]
    j0, j1 = atom_bounds[:-1], atom_bounds[1:]
    partial = (i1 < num_tiles) & (j1 > offsets[np.minimum(i1, num_tiles)])
    visits = i1 - i0 + partial
    # A thread entering at a drained tile boundary (the previous thread
    # consumed tile i0's last atom without crossing it on the merge
    # path, so j0 == offsets[i0 + 1]) holds no atoms of i0 and does not
    # own it fully: its writes start at the next tile.  Empty first
    # tiles stay: the thread owns them (j0 == offsets[i0]) and the
    # direct-store path touches owned tiles even with zero atoms.
    i0c = np.minimum(i0, num_tiles - 1)
    nonempty_first = offsets[i0c + 1] > offsets[i0c]
    skip_first = (visits > 0) & nonempty_first & (j0 >= offsets[i0c + 1])
    first = i0 + skip_first
    last = i0 + np.maximum(visits, 1) - 1
    return _span_stab_writers(first, last, (visits > 0) & (first <= last),
                              num_tiles)


def _writers_nonzero_split(sched: Schedule) -> np.ndarray:
    j0 = sched._atom_bounds[:-1]
    j1 = sched._atom_bounds[1:]
    num_tiles = sched.work.num_tiles
    first = sched._tile_at_bound[:-1]
    last = sched.work.tile_of_atom(np.maximum(j1 - 1, 0))
    return _span_stab_writers(first, last, j1 > j0, num_tiles)


def _writers_dynamic_queue(sched: Schedule) -> np.ndarray:
    # Chunks are disjoint full-tile ranges popped atomically: whichever
    # thread pops a chunk is its tiles' single writer (empty tiles are
    # skipped by the kernels' ``if n`` guards, as in thread-mapped).
    counts = sched.work.atoms_per_tile()
    return (counts > 0).astype(np.int64)


_WRITER_BUILDERS: dict[str, Callable[[Schedule], np.ndarray]] = {
    "thread_mapped": _writers_thread_mapped,
    "warp_mapped": _writers_group_per_tile,
    "block_mapped": _writers_group_per_tile,
    "group_mapped": _writers_group_mapped,
    "lrb": _writers_lrb,
    "merge_path": _writers_merge_path,
    "nonzero_split": _writers_nonzero_split,
    "dynamic_queue": _writers_dynamic_queue,
}


def _generic_tile_writers(sched: Schedule) -> np.ndarray:
    """Probe the distinct writers of every tile thread-by-thread.

    Ground truth for :func:`tile_writer_counts` (asserted equal to the
    closed forms in tests) and the fallback for custom schedules: walk
    ``tiles()``/``atoms()`` in launch order and record, per tile, each
    thread that holds an atom or fully owns the tile.
    """
    launch, spec = sched.launch, sched.spec
    writers: list[set] = [set() for _ in range(sched.work.num_tiles)]
    owns = getattr(sched, "owns_tile_fully", None)
    reset = getattr(sched, "reset_queue", None)
    if reset is not None:
        reset()
    for block_idx in range(launch.grid_dim):
        for thread_idx in range(launch.block_dim):
            ctx = _ProbeCtx(
                thread_idx, block_idx, launch.block_dim, launch.grid_dim, spec
            )
            t = ctx.global_thread_id
            for tile in sched.tiles(ctx):
                rng = sched.atoms(ctx, tile)
                if not isinstance(rng, StepRange):  # pragma: no cover
                    rng = list(rng)
                if len(rng) > 0 or (owns is not None and owns(ctx, tile)):
                    writers[int(tile)].add(t)
    if reset is not None:
        reset()
    return np.array([len(w) for w in writers], dtype=np.int64)


def tile_writer_counts(sched: Schedule) -> np.ndarray:
    """Distinct threads that write each tile's output under ``sched``.

    Closed form per built-in schedule (the writer-set marginal of the
    load builders above), generically probed for custom ones.  A count
    above 1 means the tile's partial results need combination (the
    ``REDUCE`` verdict of :mod:`repro.analysis.races`).
    """
    builder = _WRITER_BUILDERS.get(sched.name)
    if builder is not None:
        try:
            return builder(sched)
        except AttributeError:
            pass
    return _generic_tile_writers(sched)


# ----------------------------------------------------------------------
# Compilation cache
# ----------------------------------------------------------------------
#: Environment knob bounding the load cache (entries, LRU-evicted).
CACHE_ENTRIES_ENV = "REPRO_COMPILED_CACHE_ENTRIES"
_DEFAULT_CACHE_ENTRIES = 256


class CompilationCache:
    """Bounded LRU of materialized per-thread loads.

    Keyed on (kernel label, :func:`~repro.engine.plan_cache.schedule_key`
    -- the identity the plan cache uses -- and the argument dtype
    signature): everything that changes the compiled loop structure and
    nothing that doesn't, so steady-state sweeps hit.  Schedules without
    a key (not built by ``make_schedule``) are materialized live.
    """

    def __init__(self, max_entries: int | None = None):
        if max_entries is None:
            max_entries = env_number(
                CACHE_ENTRIES_ENV, _DEFAULT_CACHE_ENTRIES, minimum=1
            )
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(sched: Schedule, label: str, args: tuple) -> tuple | None:
        ident = schedule_key(sched)
        if ident is None:
            return None  # not built by make_schedule: materialize live
        key = (label, ident, _dtype_signature(args))
        try:
            hash(key)
        except TypeError:
            return None  # unhashable option value: materialize live
        return key

    def loads(self, sched: Schedule, label: str, args: tuple):
        """Cached (atoms, visits) for one launch; counts hit or miss."""
        key = self.key_for(sched, label, args)
        if key is not None:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached[0], cached[1], "hit"
        self.misses += 1
        atoms, visits = materialize_loads(sched)
        if key is not None:
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
            self._entries[key] = (atoms, visits)
        return atoms, visits, "miss"

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_CACHE = CompilationCache()


def compilation_cache() -> CompilationCache:
    """The process-wide compilation cache."""
    return _CACHE


def compilation_cache_stats() -> dict:
    """Counters of the process-wide cache (tests, diagnostics)."""
    return {
        "entries": len(_CACHE),
        "hits": _CACHE.hits,
        "misses": _CACHE.misses,
    }


def clear_compilation_cache() -> None:
    """Reset the process-wide cache and its counters."""
    _CACHE.clear()


def precompile_kernels() -> int:
    """njit-compile every registered app's scalar kernel bodies.

    Runs each distinct :class:`~repro.engine.registry.KernelDecl` scalar
    body once on its tiny ``example_args`` (numba compiles on first call
    per signature), so pool workers never pay JIT latency inside a
    timed shard.  A no-op without numba.  Returns the number of bodies
    compiled.
    """
    if _NUMBA is None:
        return 0
    from .registry import available_apps, get_app

    compiled = set()
    for app in available_apps():
        for decl in get_app(app).kernels:
            if decl.scalar is None or decl.scalar in compiled:
                continue
            fn, _mode = _compiled_fn(decl)
            fn(*decl.example_args())
            compiled.add(decl.scalar)
    return len(compiled)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class CompiledEngine(Engine):
    """JIT-compiled kernel execution with schedule-shaped timing.

    Runs the launched :class:`~repro.engine.registry.KernelDecl` --
    ``numba.njit`` of its flat scalar body when numba is importable, its
    vectorized ``arrays`` body otherwise -- and prices the launch by
    materializing the schedule's per-thread work assignment into load
    vectors folded through the interpreter's own cost model.  Results
    are bit-for-bit
    equal to the ``vector`` engine; timings keep the schedule's launch
    geometry and load balance.
    """

    name = "compiled"

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        fn, jit_mode = _compiled_fn(decl)
        output = fn(*args)
        atoms, visits, cache_status = _CACHE.loads(sched, decl.label, args)
        atom_c, tile_c = tile_charges(sched, costs)
        thread_cycles = atoms * atom_c + visits * tile_c
        stats = kernel_stats_from_thread_cycles(
            thread_cycles,
            sched.launch.grid_dim,
            sched.launch.block_dim,
            sched.spec,
            setup_cycles=sched.setup_cycles(costs),
            extras={
                "schedule": sched.name,
                "engine": "compiled",
                "jit": jit_mode,
                "compile_cache": cache_status,
                "compile_cache_hits": _CACHE.hits,
                "compile_cache_misses": _CACHE.misses,
                **(extras or {}),
            },
        )
        return output, stats


register_engine("compiled", CompiledEngine)
