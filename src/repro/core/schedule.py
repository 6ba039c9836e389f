"""Schedule protocol: the load-balancing stage (Sections 3.2 and 4.2).

A *schedule* maps sub-sequences of atoms and tiles onto processor ids.
Every schedule in this library implements two coupled views:

**Per-thread view** (the paper's Listing 2 API, used by the SIMT
interpreter and by user-owned kernels):

* ``tiles(ctx)`` -- the range of tiles this thread processes;
* ``atoms(ctx, tile)`` -- the range of atoms of ``tile`` this thread
  processes;
* ``flat_atoms(ctx)`` -- alternative flat stream of ``(tile, atom)`` pairs
  for schedules that parallelize over atoms (Listing 5 consumes
  ``config.atoms()`` + ``config.get_tile(edge)``).

**Load view** (vectorized): ``loads()`` gives the atoms and tile visits
of every thread, ``tile_writers()`` the distinct threads writing each
tile, and ``charges(costs)`` what one atom and one tile visit cost a
thread.  The base class derives the first two by probing the per-thread
view; built-ins override them with closed forms equal to that probe.

**Planner view** (vectorized, used at corpus scale): ``cycles(costs)``
computes, with NumPy only, the cycle cost of every thread (or, where lanes
cooperate, every warp) in the launch -- by default the charges over the
loads -- and ``plan(costs)`` prices it into a
:class:`~repro.gpusim.cost_model.KernelStats`.  Every engine prices its
measured cycles through the same :meth:`Schedule.price`, so the views
are cross-validated in the test suite.

A new schedule therefore needs only ``tiles`` and ``atoms``; a closed
form ``loads`` makes it fast, and a ``cycles`` of its own models
machinery the per-thread charges do not see.

The split mirrors the paper's separation of concerns: the *application*
contributes a :class:`WorkCosts` (what one atom / one tile costs), the
*schedule* contributes the assignment, and the *architecture* contributes
the folding rules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sized
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from ..gpusim.arch import GpuSpec
from ..gpusim.cost_model import KernelStats, price
from ..gpusim.simt import ThreadCtx
from .work import WorkSpec

__all__ = [
    "LaunchParams",
    "WorkCosts",
    "Schedule",
    "register_schedule",
    "make_schedule",
    "available_schedules",
    "schedule_description",
]


@dataclass(frozen=True)
class LaunchParams:
    """CUDA launch configuration (the user owns the kernel boundary)."""

    grid_dim: int
    block_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.block_dim <= 0:
            raise ValueError("grid_dim and block_dim must be positive")

    @property
    def num_threads(self) -> int:
        return self.grid_dim * self.block_dim


@dataclass(frozen=True)
class WorkCosts:
    """What the *application* charges per unit of balanced work.

    This is the planner-side mirror of the user-defined computation stage:
    schedules are agnostic to what an atom costs; applications declare it
    once and reuse it under every schedule.

    Attributes
    ----------
    atom_cycles:
        Cycles to process one atom in one lane (compute + loads).
    tile_cycles:
        Per-tile overhead (reading extents, writing per-tile output).
    tile_reduction:
        Whether parallel-over-atoms schedules must combine lane partials
        per tile with a group reduction (true for SpMV's dot products,
        false for pure side-effect kernels like SSSP's relaxations).
    atom_atomic:
        Whether each atom performs a global atomic (SSSP/BFS frontier
        updates); charged on top of ``atom_cycles``.
    """

    atom_cycles: float
    tile_cycles: float
    tile_reduction: bool = True
    atom_atomic: bool = False
    #: DRAM traffic per atom / per tile, in bytes.  Drives the bandwidth
    #: floor (:func:`~repro.gpusim.cost_model.price`): a memory-bound
    #: kernel cannot run faster than its DRAM traffic allows, no matter
    #: how balanced.
    atom_bytes: float = 0.0
    tile_bytes: float = 0.0

    def atom_total(self, spec: GpuSpec) -> float:
        extra = spec.costs.atomic if self.atom_atomic else 0.0
        return self.atom_cycles + spec.costs.loop_overhead + extra


class Schedule(ABC):
    """Base class for load-balancing schedules.

    Subclasses are constructed with the work spec, the device spec and the
    launch parameters (``Schedule(work, spec, launch, **options)``) --
    matching Listing 2, where the schedule object is built inside the
    kernel from the three iterators plus counts.
    """

    #: Registry name, set by :func:`register_schedule`.
    name: str = "?"
    #: Per-iteration bookkeeping cycles charged for consuming work through
    #: the framework's range objects (per atom; built-ins charge
    #: ``spec.costs.range_overhead``).
    abstraction_tax: float = 0.0

    def __init__(self, work: WorkSpec, spec: GpuSpec, launch: LaunchParams):
        self.work = work
        self.spec = spec
        self.launch = launch

    # ------------------------------------------------------------------
    # Per-thread (SIMT) view
    # ------------------------------------------------------------------
    @abstractmethod
    def tiles(self, ctx) -> Iterable[int]:
        """Range of tiles processed by the calling thread."""

    @abstractmethod
    def atoms(self, ctx, tile: int) -> Iterable[int]:
        """Range of atoms of ``tile`` processed by the calling thread."""

    def flat_atoms(self, ctx) -> Iterator[tuple[int, int]]:
        """Flat ``(tile, atom)`` stream; default derives from the nested view."""
        for tile in self.tiles(ctx):
            for atom in self.atoms(ctx, tile):
                yield tile, atom

    def get_tile(self, atom: int) -> int:
        """Map an atom id back to its tile (Listing 5's ``get_tile``)."""
        return int(self.work.tile_of_atom(atom))

    # ------------------------------------------------------------------
    # Load view
    # ------------------------------------------------------------------
    def charges(self, costs: WorkCosts) -> tuple[float, float]:
        """Cycles a thread pays per atom and per tile visit.

        The app's declared costs plus the loop overhead and the
        abstraction tax on every range iteration, atom and tile alike.
        The planners, the SIMT kernel bodies and the compiled engine all
        charge it.
        """
        tax = self.abstraction_tax
        atom = costs.atom_total(self.spec) + tax
        tile = costs.tile_cycles + self.spec.costs.loop_overhead + tax
        return atom, tile

    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-thread ``(atoms, tile visits)``, in launch order."""
        atoms, visits, _writers = self._probe()
        return atoms, visits

    def tile_writers(self) -> np.ndarray:
        """Distinct threads that write each tile's output.

        A thread writes a tile when it holds at least one of the tile's
        atoms, or claims the whole tile via ``owns_tile_fully``.  A count
        above 1 means the tile's partial results need combining (the
        ``REDUCE`` verdict of :mod:`repro.analysis.races`).
        """
        return self._probe()[2]

    def _probe(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk ``tiles()``/``atoms()`` thread by thread, in launch order.

        The assignment only, no kernel body, in the order the SIMT
        interpreter runs threads -- so stateful schedules (the dynamic
        queue) agree with it.  Returns ``(atoms, visits, writers)``.
        """
        launch = self.launch
        atoms = np.zeros(launch.num_threads)
        visits = np.zeros(launch.num_threads)
        writers: list[set] = [set() for _ in range(self.work.num_tiles)]
        owns = getattr(self, "owns_tile_fully", None)
        reset = getattr(self, "reset_queue", None)
        if reset is not None:
            reset()
        for block_idx in range(launch.grid_dim):
            for thread_idx in range(launch.block_dim):
                ctx = ThreadCtx(thread_idx, block_idx, launch.block_dim,
                                launch.grid_dim, self.spec, None)
                t = ctx.global_thread_id
                for tile in self.tiles(ctx):
                    rng = self.atoms(ctx, tile)
                    n = len(rng) if isinstance(rng, Sized) else sum(1 for _ in rng)
                    atoms[t] += n
                    visits[t] += 1
                    if n or (owns is not None and owns(ctx, tile)):
                        writers[int(tile)].add(t)
        if reset is not None:
            reset()
        return atoms, visits, np.array([len(w) for w in writers], dtype=np.int64)

    def _load_cycles(self, costs: WorkCosts) -> np.ndarray:
        """Per-thread cycles of :meth:`loads` at :meth:`charges`."""
        atoms, visits = self.loads()
        atom_c, tile_c = self.charges(costs)
        return atoms * atom_c + visits * tile_c

    # ------------------------------------------------------------------
    # Planner view
    # ------------------------------------------------------------------
    def cycles(self, costs: WorkCosts) -> np.ndarray:
        """Vectorized cycle counts of the launch, for :meth:`price`.

        Per-thread (1-D, launch order) for schedules whose lanes work
        independently -- the lockstep fold happens in ``price`` -- or
        per-warp, shape ``(grid_dim, warps_per_block)``, for schedules
        whose lanes cooperate on a tile.  By default the charges over
        :meth:`loads`, exactly what the compiled engine measures;
        planners that model more than the loads (lockstep rounds, group
        reductions, queue contention) override it.
        """
        return self._load_cycles(costs)

    def setup_cycles(self, costs: WorkCosts) -> float:
        """Uniform per-warp setup cost (e.g. merge-path's binary search)."""
        return 0.0

    def price(
        self,
        costs: WorkCosts,
        cycles: np.ndarray,
        *,
        useful: float | None = None,
        extras: dict | None = None,
    ) -> KernelStats:
        """Price this launch's measured or planned ``cycles``.

        The one binding of the schedule's terms -- launch geometry,
        per-warp setup, the bandwidth floor with the abstraction tax --
        to :func:`~repro.gpusim.cost_model.price`; every engine calls it,
        so no engine can skip one of them.
        """
        return price(
            self.spec,
            self.launch.grid_dim,
            self.launch.block_dim,
            cycles,
            useful=useful,
            setup=self.setup_cycles(costs),
            costs=costs,
            atoms=self.work.num_atoms,
            tiles=self.work.num_tiles,
            tax=self.abstraction_tax,
            extras={"schedule": self.name, **(extras or {})},
        )

    def plan(
        self, costs: WorkCosts, *, extras: dict | None = None, loads: bool = False
    ) -> KernelStats:
        """Price the schedule's planned assignment -- or, with ``loads``,
        the per-thread charges over :meth:`loads`, as the compiled engine
        measures them."""
        if loads:
            return self.price(costs, self._load_cycles(costs), extras=extras)
        return self.price(
            costs,
            self.cycles(costs),
            useful=self.total_useful_cycles(costs),
            extras=extras,
        )

    def total_useful_cycles(self, costs: WorkCosts) -> float:
        """Sum of per-atom/per-tile work, independent of the assignment."""
        return (
            self.work.num_atoms * costs.atom_total(self.spec)
            + self.work.num_tiles * costs.tile_cycles
        )

    # ------------------------------------------------------------------
    # Launch sizing
    # ------------------------------------------------------------------
    @staticmethod
    def clamp_block(spec: GpuSpec, block_dim: int) -> int:
        """Clamp a requested block size to the device limit, warp-aligned."""
        clamped = min(block_dim, spec.max_threads_per_block)
        return max(spec.warp_size, clamped - clamped % spec.warp_size)

    @classmethod
    def default_launch(
        cls, work: WorkSpec, spec: GpuSpec, block_dim: int = 256
    ) -> LaunchParams:
        """One thread per tile, grid-sized like Listing 3's launch."""
        block_dim = cls.clamp_block(spec, block_dim)
        grid = max(1, -(-max(1, work.num_tiles) // block_dim))
        return LaunchParams(grid_dim=grid, block_dim=block_dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(work={self.work!r}, "
            f"grid={self.launch.grid_dim}, block={self.launch.block_dim})"
        )


# ----------------------------------------------------------------------
# Registry: schedules are selectable by name -- the paper highlights that
# switching schedules is a one-identifier change (Section 6.2).
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[Schedule]] = {}


def register_schedule(name: str) -> Callable[[type[Schedule]], type[Schedule]]:
    """Class decorator adding a schedule to the global registry."""

    def deco(cls: type[Schedule]) -> type[Schedule]:
        if name in _REGISTRY:
            raise ValueError(f"schedule {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def available_schedules() -> list[str]:
    return sorted(_REGISTRY)


def schedule_description(name: str) -> str:
    """One-line description of a registered schedule.

    The first line of the schedule class's docstring -- kept there so the
    description can never drift from the implementation it documents.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown schedule {name!r}; available: {available_schedules()}")
    doc = (_REGISTRY[name].__doc__ or "").strip()
    return doc.splitlines()[0].strip() if doc else ""


def make_schedule(
    name: str,
    work: WorkSpec,
    spec: GpuSpec,
    launch: LaunchParams | None = None,
    **options,
) -> Schedule:
    """Instantiate a registered schedule by name.

    When ``launch`` is omitted, the schedule's own :meth:`default launch
    sizing <Schedule.default_launch>` is used -- subclasses override it to
    match their oversubscription strategy.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown schedule {name!r}; available: {available_schedules()}")
    cls = _REGISTRY[name]
    if launch is None:
        launch = cls.default_launch(work, spec)
    sched = cls(work, spec, launch, **options)
    # Remember the construction options: they are part of the schedule
    # identity the plan cache keys on (``repro.engine.plan_cache.
    # schedule_key``), and layers that re-instantiate the schedule on
    # derived workloads (the multi-GPU engine re-scheduling each device
    # shard) reproduce the same configuration instead of silently
    # reverting to defaults.
    sched.construction_options = dict(options)
    return sched
