"""Engine dispatch: the one execution layer behind every application.

The paper's pitch is that an application is *declared* once -- work, cost
model, kernel body -- and the execution strategy is an identifier switch.
This module is that switch.  An :class:`Engine` knows how to execute one
load-balanced kernel launch described by four pieces:

* a resolved :class:`~repro.core.schedule.Schedule` (the assignment),
* the application's :class:`~repro.core.schedule.WorkCosts`,
* the kernel's :class:`~repro.engine.registry.KernelDecl` -- its
  vectorized ``arrays`` body and optional flat-loop ``scalar`` body --
  plus the flat argument tuple of this launch,
* optionally ``simt()`` -- the hand-written thread-by-thread ground
  truth, a factory returning ``(body, finalize)`` where ``body`` is a
  per-thread kernel for the SIMT interpreter and ``finalize()`` yields
  the output buffer.

Engines live in a *registry* mirroring the schedule registry: built-ins
(:class:`VectorEngine`, :class:`SimtEngine`, and the multi-device
:class:`~repro.engine.multi_gpu.MultiGpuEngine`) register themselves via
:func:`register_engine`, :func:`available_engines` enumerates them, and
:func:`get_engine` resolves an identifier -- so adding an execution
strategy is a registration, never another plumbing pass through the call
sites.

Engines produce *work* -- the output plus the cycles the launch spent --
and only :func:`~repro.gpusim.cost_model.price` (through
:meth:`~repro.core.schedule.Schedule.price`) turns that work into time:
:class:`VectorEngine` runs ``decl.arrays(*args)`` and takes the cycles
from the schedule's analytic planner (memoized via
:mod:`repro.engine.plan_cache` on the schedule's identity and the costs,
whichever policy picked the schedule); :class:`SimtEngine` interprets
``simt()`` thread-by-thread and measures the charges.  Both are priced
identically -- setup, bandwidth floor, block scheduling, launch overhead
-- so the engines are cross-validated by construction.  Applications
never branch on an engine name -- they describe launches to a
:class:`Runtime` and its one engine does the rest.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

from ..core.policy import SchedulePolicy
from ..core.schedule import Schedule, WorkCosts, make_schedule
from ..core.work import WorkSpec
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.cost_model import KernelStats
from ..gpusim.simt import launch_interpreted
from ..sparse.csr import CsrMatrix
from .plan_cache import PlanCache, global_plan_cache

if TYPE_CHECKING:
    from .registry import KernelDecl

__all__ = [
    "EngineError",
    "UnknownEngineError",
    "Engine",
    "VectorEngine",
    "SimtEngine",
    "register_engine",
    "available_engines",
    "get_engine",
    "ensure_known_engine",
    "unknown_name",
    "engine_description",
    "Runtime",
    "tile_charges",
]


class EngineError(RuntimeError):
    """Raised when an engine cannot execute the requested launch."""


class UnknownEngineError(EngineError, ValueError):
    """An engine identifier that matches no registry entry.

    Subclasses :class:`ValueError` too, so pre-registry callers catching
    the old error class keep working.
    """


def tile_charges(sched: Schedule, costs: WorkCosts) -> tuple[float, float]:
    """Per-atom / per-tile cycle charges of one thread-level launch.

    A thread pays ``n_atoms * atom + tile`` per visited tile -- the
    app's declared costs plus the loop overhead and the schedule's
    abstraction tax on every range iteration, atom and tile alike,
    matching what the analytic planners price.  The SIMT kernel bodies
    charge it per tile; the compiled engine folds it over its
    materialized per-thread loads.
    """
    spec = sched.spec
    tax = sched.abstraction_tax
    atom = costs.atom_total(spec) + tax
    tile = costs.tile_cycles + spec.costs.loop_overhead + tax
    return atom, tile


class Engine(ABC):
    """One strategy for executing a load-balanced kernel launch."""

    name: str = "?"

    @abstractmethod
    def launch(
        self,
        sched: Schedule,
        costs: WorkCosts,
        decl: KernelDecl,
        args: tuple,
        *,
        simt: Callable[[], tuple[Callable, Callable[[], Any]]] | None = None,
        extras: dict | None = None,
    ) -> tuple[Any, KernelStats]:
        """Execute one launch of ``decl`` on ``args``; return
        ``(output, stats)``.

        ``decl`` is the kernel's :class:`~repro.engine.registry.KernelDecl`;
        each engine reads the body it needs from it.  ``simt`` is the
        hand-written per-thread kernel factory only the SIMT engine
        consumes.
        """


class VectorEngine(Engine):
    """Vectorized functional result + analytic planner timing.

    The corpus-scale engine: the output comes from the kernel's NumPy
    ``arrays`` body and the time from the schedule's planner view,
    memoized in a :class:`~repro.engine.plan_cache.PlanCache` so sweeps
    never re-plan an identical launch.
    """

    name = "vector"

    def __init__(self, plan_cache: PlanCache | None = None):
        self.plan_cache = global_plan_cache() if plan_cache is None else plan_cache

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        output = decl.arrays(*args)
        return output, self.plan_cache.plan(sched, costs, extras=extras)


class SimtEngine(Engine):
    """Thread-by-thread ground truth on the interpreted GPU.

    Executes the application's kernel body through the schedule's
    per-thread ranges and prices the measured per-thread charges through
    the same :meth:`~repro.core.schedule.Schedule.price` the planners use
    (small inputs only).
    """

    name = "simt"

    def _materialize_kernel(self, simt):
        """Build the (body, finalize) pair for one launch.

        Seam for instrumenting engines: the shadow-write race probe
        (:mod:`repro.analysis.probe`) overrides this to capture the
        arrays the kernel closure allocates.
        """
        return simt()

    def _instrument_body(self, body):
        """Wrap the per-thread body before interpretation (seam for
        instrumenting engines; identity here)."""
        return body

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        if simt is None:
            app = (extras or {}).get("app", "this application")
            raise EngineError(f"{app} does not define a SIMT kernel body")
        body, finalize = self._materialize_kernel(simt)
        thread_cycles = launch_interpreted(
            self._instrument_body(body),
            sched.launch.grid_dim,
            sched.launch.block_dim,
            (),
            sched.spec,
        )
        stats = sched.price(
            costs, thread_cycles, extras={"engine": "simt", **(extras or {})}
        )
        return finalize(), stats


# ----------------------------------------------------------------------
# Engine registry: execution strategies are selectable by name, exactly
# like schedules -- registering an Engine is what makes it reachable
# from every app, the harness and the CLI at once.
# ----------------------------------------------------------------------
_ENGINE_REGISTRY: dict[str, Callable[..., Engine]] = {}


def register_engine(name: str, factory: Callable[..., Engine]) -> None:
    """Add an engine to the global registry.

    ``factory(**options) -> Engine`` is typically the engine class
    itself; ``options`` are engine-specific construction knobs (e.g. the
    multi-GPU engine's ``num_devices``).
    """
    if name in _ENGINE_REGISTRY:
        raise ValueError(f"engine {name!r} already registered")
    _ENGINE_REGISTRY[name] = factory


def _ensure_engines() -> None:
    # Importing the modules registers every built-in engine (the
    # multi-GPU and compiled engines live in their own modules to keep
    # this one lean).
    from . import compiled, multi_gpu  # noqa: F401


def available_engines() -> tuple[str, ...]:
    """Names of every registered engine."""
    _ensure_engines()
    return tuple(sorted(_ENGINE_REGISTRY))


def unknown_name(kind: str, name: str, known) -> str:
    """Error message for an unregistered identifier: what is available,
    plus a did-you-mean suggestion when a known name is close."""
    import difflib

    known = sorted(known)
    close = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
    hint = f" -- did you mean {', '.join(repr(c) for c in close)}?" if close else ""
    return f"unknown {kind} {name!r}; available: {', '.join(known)}{hint}"


def ensure_known_engine(name: str) -> None:
    """Fail fast on an unregistered engine name (with a suggestion).

    Raises :class:`UnknownEngineError` listing :func:`available_engines`
    -- the same validation :func:`get_engine` applies, available to
    front-ends (CLI, harness) that want to reject a bad name before any
    work is sharded out.
    """
    _ensure_engines()
    if name not in _ENGINE_REGISTRY:
        raise UnknownEngineError(unknown_name("engine", name, _ENGINE_REGISTRY))


def engine_description(name: str) -> str:
    """First docstring line of a registered engine (CLI listings)."""
    _ensure_engines()
    ensure_known_engine(name)
    doc = _ENGINE_REGISTRY[name].__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def get_engine(engine: str | Engine, **options) -> Engine:
    """Resolve an engine identifier (or pass an instance through).

    ``options`` are forwarded to the registered factory -- engine
    construction knobs like the multi-GPU engine's ``num_devices``.
    Unknown names raise :class:`UnknownEngineError` listing
    :func:`available_engines`.
    """
    if isinstance(engine, Engine):
        if options:
            raise ValueError("engine options require an engine name, not an instance")
        return engine
    ensure_known_engine(engine)
    return _ENGINE_REGISTRY[engine](**options)


register_engine("vector", VectorEngine)
register_engine("simt", SimtEngine)


class Runtime:
    """Execution context of one application run.

    Binds the engine, the device spec and the schedule selection -- a
    :class:`~repro.core.policy.SchedulePolicy` -- so application drivers
    only describe *what* to launch.  Iterative applications (frontier
    loops, power iteration, multi-pass SpGEMM) call :meth:`run_launch`
    once per kernel; single-kernel applications call it once.  Build one
    with :meth:`~repro.engine.context.ExecutionContext.runtime`, or
    directly from a :class:`~repro.core.policy.SchedulePolicy`.
    """

    def __init__(
        self,
        engine: str | Engine = "vector",
        *,
        spec: GpuSpec = V100,
        policy: SchedulePolicy | None = None,
    ):
        self.engine = get_engine(engine)
        self.spec = spec
        self.policy = policy

    def schedule_label(self) -> str:
        """Printable name of this runtime's schedule selection."""
        return self.policy.describe() if self.policy is not None else "?"

    def _policy_planner(self):
        """Pricing hook for cost-aware policies: the engine's plan cache.

        Plans depend only on the schedule and the costs, so probes share
        entries with launches of the same schedule.
        """
        cache = getattr(self.engine, "plan_cache", None)
        return (global_plan_cache() if cache is None else cache).plan

    def schedule_for(
        self,
        work: WorkSpec,
        *,
        matrix: CsrMatrix | None = None,
        costs: WorkCosts | None = None,
    ) -> Schedule:
        """Resolve this runtime's schedule selection against a workload.

        ``costs`` lets cost-aware policies (:class:`OracleBestPolicy`)
        price candidates with the application's real :class:`WorkCosts`.
        """
        if self.policy is None:
            raise EngineError("Runtime was constructed without a schedule")
        selected = self.policy.select(
            work,
            self.spec,
            matrix=matrix,
            costs=costs,
            plan=self._policy_planner(),
        )
        if isinstance(selected, Schedule):
            return selected
        return make_schedule(selected, work, self.spec)

    def run_launch(
        self,
        sched: Schedule,
        costs: WorkCosts,
        decl: KernelDecl,
        args: tuple,
        *,
        simt: Callable[[], tuple[Callable, Callable[[], Any]]] | None = None,
        extras: dict | None = None,
    ) -> tuple[Any, KernelStats]:
        """Execute one launch of ``decl`` on ``args`` on the bound engine."""
        return self.engine.launch(
            sched, costs, decl, args, simt=simt, extras=extras
        )
