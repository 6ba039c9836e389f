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

Engines live in a *registry* mirroring the schedule registry
(:func:`register_engine`, :func:`available_engines`, :func:`get_engine`),
so adding an execution strategy is a registration, never another
plumbing pass through the call sites.

Engines produce *work* -- the output plus the cycles the launch spent --
and only :meth:`~repro.core.schedule.Schedule.price` turns it into time
(setup, bandwidth floor, block scheduling, launch overhead), so the
engines are cross-validated by construction.  Applications never branch
on an engine name: they describe launches to a :class:`Runtime`.

Every engine but SIMT computes a launch's output from the kernel body
alone and only its time from the schedule: its ``launch`` is its
``execute`` seam (the body) plus its :meth:`Engine.price` seam (the
time).  On such an engine a :class:`Runtime` prices each distinct launch
of a run once -- a repeat only executes the body -- and, from the run's
launch log, prices the same launch sequence under any other policy
without running the kernels again.
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
from .plan_cache import PlanCache, _with_extras, global_plan_cache

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
]


class EngineError(RuntimeError):
    """Raised when an engine cannot execute the requested launch."""


class UnknownEngineError(EngineError, ValueError):
    """An engine identifier that matches no registry entry.

    Subclasses :class:`ValueError` too, so pre-registry callers catching
    the old error class keep working.
    """


class Engine(ABC):
    """One strategy for executing a load-balanced kernel launch, holding
    the plan cache cost-aware policies price candidates with."""

    name: str = "?"

    #: ``price(sched, costs, decl, *, extras=None) -> KernelStats`` times
    #: a launch without running it.  An engine defining it also defines
    #: ``execute(decl, args) -> output``, the body alone, and promises
    #: that ``launch`` returns ``execute``'s schedule-free output and this
    #: time; a :class:`Runtime` then prices each distinct launch once and
    #: a sweep prices every schedule from one run's launch log.  ``None``
    #: (SIMT, engines defining only ``launch``): a launch is timed only
    #: by running it.
    price: Callable[..., KernelStats] | None = None

    def __init__(self, plan_cache: PlanCache | None = None):
        self.plan_cache = global_plan_cache() if plan_cache is None else plan_cache

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

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        return self.execute(decl, args), self.price(sched, costs, decl, extras=extras)

    def execute(self, decl, args):
        return decl.arrays(*args)

    def price(self, sched, costs, decl, *, extras=None):
        return self.plan_cache.plan(sched, costs, extras=extras)


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
    # Importing the modules registers the compiled and multi-GPU
    # engines.  They live in their own modules, loaded only when a name
    # not yet registered (such as theirs) is asked for: "vector" and
    # "simt" are registered below.
    from . import compiled, multi_gpu  # noqa: F401


def available_engines() -> tuple[str, ...]:
    """Names of every registered engine (imports every built-in)."""
    _ensure_engines()
    return tuple(sorted(_ENGINE_REGISTRY))


def unknown_name(kind: str, name: str, known) -> str:
    """Error message for an unregistered identifier: what is available,
    plus a did-you-mean suggestion when a known name is close."""
    import difflib

    known = sorted(known)
    close = (difflib.get_close_matches(name, known, n=3, cutoff=0.5)
             if isinstance(name, str) else [])
    hint = f" -- did you mean {', '.join(repr(c) for c in close)}?" if close else ""
    return f"unknown {kind} {name!r}; available: {', '.join(known)}{hint}"


def ensure_known_engine(name: str) -> None:
    """Fail fast on an unregistered engine name (with a suggestion).

    Raises :class:`UnknownEngineError` listing :func:`available_engines`
    -- the same validation :func:`get_engine` applies, available to
    front-ends (CLI, harness) that want to reject a bad name before any
    work is sharded out.
    """
    if name not in _ENGINE_REGISTRY:
        _ensure_engines()
    if name not in _ENGINE_REGISTRY:
        raise UnknownEngineError(unknown_name("engine", name, _ENGINE_REGISTRY))


def engine_description(name: str) -> str:
    """First docstring line of a registered engine (CLI listings)."""
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

    Launches with the same work offsets, atom count, matrix (by
    identity) and costs are one *distinct* launch, resolved once: a
    policy's choice depends only on those and the device spec (true of
    every built-in policy).  On an engine with :attr:`Engine.price` each
    distinct launch of a kernel is priced once too; a repeat runs only
    the body and gets the stored stats with its own extras.  From the
    logged launches :meth:`reprice` gives the stats and schedule name
    the run would report under any other policy.  The distinct launches
    are held for the runtime's life: one run.
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
        #: The distinct launch index of each launch, in order.
        self.launches: list[int] = []
        #: Every :class:`_Distinct`, indexed by its distinct launch index.
        self._distinct: list[_Distinct] = []
        #: Hashed content key -> the distinct launches sharing it.
        self._by_key: dict[tuple, list[_Distinct]] = {}
        #: ``id(schedule)`` -> the distinct launch it was last resolved
        #: for.  Each entry holds its schedule, so no id is reused.
        self._by_sched: dict[int, _Distinct] = {}
        #: What names the result: a distinct launch's index, ``"label"``
        #: (the policy's label) or ``None`` (not named through the runtime).
        self._named_by: int | str | None = None

    def schedule_label(self) -> str:
        """Printable name of this runtime's schedule selection.

        Drivers whose result spans many launches (frontier loops, power
        iteration) name it with this; the last naming call of a run
        names its result.
        """
        self._named_by = "label"
        return self.policy.describe() if self.policy is not None else "?"

    def schedule_name(self, sched: Schedule) -> str:
        """Name a result after ``sched``, a schedule this runtime resolved
        and launched (what single-launch drivers and spgemm report)."""
        self._named_by = self._by_sched[id(sched)].index
        return sched.name

    def _policy_planner(self):
        """Pricing hook for cost-aware policies: the engine's plan cache.

        Plans depend only on the schedule and the costs, so probes share
        entries with launches of the same schedule.
        """
        return self.engine.plan_cache.plan

    def _resolve(self, policy, work, matrix, costs) -> Schedule:
        """The schedule ``policy`` selects for one launch."""
        selected = policy.select(
            work, self.spec, matrix=matrix, costs=costs, plan=self._policy_planner()
        )
        if isinstance(selected, Schedule):
            return selected
        return make_schedule(selected, work, self.spec)

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
        # Every distinct launch keeps its matrix alive, so the matrix's
        # id is not reused while the key is held.  The key holds a hash
        # of the work offsets, not a copy of them: a hit is confirmed
        # against the offsets its entry's WorkSpec holds, so a hash
        # collision cannot merge two launches.
        offsets = work.tile_offsets.tobytes()
        key = (_offsets_hash(offsets), work.num_atoms, id(matrix), costs)
        for entry in self._by_key.get(key, ()):
            if entry.work.tile_offsets.tobytes() == offsets:
                break
        else:
            sched = self._resolve(self.policy, work, matrix, costs)
            entry = _Distinct(len(self._distinct), sched, work, matrix, costs)
            self._distinct.append(entry)
            self._by_key.setdefault(key, []).append(entry)
        # A policy handing out one pre-built schedule for several
        # launches names the launch it was resolved for last.
        self._by_sched[id(entry.sched)] = entry
        return entry.sched

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
        """Execute one launch of ``decl`` on ``args`` on the bound engine.

        ``sched`` must come from this runtime's :meth:`schedule_for`,
        resolved with the launch's own ``costs``.
        """
        entry = self._by_sched.get(id(sched))
        if entry is None or entry.costs != costs:
            raise EngineError(
                "a launch must run a schedule this runtime resolved "
                "with the launch's own costs"
            )
        entry.decl, entry.extras = decl, extras
        self.launches.append(entry.index)
        engine = self.engine
        if engine.price is None:
            return engine.launch(sched, costs, decl, args, simt=simt, extras=extras)
        stats = entry.priced.get(decl)
        if stats is None:
            output, stats = engine.launch(sched, costs, decl, args, simt=simt)
            entry.priced[decl] = stats
        else:
            output = engine.execute(decl, args)
        return output, _with_extras(stats, {**stats.extras, **(extras or {})})

    def reprice(self, policy: SchedulePolicy) -> tuple[KernelStats | None, str]:
        """``(stats, schedule name)`` of the logged run under ``policy``.

        Each distinct launch is resolved and priced once; the logged
        sequence of their stats then folds with :meth:`KernelStats.chain`,
        as the driver composes them.  ``stats`` is ``None`` when the run
        made no launch (its own stats then do not depend on the schedule).
        """
        if self.engine.price is None:
            raise EngineError(
                f"engine {self.engine.name!r} times a launch only by running "
                "it, so its launches cannot be repriced"
            )
        if self._named_by is None:
            raise EngineError(
                "the driver did not name its schedule through "
                "Runtime.schedule_name or Runtime.schedule_label"
            )
        stats, names = [], []
        for d in self._distinct:
            sched = self._resolve(policy, d.work, d.matrix, d.costs)
            stats.append(self.engine.price(sched, d.costs, d.decl, extras=d.extras))
            names.append(sched.name)
        total = KernelStats.chain([stats[i] for i in self.launches])
        if self._named_by == "label":
            return total, policy.describe()
        return total, names[self._named_by]


#: The hash of a launch's work offsets (as bytes) in the key
#: :meth:`Runtime.schedule_for` finds a distinct launch by; a collision
#: only costs a comparison.
_offsets_hash = hash


class _Distinct:
    """One distinct launch of a :class:`Runtime`: the schedule resolved
    for it, what resolves it again under another policy, its stats per
    kernel on a pricing engine, and the kernel and extras it was last
    launched with (neither changes the time; a fold of several launches
    drops extras, so only a one-launch run reports them)."""

    __slots__ = (
        "index", "sched", "work", "matrix", "costs", "priced", "decl", "extras"
    )

    def __init__(self, index, sched, work, matrix, costs):
        self.index = index
        self.sched = sched
        self.work = work
        self.matrix = matrix
        self.costs = costs
        #: ``KernelDecl`` -> the stats of its first launch, no extras.
        self.priced: dict = {}
        self.decl = self.extras = None
