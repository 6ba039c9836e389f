"""Engine dispatch: the one execution layer behind every application.

The paper's pitch is that an application is *declared* once -- work, cost
model, kernel body -- and the execution strategy is an identifier switch.
This module is that switch.  An :class:`Engine` knows how to execute one
load-balanced kernel launch described by four pieces:

* a resolved :class:`~repro.core.schedule.Schedule` (the assignment),
* the application's :class:`~repro.core.schedule.WorkCosts`,
* ``compute()`` -- the vectorized functional result (NumPy, corpus scale),
* ``kernel()`` -- a factory returning ``(body, finalize)`` where ``body``
  is a per-thread kernel for the SIMT interpreter and ``finalize()``
  yields the output buffer.

Engines live in a *registry* mirroring the schedule registry: built-ins
(:class:`VectorEngine`, :class:`SimtEngine`, and the multi-device
:class:`~repro.engine.multi_gpu.MultiGpuEngine`) register themselves via
:func:`register_engine`, :func:`available_engines` enumerates them, and
:func:`get_engine` resolves an identifier -- so adding an execution
strategy is a registration, never another plumbing pass through the call
sites.

:class:`VectorEngine` runs ``compute()`` and prices the launch through
the analytic planner (memoized via :mod:`repro.engine.plan_cache`, whose
optional journal layer persists plans across processes -- see the
``plan_store`` knob on the harness and CLI);
:class:`SimtEngine` interprets ``kernel()`` thread-by-thread and folds
the measured charges with the same cost model, so the two engines are
cross-validated by construction.  Applications never branch on an engine
name -- they describe launches to a :class:`Runtime` and the selected
engine does the rest.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from ..core.heuristic import HeuristicParams, select_schedule
from ..core.policy import SchedulePolicy, as_policy
from ..core.schedule import LaunchParams, Schedule, WorkCosts, make_schedule
from ..core.work import WorkSpec
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.cost_model import KernelStats, kernel_stats_from_thread_cycles
from ..gpusim.simt import launch_interpreted
from ..sparse.csr import CsrMatrix
from .plan_cache import PlanCache, global_plan_cache

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
    "engine_description",
    "Runtime",
    "resolve_schedule",
]


class EngineError(RuntimeError):
    """Raised when an engine cannot execute the requested launch."""


class UnknownEngineError(EngineError, ValueError):
    """An engine identifier that matches no registry entry.

    Subclasses :class:`ValueError` too, so pre-registry callers catching
    the old error class keep working.
    """


def resolve_schedule(
    schedule: str | Schedule,
    work: WorkSpec,
    spec: GpuSpec,
    launch: LaunchParams | None = None,
    *,
    matrix: CsrMatrix | None = None,
    heuristic: HeuristicParams | None = None,
    **options,
) -> Schedule:
    """Turn a schedule name (or ``"heuristic"``) into an instance.

    ``"heuristic"`` applies the Section 6.2 selector and requires the
    matrix for its shape statistics.
    """
    if isinstance(schedule, Schedule):
        return schedule
    name = schedule
    if name == "heuristic":
        if matrix is None:
            raise ValueError("schedule='heuristic' requires the input matrix")
        name = select_schedule(matrix, heuristic or HeuristicParams())
    return make_schedule(name, work, spec, launch, **options)


class Engine(ABC):
    """One strategy for executing a load-balanced kernel launch."""

    name: str = "?"

    @abstractmethod
    def launch(
        self,
        sched: Schedule,
        costs: WorkCosts,
        *,
        compute: Callable[[], Any] | None = None,
        kernel: Callable[[], tuple[Callable, Callable[[], Any]]] | None = None,
        compiled: Any | None = None,
        extras: dict | None = None,
        cache_key: tuple | None = None,
    ) -> tuple[Any, KernelStats]:
        """Execute one launch; return ``(output, stats)``.

        ``compiled`` is the application's optional
        :class:`~repro.engine.compiled.CompiledKernel` declaration; only
        the compiled engine consumes it, the others ignore it (the same
        way the vector engine ignores ``kernel`` and the SIMT engine
        ignores ``compute``).
        """


class VectorEngine(Engine):
    """Vectorized functional result + analytic planner timing.

    The corpus-scale engine: the output comes from the application's
    NumPy ``compute()`` and the time from the schedule's planner view,
    memoized in a :class:`~repro.engine.plan_cache.PlanCache` so sweeps
    never re-plan an identical launch.
    """

    name = "vector"

    def __init__(self, plan_cache: PlanCache | None = None):
        self.plan_cache = global_plan_cache() if plan_cache is None else plan_cache

    def launch(self, sched, costs, *, compute=None, kernel=None, compiled=None,
               extras=None, cache_key=None):
        if compute is None:
            raise EngineError("the vector engine requires a compute() callable")
        output = compute()
        stats = self.plan_cache.plan(
            sched, costs, extras=extras, options_key=cache_key
        )
        return output, stats


class SimtEngine(Engine):
    """Thread-by-thread ground truth on the interpreted GPU.

    Executes the application's kernel body through the schedule's
    per-thread ranges and folds the measured per-thread charges with the
    same cost model the planners use (small inputs only).
    """

    name = "simt"

    def _materialize_kernel(self, kernel):
        """Build the (body, finalize) pair for one launch.

        Seam for instrumenting engines: the shadow-write race probe
        (:mod:`repro.analysis.probe`) overrides this to capture the
        arrays the kernel closure allocates.
        """
        return kernel()

    def _instrument_body(self, body):
        """Wrap the per-thread body before interpretation (seam for
        instrumenting engines; identity here)."""
        return body

    def launch(self, sched, costs, *, compute=None, kernel=None, compiled=None,
               extras=None, cache_key=None):
        if kernel is None:
            app = (extras or {}).get("app", "this application")
            raise EngineError(f"{app} does not define a SIMT kernel body")
        body, finalize = self._materialize_kernel(kernel)
        result = launch_interpreted(
            self._instrument_body(body),
            sched.launch.grid_dim,
            sched.launch.block_dim,
            (),
            sched.spec,
        )
        stats = kernel_stats_from_thread_cycles(
            result.thread_cycles,
            sched.launch.grid_dim,
            sched.launch.block_dim,
            sched.spec,
            setup_cycles=sched.setup_cycles(costs),
            extras={"schedule": sched.name, "engine": "simt", **(extras or {})},
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


def ensure_known_engine(name: str) -> None:
    """Fail fast on an unregistered engine name (with a suggestion).

    Raises :class:`UnknownEngineError` listing :func:`available_engines`
    -- the same validation :func:`get_engine` applies, available to
    front-ends (CLI, harness) that want to reject a bad name before any
    work is sharded out.
    """
    import difflib

    _ensure_engines()
    if name in _ENGINE_REGISTRY:
        return
    close = difflib.get_close_matches(name, available_engines(), n=3, cutoff=0.5)
    hint = f" -- did you mean {', '.join(repr(c) for c in close)}?" if close else ""
    raise UnknownEngineError(
        f"unknown engine {name!r}; available: {available_engines()}{hint}"
    )


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
    :class:`~repro.core.policy.SchedulePolicy` plus launch override and
    schedule options -- so application drivers only describe *what* to
    launch.  Iterative applications (frontier loops, power iteration,
    multi-pass SpGEMM) call :meth:`run_launch` once per kernel;
    single-kernel applications call it once.

    The legacy ``schedule=`` argument (a name, ``"heuristic"``, or a
    pre-built instance) is coerced into a policy via
    :func:`~repro.core.policy.as_policy`; new code should construct an
    :class:`~repro.engine.context.ExecutionContext` and call
    :meth:`~repro.engine.context.ExecutionContext.runtime` instead.
    """

    def __init__(
        self,
        engine: str | Engine = "vector",
        *,
        spec: GpuSpec = V100,
        schedule: str | Schedule | None = None,
        launch: LaunchParams | None = None,
        schedule_options: dict | None = None,
        policy: SchedulePolicy | None = None,
        engines: dict | None = None,
    ):
        if policy is not None and schedule is not None:
            raise ValueError("pass either schedule= or policy=, not both")
        self.engine = get_engine(engine)
        self.spec = spec
        self.schedule = schedule
        self.launch = launch
        self.schedule_options = dict(schedule_options or {})
        # Per-kernel engine overrides, the engine-side mirror of
        # PerKernelPolicy: ``{kernel_label: engine}`` routes individual
        # launches of a multi-kernel application (e.g. spgemm's "count"
        # vs "compute" passes) to different engines.  Resolved eagerly so
        # a typo fails at construction, not mid-run.
        self.engines = {
            label: get_engine(value) for label, value in (engines or {}).items()
        }
        if policy is None and schedule is not None:
            policy = as_policy(schedule)
        self.policy = policy

    def schedule_label(self) -> str:
        """Printable name of this runtime's schedule selection."""
        if isinstance(self.schedule, Schedule):
            return self.schedule.name
        if isinstance(self.schedule, str):
            return self.schedule
        return self.policy.describe() if self.policy is not None else "?"

    def _policy_planner(self):
        """Pricing hook for cost-aware policies (plan-cache backed).

        The probe key must carry the runtime's schedule options: the same
        (schedule, work, costs) planned under different options (e.g.
        ``group_size``) yields different stats, and a constant key would
        let one configuration's cached timings answer another's probe.
        Unhashable options fall back to planning live.
        """
        cache = getattr(self.engine, "plan_cache", None)
        if cache is None:
            cache = global_plan_cache()
        try:
            options = tuple(sorted(self.schedule_options.items()))
            hash(options)
            probe_key = ("policy_probe",) + options
        except TypeError:
            probe_key = None  # options_key=None -> PlanCache plans live

        def plan(sched: Schedule, costs: WorkCosts) -> KernelStats:
            return cache.plan(sched, costs, options_key=probe_key)

        return plan

    def schedule_for(
        self,
        work: WorkSpec,
        *,
        matrix: CsrMatrix | None = None,
        launch: LaunchParams | None | type[Ellipsis] = ...,
        kernel: str | None = None,
        costs: WorkCosts | None = None,
    ) -> Schedule:
        """Resolve this runtime's schedule selection against a workload.

        ``launch`` overrides the runtime's launch parameters for this one
        resolution (pass ``None`` to force the schedule's default sizing
        -- e.g. a secondary pass whose work shape differs from the first).
        ``kernel`` labels the launch for :class:`PerKernelPolicy` routing
        in multi-kernel applications; ``costs`` lets cost-aware policies
        (:class:`OracleBestPolicy`) price candidates with the
        application's real :class:`WorkCosts`.
        """
        if self.policy is None:
            raise EngineError("Runtime was constructed without a schedule")
        launch_params = self.launch if launch is ... else launch
        selected = self.policy.select(
            work,
            self.spec,
            matrix=matrix,
            kernel=kernel,
            costs=costs,
            launch=launch_params,
            plan=self._policy_planner(),
            schedule_options=self.schedule_options,
        )
        if isinstance(selected, Schedule):
            return selected
        return resolve_schedule(
            selected,
            work,
            self.spec,
            launch_params,
            matrix=matrix,
            **self.schedule_options,
        )

    def _cache_key(self) -> tuple | None:
        # Only policies with a stable identity are cacheable: a pre-built
        # Schedule instance may carry options the key cannot observe.
        if self.policy is None:
            return None
        token = self.policy.cache_token()
        if token is None:
            return None
        try:
            options = tuple(sorted(self.schedule_options.items()))
            hash((token, options))
        except TypeError:
            return None
        return (token,) + options

    def run_launch(
        self,
        sched: Schedule,
        costs: WorkCosts,
        *,
        compute: Callable[[], Any] | None = None,
        kernel: Callable[[], tuple[Callable, Callable[[], Any]]] | None = None,
        compiled: Any | None = None,
        kernel_label: str | None = None,
        extras: dict | None = None,
    ) -> tuple[Any, KernelStats]:
        """Execute one described launch on the bound engine.

        ``kernel_label`` names the launch within the application (the
        same labels ``schedule_for(kernel=...)`` uses); a matching entry
        in the runtime's per-kernel ``engines`` mapping overrides the
        bound engine for this one launch.  ``compiled`` is the optional
        :class:`~repro.engine.compiled.CompiledKernel` declaration.
        """
        engine = self.engine
        if kernel_label is not None and kernel_label in self.engines:
            engine = self.engines[kernel_label]
        return engine.launch(
            sched,
            costs,
            compute=compute,
            kernel=kernel,
            compiled=compiled,
            extras=extras,
            cache_key=self._cache_key(),
        )
