"""``ExecutionContext``: the single execution-selection object.

The paper's claim is that an application is declared once and the
execution strategy is an identifier switch.  This module makes the
switch a *value*: one frozen, picklable object bundling everything that
selects *how* a declared application runs --

* the **engine** (a :func:`~repro.engine.dispatch.register_engine` name:
  ``"vector"``, ``"simt"``, ``"multi_gpu"``, ...),
* the **device** (:class:`~repro.gpusim.arch.GpuSpec`, plus ``gpus`` /
  ``partition`` for multi-device engines),
* the **schedule policy**
  (:class:`~repro.core.policy.SchedulePolicy`: fixed, heuristic,
  per-kernel, oracle-best),
* launch-geometry overrides and schedule options,
* the persistent **plan store** journal.

Every public app function, :func:`~repro.engine.registry.run_app`, the
harness's ``run_suite`` and the CLI accept ``ctx=ExecutionContext(...)``
as the one execution-selection argument; the old loose kwargs
(``engine=``, ``schedule=``, ``spec=``, ``launch=``,
``**schedule_options``) remain as a deprecation shim routed through
:meth:`ExecutionContext.from_kwargs`.  Because the context is picklable,
it is also what crosses the process-pool boundary in corpus sweeps --
workers reconstruct the exact selection from one object instead of
re-threading five kwargs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.policy import SchedulePolicy, as_policy
from ..core.schedule import LaunchParams, Schedule
from ..gpusim.arch import GpuSpec, V100
from .dispatch import Engine, Runtime, get_engine

__all__ = ["ExecutionContext", "DEFAULT_CONTEXT"]

#: Sentinel distinguishing "not passed" from an explicit ``None`` in the
#: legacy-kwarg shim.
_UNSET = object()


@dataclass(frozen=True)
class ExecutionContext:
    """One frozen, picklable bundle of execution selections.

    Attributes
    ----------
    engine:
        Registered engine name (see
        :func:`~repro.engine.dispatch.available_engines`).  An
        :class:`~repro.engine.dispatch.Engine` *instance* is accepted for
        in-process use, but only named engines pickle across process
        pools.
    spec:
        Device architecture each engine simulates.
    policy:
        Schedule-selection policy; ``None`` defers to the application's
        registered default schedule.
    launch:
        Optional launch-geometry override applied to every resolution.
    schedule_options:
        Extra schedule construction options, stored as a sorted tuple of
        ``(name, value)`` pairs so the context stays hashable; a mapping
        is accepted and normalized.
    plan_store:
        Path of the single-file journaled plan store
        (:mod:`repro.engine.plan_store`); ``None`` = in-memory only.
        Sweeps attach the process-global plan cache to it.
    gpus:
        Device count for multi-device engines.  ``gpus > 1`` with the
        default engine auto-selects ``"multi_gpu"`` -- scaling out is a
        context edit, not a code change; combined with any other
        single-device engine it raises instead of being silently
        ignored.
    partition:
        Inter-device partition strategy (``"merge_path"`` or ``"tiles"``).
    engines:
        Per-kernel engine overrides -- the engine-side mirror of
        :class:`~repro.core.policy.PerKernelPolicy`: a mapping
        ``{kernel_label: engine_name}`` routing individual launches of a
        multi-kernel application (e.g. spgemm's ``"count"`` vs
        ``"compute"`` passes) to different engines than the context's
        default.  Stored as a sorted tuple of pairs so the context stays
        hashable and picklable; a mapping is accepted and normalized.
    """

    engine: str | Engine = "vector"
    spec: GpuSpec = V100
    policy: SchedulePolicy | None = None
    launch: LaunchParams | None = None
    schedule_options: tuple = ()
    plan_store: str | None = None
    gpus: int = 1
    partition: str = "merge_path"
    engines: tuple = ()

    def __post_init__(self):
        if isinstance(self.schedule_options, dict):
            object.__setattr__(
                self,
                "schedule_options",
                tuple(sorted(self.schedule_options.items())),
            )
        if isinstance(self.engines, dict):
            object.__setattr__(
                self, "engines", tuple(sorted(self.engines.items()))
            )
        if self.policy is not None and not isinstance(self.policy, SchedulePolicy):
            object.__setattr__(self, "policy", as_policy(self.policy))
        if self.plan_store is not None:
            object.__setattr__(self, "plan_store", str(self.plan_store))
        if self.gpus < 1:
            raise ValueError("gpus must be >= 1")
        if self.gpus > 1:
            if self.engine == "vector":
                # Declare once, scale out: asking for more devices *is*
                # the engine switch.
                object.__setattr__(self, "engine", "multi_gpu")
            elif self.engine_name() != "multi_gpu":
                # Never silently run single-device while the caller
                # believes they asked for a multi-device execution.
                raise ValueError(
                    f"gpus={self.gpus} requires the multi_gpu engine (or "
                    f"the default 'vector', which auto-selects it); got "
                    f"engine={self.engine_name()!r}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_kwargs(
        cls,
        *,
        ctx: "ExecutionContext | None" = None,
        engine=_UNSET,
        schedule=_UNSET,
        spec=_UNSET,
        launch=_UNSET,
        policy=_UNSET,
        gpus=_UNSET,
        partition=_UNSET,
        **schedule_options,
    ) -> "ExecutionContext":
        """Deprecation shim: build a context from the legacy loose kwargs.

        The pre-context call sites threaded ``engine=``/``schedule=``/
        ``spec=``/``launch=``/``**schedule_options`` through every app
        function; this translates them.  Passing ``ctx`` *and* any legacy
        selection kwarg is rejected -- one source of truth per call.
        """
        legacy = {
            name: value
            for name, value in [
                ("engine", engine), ("schedule", schedule), ("spec", spec),
                ("launch", launch), ("policy", policy), ("gpus", gpus),
                ("partition", partition),
            ]
            if value is not _UNSET and value is not None
        }
        if ctx is not None:
            if legacy or schedule_options:
                conflicting = sorted(legacy) + sorted(schedule_options)
                raise ValueError(
                    f"pass either ctx= or legacy selection kwargs, not both "
                    f"(got ctx plus {conflicting})"
                )
            return ctx
        if "schedule" in legacy and "policy" in legacy:
            raise ValueError("pass either schedule= or policy=, not both")
        selection = legacy.pop("policy", None)
        if selection is None:
            selection = legacy.pop("schedule", None)
        else:
            legacy.pop("schedule", None)
        return cls(
            engine=legacy.get("engine", "vector"),
            spec=legacy.get("spec", V100),
            policy=as_policy(selection) if selection is not None else None,
            launch=legacy.get("launch"),
            schedule_options=tuple(sorted(schedule_options.items())),
            gpus=legacy.get("gpus", 1),
            partition=legacy.get("partition", "merge_path"),
        )

    # ------------------------------------------------------------------
    # Derivation helpers (the context is immutable; edits make copies)
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "ExecutionContext":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_policy(self, selection) -> "ExecutionContext":
        """A copy selecting schedules with ``selection`` (any
        :func:`~repro.core.policy.as_policy` coercible value)."""
        return self.replace(policy=as_policy(selection))

    def with_engine(self, engine: str | Engine, *, gpus: int | None = None
                    ) -> "ExecutionContext":
        """A copy running on ``engine`` (optionally resizing ``gpus``)."""
        return self.replace(engine=engine, gpus=self.gpus if gpus is None else gpus)

    @property
    def options(self) -> dict:
        """Schedule options as a plain dict (stored normalized)."""
        return dict(self.schedule_options)

    def engine_name(self) -> str:
        """The engine identifier (instances report their class name)."""
        return self.engine if isinstance(self.engine, str) else self.engine.name

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def engine_instance(self) -> Engine:
        """Instantiate this context's engine from the registry."""
        if isinstance(self.engine, Engine):
            return self.engine
        if self.engine == "multi_gpu":
            return get_engine(
                "multi_gpu", num_devices=self.gpus, partition=self.partition
            )
        return get_engine(self.engine)

    def runtime(self, default_schedule: str | Schedule | None = None) -> Runtime:
        """Build the :class:`~repro.engine.dispatch.Runtime` this context
        describes.

        ``default_schedule`` (typically the application's registered
        default) fills in when the context has no policy.
        """
        policy = self.policy
        if policy is None and default_schedule is not None:
            policy = as_policy(default_schedule)
        return Runtime(
            self.engine_instance(),
            spec=self.spec,
            launch=self.launch,
            schedule_options=self.options,
            policy=policy,
            engines=dict(self.engines),
        )

    def describe(self) -> str:
        """One-line summary (CSV metadata, logs)."""
        parts = [f"engine={self.engine_name()}"]
        if self.engines:
            parts.append(
                "engines=" + ",".join(f"{k}:{v}" for k, v in self.engines)
            )
        if self.gpus > 1:
            parts.append(f"gpus={self.gpus}")
        parts.append(
            f"policy={self.policy.describe() if self.policy else 'app-default'}"
        )
        return " ".join(parts)


#: The all-defaults context: vector engine, V100, app-default schedules.
DEFAULT_CONTEXT = ExecutionContext()
