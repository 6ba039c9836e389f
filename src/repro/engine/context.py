"""``ExecutionContext``: the single execution-selection object.

The paper's claim is that an application is declared once and the
execution strategy is an identifier switch.  This module makes the
switch a *value*: one frozen, picklable object bundling everything that
selects *how* a declared application runs --

* the **engine** (a :func:`~repro.engine.dispatch.register_engine` name:
  ``"vector"``, ``"simt"``, ``"multi_gpu"``, ...),
* the **device** (:class:`~repro.gpusim.arch.GpuSpec`, plus ``gpus``
  for the multi-device engine),
* the **schedule policy**
  (:class:`~repro.core.policy.SchedulePolicy`: fixed, heuristic,
  oracle-best).

Every public app function, :func:`~repro.engine.registry.run_app`, the
harness's ``run_suite`` and the CLI take ``ctx=ExecutionContext(...)``
as the one execution-selection argument.  Because the context is
picklable, it is also what crosses the process-pool boundary in corpus
sweeps -- workers reconstruct the exact selection from one object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.policy import SchedulePolicy, as_policy
from ..core.schedule import Schedule
from ..gpusim.arch import GpuSpec, V100
from .dispatch import Engine, Runtime, get_engine

__all__ = ["ExecutionContext", "DEFAULT_CONTEXT"]


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
        registered default schedule.  A schedule tuned by construction
        options is selected as a pre-built instance
        (``policy=make_schedule(name, work, spec, **options)``).
    gpus:
        Device count for multi-device engines.  ``gpus > 1`` with the
        default engine auto-selects ``"multi_gpu"`` -- scaling out is a
        context edit, not a code change; combined with any other
        single-device engine it raises instead of being silently
        ignored.
    """

    engine: str | Engine = "vector"
    spec: GpuSpec = V100
    policy: SchedulePolicy | None = None
    gpus: int = 1

    def __post_init__(self):
        if self.policy is not None and not isinstance(self.policy, SchedulePolicy):
            object.__setattr__(self, "policy", as_policy(self.policy))
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
    # Derivation helpers (the context is immutable; edits make copies)
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "ExecutionContext":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_policy(self, selection) -> "ExecutionContext":
        """A copy selecting schedules with ``selection`` (any
        :func:`~repro.core.policy.as_policy` coercible value)."""
        return self.replace(policy=as_policy(selection))

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
            return get_engine("multi_gpu", num_devices=self.gpus)
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
        return Runtime(self.engine_instance(), spec=self.spec, policy=policy)

    def describe(self) -> str:
        """One-line summary (CSV metadata, logs)."""
        parts = [f"engine={self.engine_name()}"]
        if self.gpus > 1:
            parts.append(f"gpus={self.gpus}")
        parts.append(
            f"policy={self.policy.describe() if self.policy else 'app-default'}"
        )
        return " ".join(parts)


#: The all-defaults context: vector engine, V100, app-default schedules.
DEFAULT_CONTEXT = ExecutionContext()
