"""Schedule-selection policies: *how* a schedule is chosen, as a value.

The paper's pitch is that the execution strategy is an identifier switch.
This module makes the schedule half of that switch a first-class,
composable, picklable object, so the selection strategy itself travels
inside an :class:`~repro.engine.context.ExecutionContext` -- across
process-pool pickle boundaries and into registries.  :func:`as_policy`
turns a schedule name, ``"heuristic"`` or ``"oracle_best"`` into one.

Three policies cover the paper's selection modes:

* :class:`FixedPolicy` -- one named schedule everywhere (the per-binary
  behaviour of the original artifact).  Also wraps a pre-built
  :class:`~repro.core.schedule.Schedule` instance.
* :class:`HeuristicPolicy` -- the Section 6.2 alpha/beta selector,
  parameterized by :class:`~repro.core.heuristic.HeuristicParams`.
* :class:`OracleBestPolicy` -- price every candidate schedule through the
  analytic planner (via the plan cache, when the runtime provides one)
  and pick the cheapest: the paper's "best of all schedules" line as an
  API instead of a harness loop.

Policies *select*; they never execute.  ``select`` returns a registered
schedule name (or a pre-built instance) and the runtime does the rest.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from ..gpusim.arch import GpuSpec
from ..gpusim.cost_model import KernelStats
from ..sparse.csr import CsrMatrix
from .heuristic import DEFAULT_HEURISTIC, HeuristicParams, select_schedule
from .schedule import Schedule, WorkCosts, available_schedules, make_schedule
from .work import WorkSpec

__all__ = [
    "SchedulePolicy",
    "FixedPolicy",
    "HeuristicPolicy",
    "OracleBestPolicy",
    "PolicyError",
    "as_policy",
]


class PolicyError(ValueError):
    """Raised when a policy cannot make a selection for a launch."""


#: Signature of the pricing hook a runtime hands to cost-aware policies:
#: ``plan(schedule, costs) -> KernelStats`` (typically the engine's plan
#: cache, so repeated probes of the same launch are free).
Planner = Callable[[Schedule, WorkCosts], KernelStats]

#: Generic probe costs used when a cost-aware policy must select before
#: the application has declared its :class:`WorkCosts` (one coalesced
#: load + one gather + an FMA per atom -- SpMV-shaped, which is the
#: corpus benchmark the schedules were characterized on).
_PROBE_COSTS = WorkCosts(atom_cycles=30.0, tile_cycles=8.0)


class SchedulePolicy(ABC):
    """One strategy for choosing a schedule per launch.

    ``select`` receives everything the runtime knows about the launch --
    the workload, the device, the input matrix (when the driver has one),
    the declared costs and a pricing hook -- and returns a registered
    schedule *name* (or a pre-built :class:`Schedule` instance, which the
    runtime uses as-is).
    """

    @abstractmethod
    def select(
        self,
        work: WorkSpec,
        spec: GpuSpec,
        *,
        matrix: CsrMatrix | None = None,
        costs: WorkCosts | None = None,
        plan: Planner | None = None,
    ) -> str | Schedule:
        """Choose the schedule for one launch."""

    def describe(self) -> str:
        """Short label for reports and CSV rows."""
        return type(self).__name__


@dataclass(frozen=True)
class FixedPolicy(SchedulePolicy):
    """Always the same schedule: a name, or a pre-built instance."""

    schedule: str | Schedule

    def select(self, work, spec, *, matrix=None, costs=None, plan=None):
        return self.schedule

    def describe(self):
        return (
            self.schedule if isinstance(self.schedule, str)
            else self.schedule.name
        )


@dataclass(frozen=True)
class HeuristicPolicy(SchedulePolicy):
    """The Section 6.2 alpha/beta selector, per matrix.

    ``params=None`` uses :data:`~repro.core.heuristic.DEFAULT_HEURISTIC`.
    """

    params: HeuristicParams | None = None

    def select(self, work, spec, *, matrix=None, costs=None, plan=None):
        if matrix is None:
            raise PolicyError("the heuristic policy requires the input matrix")
        params = self.params if self.params is not None else DEFAULT_HEURISTIC
        return select_schedule(matrix, params)

    def describe(self):
        return "heuristic"


@dataclass(frozen=True)
class OracleBestPolicy(SchedulePolicy):
    """Price every candidate schedule; pick the cheapest (oracle best).

    The paper's "best of all schedules" harness loop as a policy: each
    candidate is instantiated on the launch's workload, priced through
    the analytic planner (via the runtime's plan cache when available --
    repeated probes of an identical launch are free), and the minimum
    ``elapsed_ms`` wins.  Ties break lexicographically so the selection
    is deterministic.  Candidates that cannot be constructed or planned
    on a given workload are skipped.

    ``candidates=None`` means every registered schedule.
    """

    candidates: tuple[str, ...] | None = None

    def select(self, work, spec, *, matrix=None, costs=None, plan=None):
        names = self.candidates or tuple(available_schedules())
        price_costs = costs if costs is not None else _PROBE_COSTS
        best_name: str | None = None
        best_ms = float("inf")
        failures: list[str] = []
        for name in sorted(names):
            try:
                sched = make_schedule(name, work, spec)
                stats = (
                    plan(sched, price_costs) if plan is not None
                    else sched.plan(price_costs)
                )
            except TypeError:
                raise  # a bug in the schedule, not an unschedulable workload
            except Exception as exc:  # unschedulable candidate: skip
                failures.append(f"{name}: {exc}")
                continue
            if stats.elapsed_ms < best_ms:
                best_name, best_ms = name, stats.elapsed_ms
        if best_name is None:
            raise PolicyError(
                f"no candidate schedule could be planned for {work!r} "
                f"({'; '.join(failures)})"
            )
        return best_name

    def describe(self):
        return "oracle_best"


def as_policy(selection) -> SchedulePolicy:
    """Coerce any schedule selection into a :class:`SchedulePolicy`.

    Accepts a policy (returned unchanged), a registered schedule name,
    the strings ``"heuristic"`` / ``"oracle_best"``, or a pre-built
    :class:`Schedule` instance.
    """
    if isinstance(selection, SchedulePolicy):
        return selection
    if isinstance(selection, Schedule):
        return FixedPolicy(selection)
    if isinstance(selection, str):
        if selection == "heuristic":
            return HeuristicPolicy()
        if selection == "oracle_best":
            return OracleBestPolicy()
        return FixedPolicy(selection)
    raise TypeError(
        f"cannot interpret {selection!r} as a schedule policy; expected a "
        "SchedulePolicy, a schedule name, 'heuristic', 'oracle_best', or a "
        "Schedule instance"
    )
