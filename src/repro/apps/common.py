"""Shared vocabulary of the application layer.

Applications in this package are *declarations*, not executors.  Each
module declares, exactly once, the pieces the paper says an application
should consist of, and registers them as an
:class:`~repro.engine.registry.AppSpec`:

1. how to build a :class:`~repro.core.work.WorkSpec` from the input
   format (the work definition stage),
2. a :class:`~repro.core.schedule.WorkCosts` cost model (what one atom /
   one tile costs the machine),
3. a vectorized functional result (NumPy; corpus scale),
4. a per-thread SIMT kernel body written in the paper's range-based
   pattern (ground truth; small inputs),
5. a pure CPU oracle for validation.

Execution -- resolving the schedule, running the kernel, assembling
:class:`KernelStats` -- is owned entirely by :mod:`repro.engine`: the
driver describes launches to a :class:`~repro.engine.dispatch.Runtime`
and the selected engine (``"vector"``, ``"simt"``, ``"multi_gpu"``, ...;
see :func:`~repro.engine.dispatch.available_engines`) does the rest.
Switching the schedule *or* the engine is a one-identifier change, and no
application module contains engine-specific plumbing.  Since the
ExecutionContext redesign both identifiers -- plus the schedule *policy*,
the device spec and the launch override -- travel together in one frozen
:class:`~repro.engine.context.ExecutionContext` value.

This module keeps the pieces the app declarations share: the
:class:`AppResult` envelope, the SpMV cost model (reused by SpMM and the
baselines), and input canonicalization helpers.  ``resolve_schedule``
is re-exported from the engine layer for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.schedule import WorkCosts
from ..engine.dispatch import resolve_schedule
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.cost_model import KernelStats

__all__ = ["AppResult", "resolve_schedule", "spmv_costs"]


@dataclass
class AppResult:
    """Output of one simulated application run."""

    output: Any
    stats: KernelStats
    schedule: str
    extras: dict = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        return self.stats.elapsed_ms


def spmv_costs(
    spec: GpuSpec = V100, *, gather_working_set_bytes: float | None = None
) -> WorkCosts:
    """Per-atom / per-tile costs of the SpMV computation (Listing 3).

    One atom is ``sum += values[nz] * x[indices[nz]]``: a coalesced load of
    the value, a coalesced load of the column index, a *gather* from the
    dense vector, and an FMA.  One tile reads its row extent and stores one
    output element.

    When ``gather_working_set_bytes`` is given (the size of the gathered
    vector x), the paper's future-work locality model
    (:mod:`repro.gpusim.cache`) replaces the flat pessimistic gather cost
    with a cache-aware one: small vectors become L2-resident and gathers
    get cheap.
    """
    c = spec.costs
    if gather_working_set_bytes is None:
        gather = c.global_load_random
    else:
        from ..gpusim.cache import effective_gather_cost

        gather = effective_gather_cost(spec, gather_working_set_bytes)
    return WorkCosts(
        atom_cycles=(
            c.global_load_coalesced  # values[nz]
            + c.global_load_coalesced  # indices[nz]
            + gather  # x[indices[nz]]
            + c.fma
        ),
        tile_cycles=c.global_load_coalesced + c.global_store,  # extent + y[row]
        tile_reduction=True,
        # 8B value + 4B column index + 8B x gather; 4B offset + 8B y store.
        atom_bytes=20.0,
        tile_bytes=12.0,
    )


def check_dense_vector(x, expected_len: int, name: str = "x") -> np.ndarray:
    """Validate and canonicalize a dense input vector."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size != expected_len:
        raise ValueError(
            f"{name} must be a one-dimensional vector of length {expected_len}, "
            f"got shape {np.shape(x)}"
        )
    return arr


def tile_charges(sched, costs: WorkCosts) -> tuple[float, float]:
    """Per-atom / per-tile cycle charges of an interpreted kernel body.

    The SIMT kernels charge ``n_atoms * atom + tile`` per visited tile --
    the user's declared costs plus the loop overhead and the schedule's
    abstraction tax, matching what the analytic planners price.
    """
    spec = sched.spec
    atom = costs.atom_total(spec) + getattr(sched, "abstraction_tax", 0.0)
    tile = costs.tile_cycles + spec.costs.loop_overhead
    return atom, tile
