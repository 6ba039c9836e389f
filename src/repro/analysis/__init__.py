"""``repro.analysis`` -- static analysis over kernels and schedules.

The paper's central promise -- swap the load-balancing schedule, keep
the kernel body -- is only sound when the schedule's work partition
cannot make two threads write the same output element.  This package
proves that per (kernel x schedule), the way a GPU race detector would,
but statically:

* **Effects** (:mod:`.effects`) -- parse the scalar body of every
  :class:`~repro.engine.registry.KernelDecl` on each registered app's
  ``AppSpec.kernels`` and classify every array write's index expression
  by provenance: work-item private, range-derived, or data-dependent
  scatter.
* **Races** (:mod:`.races`) -- fold those write classes through the
  closed-form per-thread load builders of every registered schedule
  into a verdict matrix: ``SAFE`` (cross-thread write sets provably
  disjoint), ``REDUCE`` (one tile's atoms split across threads; partial
  results need combination), ``SCATTER`` (data-dependent overlap
  possible; atomics or privatization required).
* **Probe** (:mod:`.probe`) -- a shadow-write dynamic probe that runs
  small instances through the interpreted SIMT path recording
  per-thread write sets; tier-1 asserts no ``SAFE`` verdict ever
  observes a cross-thread overlap.
* **Lints** (:mod:`.lints`) -- pluggable repo hygiene checks (env-var
  doc coverage, fault-site coverage) behind the ``repro analyze`` CLI.

Layering: ``analysis`` consumes ``core`` + ``engine`` + ``apps`` but
nothing imports it back -- it is tooling over the stack, not part of
the execution path.
"""

from .effects import KernelEffects, WriteEffect, kernel_effects
from .lints import LintFinding, available_lints, lint_descriptions, run_lints
from .probe import ProbeResult, probe_matrix, run_probe
from .races import (
    VERDICTS,
    cell_verdict,
    schedule_profile,
    verdict_matrix,
)

__all__ = [
    "KernelEffects",
    "WriteEffect",
    "kernel_effects",
    "LintFinding",
    "available_lints",
    "lint_descriptions",
    "run_lints",
    "ProbeResult",
    "run_probe",
    "probe_matrix",
    "VERDICTS",
    "cell_verdict",
    "schedule_profile",
    "verdict_matrix",
]
