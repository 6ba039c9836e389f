"""The compiled engine: JIT the hot loop, keep the schedule's geometry.

:class:`~repro.engine.dispatch.SimtEngine` interprets every kernel body
thread-by-thread in Python; this engine takes the interpreter out:

* Each :class:`~repro.engine.registry.KernelDecl` on an app's
  ``AppSpec.kernels`` carries a flat *scalar* body over plain arrays
  (jit-able: no closures over Python objects) next to the equivalent
  vectorized ``arrays`` body.  When :mod:`numba` is importable the
  scalar body is ``njit``-compiled once per process; otherwise the
  vectorized body runs, so the engine always exists.
* The schedule still decides the launch: grid/block shape and the
  per-thread work assignment come from the schedule's own
  :meth:`~repro.core.schedule.Schedule.loads` (atoms and tile visits
  per thread), charged at :meth:`~repro.core.schedule.Schedule.charges`
  and priced by the same :meth:`~repro.core.schedule.Schedule.price`
  the planner and the SIMT interpreter use (setup, bandwidth floor,
  block scheduling, launch overhead).  Schedule choice changes the
  compiled loop structure exactly as it changes the interpreted one.
* The priced loads are memoized in the one
  :class:`~repro.engine.plan_cache.PlanCache`, next to the vector
  engine's plans and keyed apart from them, and
  :func:`precompile_kernels` -- which walks every registered app's
  declarations -- is wired into the sweep worker initializer so warm
  pools amortize JIT cost.

The engine registers as ``"compiled"`` via
:func:`~repro.engine.dispatch.register_engine`, so it flows through
``ExecutionContext(engine="compiled")``, ``run_suite`` and the CLI
``--engine`` untouched.
"""

from __future__ import annotations

from typing import Callable

from .dispatch import Engine, register_engine

__all__ = [
    "CompiledEngine",
    "precompile_kernels",
    "numba_available",
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


class CompiledEngine(Engine):
    """JIT-compiled kernel execution with schedule-shaped timing.

    Runs the kernel's ``numba.njit``-ed scalar body (its ``arrays`` body
    without numba) and prices the schedule's per-thread loads at their
    charges; outputs are bit-for-bit the ``vector`` engine's.
    """

    name = "compiled"

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        return self.execute(decl, args), self.price(sched, costs, decl, extras=extras)

    def execute(self, decl, args):
        fn, _ = _compiled_fn(decl)
        return fn(*args)

    def price(self, sched, costs, decl, *, extras=None):
        _, jit_mode = _compiled_fn(decl)
        return self.plan_cache.plan(
            sched,
            costs,
            extras={"engine": "compiled", "jit": jit_mode, **(extras or {})},
            loads=True,
        )


register_engine("compiled", CompiledEngine)
