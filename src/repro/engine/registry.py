"""The application registry: each app declared exactly once.

An :class:`AppSpec` is the framework-side record of one application --
its driver (the declaration of work, costs and launches, written
against :class:`~repro.engine.dispatch.Runtime` only), its kernels (one
:class:`KernelDecl` each), its oracle, how to derive a sweep problem
from a corpus matrix, and any hardwired baseline implementations it
competes against.  Registering the spec is what makes an application
sweepable: the harness, the CLI and the parity tests all enumerate
:func:`available_apps` instead of hand-listing modules, and JIT warmup
and the static effect analysis enumerate ``AppSpec.kernels``.

:func:`run_app` is the single entry point every public app function
(``spmv(...)``, ``bfs(...)``, ...) delegates to: it builds the Runtime
from the caller's :class:`~repro.engine.context.ExecutionContext` and
invokes the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..sparse.csr import CsrMatrix
from .context import DEFAULT_CONTEXT, ExecutionContext
from .dispatch import Runtime

__all__ = [
    "AppSpec",
    "KernelDecl",
    "register_app",
    "get_app",
    "available_apps",
    "run_app",
    "default_match",
]


def default_match(output: Any, expected: Any) -> bool:
    """Default output validation: ``allclose`` at oracle tolerance (of
    two CSR outputs without densifying them)."""
    if isinstance(output, CsrMatrix) and isinstance(expected, CsrMatrix):
        return output.allclose(expected, rtol=1e-9, atol=1e-12)
    if hasattr(output, "to_dense"):
        output = output.to_dense()
    if hasattr(expected, "to_dense"):
        expected = expected.to_dense()
    return bool(
        np.allclose(
            np.asarray(output, dtype=np.float64),
            np.asarray(expected, dtype=np.float64),
            rtol=1e-9,
            atol=1e-12,
        )
    )


@dataclass(frozen=True, eq=False)
class KernelDecl:
    """One kernel of an application, declared once.

    Every consumer reads this one record: the vector and multi-GPU
    engines run ``arrays``, the compiled engine JITs ``scalar``,
    :func:`~repro.engine.compiled.precompile_kernels` warms ``scalar``
    on ``example_args``, and :mod:`repro.analysis.effects` classifies the
    writes of ``scalar`` (plus any declared ``writes``).  Declarations
    compare by identity: an app that reuses another's kernel (pagerank
    runs spmv) lists the same object.

    Attributes
    ----------
    label:
        Kernel identity within the application (``"spmv"``, spgemm's
        ``"count"``/``"compute"``, the frontier loop's ``"advance"``):
        the name the race probe and the effect analysis report the
        kernel under.
    arrays:
        ``arrays(*args) -> output``: the vectorized NumPy body over a
        flat argument tuple of plain ndarrays and scalars.
    scalar:
        Optional ``scalar(*args) -> output`` written as flat loops over
        the same arguments, bit-for-bit equal to ``arrays`` -- the body
        ``numba.njit`` compiles.  ``None`` keeps the kernel on the
        vectorized path even when numba is present.
    example_args:
        ``example_args() -> tuple``: tiny arguments to precompile
        ``scalar`` with; required whenever ``scalar`` is set.
    writes:
        Explicit ``{array name: write class}`` effects for arrays the
        AST pass cannot classify (a kernel without ``scalar``).
    """

    label: str
    arrays: Callable[..., Any]
    scalar: Callable[..., Any] | None = None
    example_args: Callable[[], tuple] | None = None
    writes: dict | None = None


@dataclass(frozen=True)
class AppSpec:
    """Everything the framework needs to know about one application.

    Attributes
    ----------
    driver:
        ``driver(problem, runtime) -> AppResult``.  The whole application:
        builds WorkSpecs, resolves schedules via ``runtime.schedule_for``,
        executes kernels via ``runtime.run_launch`` and names its result's
        schedule via ``runtime.schedule_name`` or
        ``runtime.schedule_label`` -- never touching an engine name.
        It may branch only on launch outputs, never on the schedule, so
        sweeps on a pricing engine (``Engine.price``) can price every
        schedule from one run's launches.
    kernels:
        Every :class:`KernelDecl` the driver launches, each exactly once.
    oracle:
        ``oracle(problem) -> expected output`` (pure NumPy/CPU reference).
    sweep_problem:
        ``sweep_problem(matrix, seed) -> problem``: derive a deterministic
        problem instance from a corpus CSR matrix, for harness sweeps.
    match:
        ``match(output, expected) -> bool`` -- output validation predicate.
    baselines:
        Hardwired comparator kernels by name (e.g. SpMV's ``cub``):
        ``fn(problem, spec) -> (output, stats)``.
    accepts:
        Optional predicate over the input matrix restricting which corpus
        datasets the app can sweep (e.g. graph apps need square inputs).
    sample_check:
        ``sample_check(problem, output, seed) -> bool`` -- a *second*,
        genuinely independent validation: re-derives a seeded sample of
        the output entries directly from the problem data
        (O(samples * row_nnz) for per-row outputs; one cheap linear
        pass for aggregate outputs like the histogram), or checks the
        whole output with a linear certificate (bfs: a few O(n + nnz)
        passes; ``seed`` then goes unused), through a different code
        path than both the oracle and the vector engine's ``arrays``
        body.  Used by the
        harness's ``--validate`` so the vector path is never compared
        only against the function that produced it.
    sample_check_seeded:
        ``False`` when ``sample_check`` ignores its seed (a complete
        certificate): a logged sweep then runs it once per dataset on
        the output every schedule kernel shares, since each kernel's
        check would return the same verdict.
    """

    name: str
    driver: Callable[[Any, Runtime], Any]
    kernels: tuple[KernelDecl, ...] = ()
    default_schedule: str = "merge_path"
    oracle: Callable[[Any], Any] | None = None
    sweep_problem: Callable[[Any, int], Any] | None = None
    match: Callable[[Any, Any], bool] = default_match
    baselines: dict = field(default_factory=dict)
    accepts: Callable[[Any], bool] | None = None
    sample_check: Callable[[Any, Any, int], bool] | None = None
    sample_check_seeded: bool = True
    description: str = ""


_APPS: dict[str, AppSpec] = {}


def register_app(spec: AppSpec) -> AppSpec:
    """Add an application to the global registry (import-time hook)."""
    if spec.name in _APPS:
        raise ValueError(f"app {spec.name!r} already registered")
    _APPS[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # Importing the apps package registers every built-in application.
    from .. import apps  # noqa: F401


def available_apps() -> list[str]:
    """Names of every registered application."""
    _ensure_registered()
    return sorted(_APPS)


def get_app(name: str) -> AppSpec:
    """Look up a registered application by name."""
    _ensure_registered()
    if name not in _APPS:
        raise KeyError(f"unknown app {name!r}; available: {available_apps()}")
    return _APPS[name]


def run_app(
    app: str | AppSpec, problem: Any, *, ctx: ExecutionContext | None = None
):
    """Run one application through the engine dispatcher.

    ``ctx`` is the one execution-selection argument: an
    :class:`~repro.engine.context.ExecutionContext` bundling engine,
    device spec, schedule policy and device count; ``None``
    means :data:`~repro.engine.context.DEFAULT_CONTEXT`.  A context
    without a schedule policy falls back to the app's registered default
    schedule.
    """
    app_spec = app if isinstance(app, AppSpec) else get_app(app)
    context = DEFAULT_CONTEXT if ctx is None else ctx
    runtime = context.runtime(default_schedule=app_spec.default_schedule)
    return app_spec.driver(problem, runtime)
