"""``repro.engine`` -- the unified execution layer.

This package is the refactor of the per-app execution plumbing into one
subsystem, mirroring the paper's separation of concerns at the code
level:

* **Registry** (:mod:`.registry`) -- each application is declared once
  as an :class:`AppSpec`: a driver written against the Runtime API, one
  :class:`KernelDecl` per kernel it launches, an oracle, a sweep-problem
  builder, optional hardwired baselines.
  :func:`run_app` is the single entry point the public app functions
  delegate to.
* **Context** (:mod:`.context`) -- :class:`ExecutionContext`, the one
  frozen, picklable execution-selection object: engine name, device
  spec, :class:`~repro.core.policy.SchedulePolicy` and device count.
  ``ctx=`` is the only execution-selection argument of every public
  entry point.
* **Dispatch** (:mod:`.dispatch`) -- pluggable engines behind a registry
  (:func:`register_engine` / :func:`available_engines` /
  :func:`get_engine`), mirroring the schedule registry.
  :class:`VectorEngine` produces the functional result with NumPy and
  prices the launch with the schedule's analytic planner;
  :class:`SimtEngine` interprets the kernel body thread-by-thread on the
  simulated GPU and folds the measured charges with the same cost model;
  :class:`~repro.engine.multi_gpu.MultiGpuEngine` partitions the
  workload across simulated devices with the same schedules, so every
  registered app inherits multi-device sweeps.  Applications describe
  launches; they never branch on an engine name.
* **Plan cache** (:mod:`.plan_cache`) -- planning is pure, so the vector
  engine memoizes :meth:`Schedule.plan` keyed by the schedule identity
  (class, options, launch geometry, work content, device) plus the
  costs: corpus sweeps stop re-planning identical launches.  It is
  in-memory and per process; each pool worker keeps its own.
* **Worker pool** (:mod:`.worker_pool`) -- :class:`SweepExecutor`, the
  persistent process pool behind ``executor="process"`` sweeps: warm
  workers survive across ``run_suite`` calls (``pool=default_executor()``
  shares the module-wide pool), small shards are batched
  into one pickle crossing, and dataset payloads travel through
  ``multiprocessing.shared_memory`` as array blocks (CSR matrices, COO
  sparse tensors and dense arrays) instead of the pickle stream
  (anything else is pickled).  Warm workers also keep
  a bounded content-keyed :class:`ProblemCache` of built problem/oracle
  pairs, making steady-state sweeps rebuild-free.
* **Seeding** (:mod:`.seeding`) -- the one deterministic input-vector
  helper shared by the CLI, the harness and the tests.

The layering is strict: ``engine`` depends on ``core`` + ``gpusim`` +
``sparse`` only; ``apps`` depends on ``engine``; ``evaluation`` and the
CLI consume both through the registry.
"""

from ..core.policy import (
    FixedPolicy,
    HeuristicPolicy,
    OracleBestPolicy,
    PolicyError,
    SchedulePolicy,
    as_policy,
)
from .dispatch import (
    Engine,
    EngineError,
    Runtime,
    SimtEngine,
    UnknownEngineError,
    VectorEngine,
    available_engines,
    engine_description,
    ensure_known_engine,
    get_engine,
    register_engine,
    tile_charges,
)
from .compiled import (
    CompilationCache,
    CompiledEngine,
    clear_compilation_cache,
    compilation_cache,
    compilation_cache_stats,
    numba_available,
    precompile_kernels,
    tile_writer_counts,
)
from .multi_gpu import MultiGpuEngine
from .context import DEFAULT_CONTEXT, ExecutionContext
from .plan_cache import (
    PlanCache,
    clear_plan_cache,
    global_plan_cache,
    work_fingerprint,
)
from .worker_pool import (
    SHARED_ORACLE_BYTES_ENV,
    ProblemCache,
    ShmHandle,
    SweepExecutor,
    attach_payload,
    clear_problem_cache,
    default_executor,
    home_slot,
    install_signal_cleanup,
    problem_cache,
    publish_payload,
    shutdown_default_executor,
)
from .registry import (
    AppSpec,
    KernelDecl,
    available_apps,
    default_match,
    get_app,
    register_app,
    run_app,
)
from .seeding import DEFAULT_SEED, input_matrix, input_vector

__all__ = [
    "SchedulePolicy",
    "FixedPolicy",
    "HeuristicPolicy",
    "OracleBestPolicy",
    "PolicyError",
    "as_policy",
    "Engine",
    "EngineError",
    "UnknownEngineError",
    "Runtime",
    "SimtEngine",
    "VectorEngine",
    "MultiGpuEngine",
    "CompiledEngine",
    "CompilationCache",
    "tile_writer_counts",
    "compilation_cache",
    "compilation_cache_stats",
    "clear_compilation_cache",
    "numba_available",
    "precompile_kernels",
    "available_engines",
    "engine_description",
    "ensure_known_engine",
    "get_engine",
    "register_engine",
    "tile_charges",
    "ExecutionContext",
    "DEFAULT_CONTEXT",
    "SHARED_ORACLE_BYTES_ENV",
    "PlanCache",
    "SweepExecutor",
    "ShmHandle",
    "publish_payload",
    "attach_payload",
    "home_slot",
    "install_signal_cleanup",
    "ProblemCache",
    "problem_cache",
    "clear_problem_cache",
    "default_executor",
    "shutdown_default_executor",
    "clear_plan_cache",
    "global_plan_cache",
    "work_fingerprint",
    "AppSpec",
    "KernelDecl",
    "available_apps",
    "default_match",
    "get_app",
    "register_app",
    "run_app",
    "DEFAULT_SEED",
    "input_matrix",
    "input_vector",
]
