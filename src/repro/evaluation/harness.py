"""The experiment harness: (app x kernel x dataset) sweeps producing CSVs.

Mirrors the artifact's ``run.sh``, generalized over the application
registry: any registered app (:func:`repro.engine.available_apps`) can
be swept over the corpus with any schedule kernel, plus the app's own
hardwired baselines (SpMV competes against ``cub`` and ``cusparse``).
The output schema is the paper's appendix sample --

    kernel,dataset,rows,cols,nnzs,elapsed

``elapsed`` is the simulated kernel time in model milliseconds.  Sweeps
of a non-default app prepend an ``app`` column.

Performance knobs
-----------------
``executor`` (CLI: ``--workers N`` selects ``process``)
    ``serial`` (the default) runs every cell in-process.  ``process``
    runs dataset shards on a :class:`~repro.engine.worker_pool.
    SweepExecutor`: each shard builds its problem and oracle exactly
    once and runs every kernel of the cell against them, small shards
    are *batched* into one pickle crossing, and warm workers serve each
    shard's problem and oracle from a bounded content-keyed
    :class:`~repro.engine.worker_pool.ProblemCache` (budgets:
    ``REPRO_PROBLEM_CACHE_ENTRIES`` / ``REPRO_PROBLEM_CACHE_BYTES``);
    rows record the ``problem_cache`` outcome in ``meta``.
``pool`` / ``max_workers`` (``executor="process"`` only)
    By default each call spawns and tears down its own pool of
    ``max_workers`` workers (``os.cpu_count()`` capped by the shard
    count when ``None``).  Pass ``pool=SweepExecutor(...)`` to manage
    the lifetime yourself, or ``pool=default_executor()`` to share the
    process-wide warm pool, so repeated sweeps (any app) reuse warm
    workers -- imports paid once, worker caches kept hot.
Dataset transport
    CSR matrices, COO sparse tensors and dense arrays are published
    once to a shared-memory block and reattached zero-copy in workers;
    anything else is pickled into the task.  A shard whose worker
    cannot attach its block re-runs pickled (``meta["transport_
    fallback"]``).

Results are returned in deterministic (dataset, kernel) order regardless
of executor or worker count, and row sets are identical across both
executors for the same seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..core.schedule import available_schedules
from ..engine import (
    DEFAULT_CONTEXT,
    DEFAULT_SEED,
    ExecutionContext,
    get_app,
    run_app,
)
from ..engine.dispatch import ensure_known_engine, unknown_name
from ..sparse.corpus import Dataset, build_corpus

__all__ = [
    "SweepRow",
    "run_cell",
    "ensure_known_kernels",
    "expand_datasets",
    "run_suite",
    "write_csv",
    "SPMV_KERNELS",
    "PAPER_FIELDS",
    "EXECUTORS",
    "POLICY_KERNELS",
]

#: Kernel identifiers the harness understands for SpMV.  Framework
#: schedules are referenced by their registry names; ``heuristic`` is the
#: Section 6.2 selector; ``cub`` and ``cusparse`` are the baselines.
SPMV_KERNELS = (
    "thread_mapped",
    "warp_mapped",
    "block_mapped",
    "group_mapped",
    "merge_path",
    "nonzero_split",
    "lrb",
    "heuristic",
    "cub",
    "cusparse",
)

#: The paper's CSV schema (appendix sample).
PAPER_FIELDS = ("kernel", "dataset", "rows", "cols", "nnzs", "elapsed")

#: Fan-out strategies :func:`run_suite` understands.
EXECUTORS = ("serial", "process")


@dataclass(frozen=True)
class SweepRow:
    """One harness result cell, in the paper's CSV schema."""

    kernel: str
    dataset: str
    rows: int
    cols: int
    nnzs: int
    elapsed: float  # model milliseconds
    #: The swept application (the paper's CSV is SpMV-only; other apps
    #: surface this as an extra leading column).
    app: str = "spmv"
    #: Extra diagnostics not in the paper's schema (kept out of the CSV
    #: unless asked for).
    meta: dict = field(default_factory=dict, compare=False)

    def as_csv_dict(self, include_app: bool = False) -> dict:
        row = {
            "kernel": self.kernel,
            "dataset": self.dataset,
            "rows": self.rows,
            "cols": self.cols,
            "nnzs": self.nnzs,
            "elapsed": self.elapsed,
        }
        if include_app:
            row = {"app": self.app, **row}
        return row


def _build_problem(app_spec, app: str, dataset: Dataset, seed: int):
    """Derive the app's deterministic problem instance from one dataset."""
    matrix = dataset.matrix
    if app_spec.accepts is not None and not app_spec.accepts(matrix):
        raise ValueError(
            f"app {app!r} cannot run on dataset {dataset.name!r} "
            f"(shape {matrix.shape})"
        )
    if app_spec.sweep_problem is None:  # pragma: no cover - all built-ins have one
        raise ValueError(f"app {app!r} does not define a sweep problem")
    return app_spec.sweep_problem(matrix, seed)


#: Kernel identifiers that are schedule *policies*, not registry names:
#: ``heuristic`` is the Section 6.2 selector, ``oracle_best`` prices every
#: candidate schedule and picks the cheapest (the paper's "best of all
#: schedules" line).
POLICY_KERNELS = ("heuristic", "oracle_best")


def ensure_known_kernels(kernels: Iterable[str], app: str | None = "spmv") -> None:
    """Reject a kernel name before any work starts.

    A kernel is a registered schedule, a :data:`POLICY_KERNELS` entry or
    one of ``app``'s baselines (``app=None`` admits no baselines: the
    ``repro spmv --schedule`` flag).  Raises :class:`KeyError` with a
    did-you-mean suggestion.  The CLI, the sweep service,
    :func:`run_suite` and :func:`run_cell` all check names here.
    """
    known = set(available_schedules()) | set(POLICY_KERNELS)
    if app is not None:
        known |= set(get_app(app).baselines)
    for kernel in kernels:
        if kernel not in known:
            raise KeyError(unknown_name("kernel", kernel, known))


def _execute_cell(
    app_spec,
    app: str,
    kernel: str,
    dataset: Dataset,
    problem,
    expected,
    ctx: ExecutionContext,
    validate: bool,
    seed: int = DEFAULT_SEED,
) -> SweepRow:
    """Run one prepared (app, kernel, dataset) cell and validate it."""
    matrix = dataset.matrix
    if kernel in app_spec.baselines:
        y, stats = app_spec.baselines[kernel](problem, ctx.spec)
        meta = dict(stats.extras)
        # Baseline rows carry the same ``schedule`` extras key as policy
        # and schedule rows, so downstream consumers (BENCH_policy) never
        # special-case the kernel class.
        meta.setdefault("schedule", kernel)
    else:
        result = run_app(app_spec, problem, ctx=ctx.with_policy(kernel))
        y, stats = result.output, result.stats
        # Launch extras ride along (e.g. the compiled engine's JIT mode
        # and compilation-cache hit/miss counters); the resolved schedule
        # name wins over any same-named extras key.
        meta = {**stats.extras, "schedule": result.schedule}

    # The artifact's --validate flag: every cell checks its output.
    if validate and expected is not None:
        if not app_spec.match(y, expected):
            raise AssertionError(
                f"validation failed for app={app} kernel={kernel} "
                f"dataset={dataset.name}"
            )
    if validate and app_spec.sample_check is not None:
        # Second, genuinely independent oracle: a seeded sampled dense
        # check (O(samples * row_nnz)), so the vector path is validated
        # against more than the function that produced it.
        if not app_spec.sample_check(problem, y, _sample_seed(app, kernel, dataset, seed)):
            raise AssertionError(
                f"sampled dense check failed for app={app} kernel={kernel} "
                f"dataset={dataset.name}"
            )
    meta.update(
        simt_efficiency=stats.simt_efficiency,
        occupancy=stats.occupancy,
        utilization=stats.utilization,
    )
    return SweepRow(
        app=app,
        kernel=kernel,
        dataset=dataset.name,
        rows=matrix.num_rows,
        cols=matrix.num_cols,
        nnzs=matrix.nnz,
        elapsed=stats.elapsed_ms,
        meta=meta,
    )


def _sample_seed(app: str, kernel: str, dataset: Dataset, seed: int) -> int:
    """Deterministic per-cell seed for the sampled validation draws."""
    import zlib

    tag = f"{app}/{kernel}/{dataset.name}/{seed}".encode()
    return zlib.crc32(tag) & 0x7FFFFFFF


def run_cell(
    app: str,
    kernel: str,
    dataset: Dataset,
    *,
    ctx: ExecutionContext | None = None,
    seed: int = DEFAULT_SEED,
    validate: bool = True,
) -> SweepRow:
    """Run one (app, kernel, dataset) cell and validate the result."""
    ensure_known_kernels((kernel,), app)
    ctx = DEFAULT_CONTEXT if ctx is None else ctx
    app_spec = get_app(app)
    problem = _build_problem(app_spec, app, dataset, seed)
    expected = (
        app_spec.oracle(problem)
        if validate and app_spec.oracle is not None
        else None
    )
    return _execute_cell(
        app_spec, app, kernel, dataset, problem, expected, ctx, validate, seed
    )


@dataclass(frozen=True)
class _ShardTask:
    """One picklable unit of process-pool work: a whole dataset cell.

    The worker rebuilds the (expensive) problem instance and oracle once
    and amortizes them over every kernel of the shard -- matrices cross
    the pickle boundary once per dataset, never once per cell.  The
    execution selection crosses as one :class:`ExecutionContext`.
    """

    app: str
    kernels: tuple
    dataset: Dataset
    seed: int = DEFAULT_SEED
    validate: bool = True
    ctx: ExecutionContext = DEFAULT_CONTEXT


def _run_shard(
    task: _ShardTask, *, dataset_key: tuple | None = None
) -> list[SweepRow]:
    """Process-pool worker: run every kernel of one (app, dataset) shard.

    ``dataset_key`` is the dataset's content fingerprint when the caller
    already knows it (the shm transport publishes under it); otherwise it
    is derived here.  Shards with a fingerprint serve their problem and
    oracle from the worker-resident :class:`~repro.engine.worker_pool.
    ProblemCache`, so steady-state sweeps on a warm pool skip both
    rebuilds; a miss (first sweep, an evicted entry, a respawned worker)
    builds both locally.  Every row's ``meta`` records the
    ``problem_cache`` outcome plus the worker's running hit/miss
    counters.
    """
    from ..engine.worker_pool import dataset_content_key, problem_cache

    ctx = task.ctx
    app_spec = get_app(task.app)
    if dataset_key is None:
        dataset_key = dataset_content_key(task.dataset)
    cache = problem_cache()
    status = "off"
    cached = None
    if dataset_key is not None:
        # Problem construction depends on (app, dataset content, seed)
        # and the oracle additionally on ``validate``; the execution
        # context never reaches either, so it stays out of the key.
        cache_key = (task.app, dataset_key, task.seed, task.validate)
        cached = cache.lookup(cache_key)
        status = "miss" if cached is None else "hit"
    if cached is not None:
        problem, expected = cached
    else:
        problem = _build_problem(app_spec, task.app, task.dataset, task.seed)
        expected = (
            app_spec.oracle(problem)
            if task.validate and app_spec.oracle is not None
            else None
        )
        if status == "miss":
            cache.store(cache_key, problem, expected)
    rows = [
        _execute_cell(
            app_spec,
            task.app,
            kernel,
            task.dataset,
            problem,
            expected,
            ctx,
            task.validate,
            task.seed,
        )
        for kernel in task.kernels
    ]
    for row in rows:
        row.meta["problem_cache"] = status
        row.meta["problem_cache_hits"] = cache.hits
        row.meta["problem_cache_misses"] = cache.misses
    return rows


def expand_datasets(
    app: str,
    *,
    scale: str = "standard",
    limit: int | None = None,
    datasets: Iterable[Dataset] | None = None,
    names: Sequence[str] | None = None,
) -> list[Dataset]:
    """The datasets one sweep over ``app`` will actually run.

    Corpus expansion plus the app's acceptance filter, factored out of
    :func:`run_suite` so the sweep service admits jobs against exactly
    the dataset list a direct library call would use.  ``datasets``
    supplies explicit :class:`Dataset` objects (``limit`` then does not
    apply, matching :func:`run_suite`); ``names`` selects by dataset
    name from the expanded list and raises ``ValueError`` on unknown
    names -- admission-time validation, not a silent empty sweep.
    """
    app_spec = get_app(app)
    ds = list(datasets) if datasets is not None else build_corpus(scale, limit=limit)
    if names is not None:
        by_name = {d.name: d for d in ds}
        missing = [n for n in names if n not in by_name]
        if missing:
            known = ", ".join(sorted(by_name))
            raise ValueError(
                f"unknown datasets {missing} for scale {scale!r}; "
                f"known: {known}"
            )
        ds = [by_name[n] for n in names]
    if app_spec.accepts is not None:
        ds = [d for d in ds if app_spec.accepts(d.matrix)]
    return ds


def run_suite(
    kernels: Sequence[str],
    *,
    app: str = "spmv",
    scale: str = "standard",
    datasets: Iterable[Dataset] | None = None,
    limit: int | None = None,
    seed: int = DEFAULT_SEED,
    validate: bool = True,
    ctx: ExecutionContext | None = None,
    executor: str = "serial",
    max_workers: int | None = None,
    pool=None,
) -> list[SweepRow]:
    """Run a kernel list over the corpus (the ``run.sh`` loop), generic.

    ``ctx`` is the single execution-selection argument (engine, device
    spec, device count); the per-cell kernel name supplies
    the schedule policy.  The context is what crosses the process-pool
    pickle boundary in ``executor="process"`` sweeps.

    Datasets the app cannot accept (e.g. rectangular matrices for graph
    apps) are skipped.  ``executor`` / ``max_workers`` / ``pool`` are
    the performance knobs documented in the module docstring; results
    keep the serial (dataset, kernel) order under every configuration.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
    if executor != "process" and (pool is not None or max_workers is not None):
        raise ValueError("pool=/max_workers= require executor='process'")
    ctx = DEFAULT_CONTEXT if ctx is None else ctx
    # Fail fast on unknown engines and kernels for *every* executor: a
    # typo'd name must raise here, in the caller's process, before any
    # dataset is staged or worker spawned -- not as a late error inside
    # a worker (or never at all when a cell short-circuits).
    if isinstance(ctx.engine, str):
        ensure_known_engine(ctx.engine)
    ensure_known_kernels(kernels, app)
    app_spec = get_app(app)
    ds = expand_datasets(app, scale=scale, limit=limit, datasets=datasets)
    if executor == "process" and ds:
        return _run_process(
            kernels, app, ds, ctx, seed, validate, max_workers, pool
        )
    rows: list[SweepRow] = []
    for dataset in ds:
        # Problem construction and the oracle are per-dataset, not
        # per-cell: build them once and share across the kernels.
        problem = _build_problem(app_spec, app, dataset, seed)
        expected = (
            app_spec.oracle(problem)
            if validate and app_spec.oracle is not None
            else None
        )
        rows.extend(
            _execute_cell(
                app_spec, app, kernel, dataset, problem, expected, ctx,
                validate, seed,
            )
            for kernel in kernels
        )
    return rows


def _run_process(kernels, app, ds, ctx, seed, validate, max_workers, pool):
    """Fan dataset shards out over ``pool`` (or a scoped pool)."""
    from ..engine.worker_pool import SweepExecutor

    shards = [
        _ShardTask(
            app=app,
            kernels=tuple(kernels),
            dataset=dataset,
            seed=seed,
            validate=validate,
            ctx=ctx,
        )
        for dataset in ds
    ]
    if pool is not None:
        per_shard = pool.map_shards(shards)
    else:
        with SweepExecutor(max_workers=max_workers) as ephemeral:
            per_shard = ephemeral.map_shards(shards)
    return [row for shard_rows in per_shard for row in shard_rows]


def write_csv(
    rows: Iterable[SweepRow], path: str | Path, *, include_app: bool = False
) -> Path:
    """Write harness rows in the paper's CSV schema.

    ``include_app`` prepends the swept application as a leading column
    (for multi-app sweeps; the default matches the paper's schema).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = (["app"] if include_app else []) + list(PAPER_FIELDS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_csv_dict(include_app=include_app))
    return path
