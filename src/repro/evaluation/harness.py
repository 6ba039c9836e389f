"""The experiment harness: (app x kernel x dataset) sweeps producing CSVs.

Mirrors the artifact's ``run.sh``, generalized over the application
registry: any registered app (:func:`repro.engine.available_apps`) can
be swept over the corpus with any schedule kernel, plus the app's own
hardwired baselines (SpMV competes against ``cub`` and ``cusparse``).
The output schema is the paper's appendix sample --

    kernel,dataset,rows,cols,nnzs,elapsed

``elapsed`` is the simulated kernel time in model milliseconds.  Sweeps
of a non-default app prepend an ``app`` column.

One functional pass per dataset
-------------------------------
Both executors, and :func:`run_cell` (a one-kernel dataset), run each
dataset through one function: the problem and
oracle are built once, and on any engine whose ``price`` times a
launch without running it (``vector``, ``compiled``, ``multi_gpu``) the
app's driver runs once too, for the first schedule kernel.  Those
engines' outputs do not depend on the schedule, so every other schedule
kernel is priced from that run's launch log
(:meth:`~repro.engine.dispatch.Runtime.reprice`), bit-identical to
running its cell.  Every cell still validates the shared output (the
oracle and its own sample check; a seed-free certificate runs once, for
the first kernel).  The ``simt`` engine, any engine without ``price``,
and the baselines execute every cell.

A serial sweep streams the corpus: each dataset is generated when the
loop reaches it (:func:`~repro.sparse.corpus.iter_corpus`) and released
after its rows, so it holds one dataset at a time.  The process pool
needs every shard up front and takes the list
(:func:`expand_datasets`).

Fan-out
-------
``executor="serial"`` (the default) runs every cell in-process.
``executor="process"`` takes ``pool=``, a caller-owned
:class:`~repro.engine.worker_pool.SweepExecutor` (CLI: ``--workers N``
builds one of width ``N`` for the sweep)::

    with SweepExecutor(max_workers=4) as pool:
        run_suite(kernels, executor="process", pool=pool)

The pool runs dataset shards: each shard builds its problem and oracle
exactly once and runs every kernel of the cell against them.  Each
shard runs on its dataset's home worker unless single shards are stolen
to even out the load; each worker's shards are cut by count into a few
batches, one pickle crossing each.  Warm workers serve each shard's
problem and oracle from a bounded content-keyed
:class:`~repro.engine.worker_pool.ProblemCache`; rows record the
``problem_cache`` outcome in ``meta``.  Repeated sweeps (any app) on one
pool reuse its warm workers -- imports paid once, worker caches kept hot.
CSR matrices, COO sparse tensors and dense arrays are published once to
a shared-memory block and reattached zero-copy in workers; anything else
is pickled into the task.  A shard the first round does not finish -- a
crashed or hung worker, or a failed shm attach
(``meta["transport_fallback"]``) -- re-runs once, pickled, on the next
worker, and degrades to the parent if that fails too.

Results are returned in deterministic (dataset, kernel) order regardless
of executor or worker count, and row sets are identical across both
executors for the same seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..core.schedule import available_schedules
from ..engine import (
    DEFAULT_CONTEXT,
    DEFAULT_SEED,
    ExecutionContext,
    get_app,
)
from ..core.policy import as_policy
from ..engine.dispatch import Runtime, ensure_known_engine, unknown_name
from ..sparse.corpus import Dataset, corpus_names, iter_corpus, load_dataset

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


def _prepare(app_spec, app: str, dataset: Dataset, seed: int, validate: bool):
    """``(problem, expected)`` for one dataset: the app's deterministic
    problem instance and, when validating, its oracle output."""
    matrix = dataset.matrix
    if app_spec.accepts is not None and not app_spec.accepts(matrix):
        raise ValueError(
            f"app {app!r} cannot run on dataset {dataset.name!r} "
            f"(shape {matrix.shape})"
        )
    if app_spec.sweep_problem is None:  # pragma: no cover - all built-ins have one
        raise ValueError(f"app {app!r} does not define a sweep problem")
    problem = app_spec.sweep_problem(matrix, seed)
    if not validate or app_spec.oracle is None:
        return problem, None
    return problem, app_spec.oracle(problem)


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


def _cell_row(
    app_spec, app, kernel, dataset, problem, expected, validate, seed,
    y, stats, schedule: str, check: bool,
) -> SweepRow:
    """Validate one cell's output and build its row (``check=False``
    skips the sample check, already run on this very output)."""
    # The artifact's --validate flag: every cell checks its output.
    if validate and expected is not None:
        if not app_spec.match(y, expected):
            raise AssertionError(
                f"validation failed for app={app} kernel={kernel} "
                f"dataset={dataset.name}"
            )
    if validate and check and app_spec.sample_check is not None:
        # Second, genuinely independent oracle: a seeded sampled dense
        # check (O(samples * row_nnz)) or a linear certificate of the
        # whole output, so the vector path is validated against more
        # than the function that produced it.
        if not app_spec.sample_check(problem, y, _sample_seed(app, kernel, dataset, seed)):
            raise AssertionError(
                f"sampled dense check failed for app={app} kernel={kernel} "
                f"dataset={dataset.name}"
            )
    # Launch extras ride along (e.g. the compiled engine's JIT mode); the
    # resolved schedule name wins over any same-named extras key.
    meta = {
        **stats.extras,
        "schedule": schedule,
        "simt_efficiency": stats.simt_efficiency,
        "occupancy": stats.occupancy,
        "utilization": stats.utilization,
    }
    matrix = dataset.matrix
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


def _run_dataset(
    app_spec, app, kernels, dataset, problem, expected, ctx, validate, seed
) -> list[SweepRow]:
    """Every kernel's row on one prepared dataset, in ``kernels`` order.

    On an engine with ``price`` the schedule never changes a launch's
    output, so the first schedule kernel runs the driver once on a
    :class:`~repro.engine.dispatch.Runtime` and every other schedule
    kernel is priced from its launch log: one functional pass
    per dataset.  Other engines, and the baselines, execute per cell.
    Every cell validates the output it reports; a sample check that
    ignores its seed would give every kernel of the shared output the
    same verdict, so only the first kernel runs it.
    """
    engine = ctx.engine_instance()
    logged = None  # the first schedule kernel's run, on a pricing engine
    rows = []
    for kernel in kernels:
        check = True
        if kernel in app_spec.baselines:
            y, stats = app_spec.baselines[kernel](problem, ctx.spec)
            # Baseline rows carry the same ``schedule`` extras key as
            # policy and schedule rows, so downstream consumers
            # (BENCH_policy) never special-case the kernel class.
            schedule = stats.extras.get("schedule", kernel)
        elif logged is not None:
            stats, schedule = rt.reprice(as_policy(kernel))
            y, stats = logged.output, stats or logged.stats
            check = app_spec.sample_check_seeded
        else:
            rt = Runtime(engine, spec=ctx.spec, policy=as_policy(kernel))
            result = app_spec.driver(problem, rt)
            y, stats, schedule = result.output, result.stats, result.schedule
            if engine.price is not None:
                logged = result
        rows.append(_cell_row(
            app_spec, app, kernel, dataset, problem, expected, validate, seed,
            y, stats, schedule, check,
        ))
    return rows


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
    problem, expected = _prepare(app_spec, app, dataset, seed, validate)
    return _run_dataset(
        app_spec, app, (kernel,), dataset, problem, expected, ctx, validate,
        seed,
    )[0]


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
    builds both locally.  Every row's ``meta`` records the shard's
    ``problem_cache`` outcome (``"hit"``, ``"miss"`` or ``"off"``).
    """
    from ..engine.worker_pool import dataset_content_key, problem_cache

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
        problem, expected = _prepare(
            app_spec, task.app, task.dataset, task.seed, task.validate
        )
        if status == "miss":
            cache.store(cache_key, problem, expected)
    rows = _run_dataset(
        app_spec, task.app, task.kernels, task.dataset, problem, expected,
        task.ctx, task.validate, task.seed,
    )
    for row in rows:
        row.meta["problem_cache"] = status
    return rows


def _iter_datasets(
    app: str,
    *,
    scale: str = "standard",
    limit: int | None = None,
    datasets: Iterable[Dataset] | None = None,
    names: Sequence[str] | None = None,
) -> Iterator[Dataset]:
    """The datasets one sweep over ``app`` will actually run, lazily.

    Corpus datasets are generated one at a time as the iterator reaches
    them (:func:`~repro.sparse.corpus.iter_corpus`), so a serial sweep
    holds one at a time.  ``datasets`` supplies explicit
    :class:`Dataset` objects instead (``limit`` then does not apply);
    ``names`` selects by dataset name and raises ``ValueError`` on
    unknown names.  Every argument is checked here, at the call, before
    any dataset is built; the app's acceptance filter drops the rest as
    they come.
    """
    app_spec = get_app(app)
    if datasets is not None:
        ds: Iterable[Dataset] = list(datasets)
        known = [d.name for d in ds]
    else:
        ds = iter_corpus(scale, limit=limit)
        known = corpus_names(scale)[:limit]
    if names is not None:
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError(
                f"unknown datasets {missing} for scale {scale!r}; "
                f"known: {', '.join(sorted(known))}"
            )
        if datasets is None:
            ds = (load_dataset(n, scale) for n in names)
        else:
            by_name = {d.name: d for d in ds}
            ds = [by_name[n] for n in names]
    if app_spec.accepts is None:
        return iter(ds)
    # ``filter`` keeps no reference to a dataset it has passed on.
    return filter(lambda d: app_spec.accepts(d.matrix), ds)


def expand_datasets(
    app: str,
    *,
    scale: str = "standard",
    limit: int | None = None,
    datasets: Iterable[Dataset] | None = None,
    names: Sequence[str] | None = None,
) -> list[Dataset]:
    """:func:`_iter_datasets` as a list, every dataset built and held.

    The process pool and the sweep service need every shard up front
    (placement and shm publishing see the whole sweep), so they take
    this list; the service admits jobs against exactly the datasets a
    direct library call would run.  A serial sweep iterates instead.
    """
    return list(_iter_datasets(
        app, scale=scale, limit=limit, datasets=datasets, names=names,
    ))


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
    pool=None,
) -> list[SweepRow]:
    """Run a kernel list over the corpus (the ``run.sh`` loop), generic.

    ``ctx`` is the single execution-selection argument (engine, device
    spec, device count); the per-cell kernel name supplies
    the schedule policy.  The context is what crosses the process-pool
    pickle boundary in ``executor="process"`` sweeps.

    Datasets the app cannot accept (e.g. rectangular matrices for graph
    apps) are skipped.  A serial sweep generates each corpus dataset as
    it reaches it and releases it after its rows, holding one at a time.
    ``executor="process"`` builds every dataset first and fans the
    shards out over ``pool``, a caller-owned :class:`~repro.engine.
    worker_pool.SweepExecutor` (see the module docstring); results keep
    the serial (dataset, kernel) order under every configuration.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
    if (executor == "process") != (pool is not None):
        raise ValueError(
            "executor='process' and pool= go together: pass both or neither"
        )
    ctx = DEFAULT_CONTEXT if ctx is None else ctx
    # Fail fast on unknown engines and kernels for *every* executor: a
    # typo'd name must raise here, in the caller's process, before any
    # dataset is staged or worker spawned -- not as a late error inside
    # a worker (or never at all when a cell short-circuits).
    if isinstance(ctx.engine, str):
        ensure_known_engine(ctx.engine)
    ensure_known_kernels(kernels, app)
    if pool is not None:
        shards = [
            _ShardTask(app=app, kernels=tuple(kernels), dataset=dataset,
                       seed=seed, validate=validate, ctx=ctx)
            for dataset in expand_datasets(
                app, scale=scale, limit=limit, datasets=datasets)
        ]
        return [row for rows in pool.map_shards(shards) for row in rows]
    app_spec = get_app(app)
    rows: list[SweepRow] = []
    for dataset in _iter_datasets(app, scale=scale, limit=limit, datasets=datasets):
        # Problem construction and the oracle are per-dataset, not
        # per-cell: build them once and share across the kernels.
        problem, expected = _prepare(app_spec, app, dataset, seed, validate)
        rows.extend(_run_dataset(
            app_spec, app, kernels, dataset, problem, expected, ctx,
            validate, seed,
        ))
        # Release this dataset before the iterator builds the next one.
        del dataset, problem, expected
    return rows


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
