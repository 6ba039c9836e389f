"""Command-line interface mirroring the artifact's binaries and run.sh.

The original artifact ships per-schedule binaries
(``bin/loops.spmv.merge_path -m matrix.mtx --validate``) and a sweep
script producing ``kernel,dataset,rows,cols,nnzs,elapsed`` CSVs.  This
CLI reproduces both entry points::

    python -m repro spmv --dataset power_a19 --schedule merge_path --validate
    python -m repro spmv -m datasets/chesapeake.mtx --schedule merge_path --validate
    python -m repro sweep --kernels merge_path cub cusparse --scale smoke -o out.csv
    python -m repro sweep --app bfs --kernels group_mapped merge_path --scale smoke
    python -m repro sweep --app spmv --policy oracle_best --gpus 2
    python -m repro sweep --kernels merge_path --rows-jsonl rows.jsonl
    python -m repro serve --port 7077 --width 4 --journal results.journal
    python -m repro submit --port 7077 --kernels merge_path --scale smoke
    python -m repro datasets
    python -m repro apps
    python -m repro schedules
    python -m repro engines
    python -m repro table1
    python -m repro analyze --probe --lint --strict

Execution selection is one :class:`~repro.engine.context.ExecutionContext`
built from ``--engine`` (any registered engine: ``vector``, ``simt``,
``multi_gpu``, ...), ``--gpus`` (``> 1`` auto-selects the multi-GPU
engine), ``--spec`` and -- on ``sweep`` -- ``--policy`` (a schedule name,
``heuristic``, or ``oracle_best``, swept as the single kernel column).
Schedule and kernel names are validated against the registries with
did-you-mean suggestions.

The ``sweep`` command is generic over the application registry
(``--app``, default ``spmv``) and exposes the harness's performance
knobs:

* ``--workers N`` -- with ``N >= 1``, shard by dataset over a
  :class:`~repro.engine.worker_pool.SweepExecutor` of width ``N``, built
  for the sweep and shut down after it (SIGTERM/SIGINT unlink its shm
  too): each worker builds the problem/oracle once per dataset and runs
  every kernel of that cell, dataset payloads travel through shared
  memory, each worker's shards are batched.  Without it (or with ``0``) the
  sweep runs serially.

``serve`` runs the long-lived multi-tenant sweep daemon
(:mod:`repro.service`) over one persistent warm executor; ``submit``
is its client, streaming per-row JSON results as dataset shards
complete.  ``sweep --rows-jsonl`` writes the same per-row objects the
service streams, one JSON object per line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _check_kernels(kernels, app: str | None) -> str | None:
    """Validate sweep kernel/schedule names; return an error or ``None``."""
    from .evaluation.harness import ensure_known_kernels

    try:
        ensure_known_kernels(kernels, app)
    except KeyError as exc:
        return exc.args[0]
    return None


def _check_engine(engine: str) -> str | None:
    """Validate an engine name; return an error message or ``None``.

    Free-form (not argparse ``choices``) so unknown names get the same
    did-you-mean diagnostics as schedules and kernels.
    """
    from .engine.dispatch import UnknownEngineError, ensure_known_engine

    try:
        ensure_known_engine(engine)
    except UnknownEngineError as exc:
        return str(exc)
    return None


def _check_limit(limit: int | None) -> str | None:
    """``--limit`` must not be negative (``0`` sweeps nothing)."""
    if limit is not None and limit < 0:
        return f"--limit must be >= 0, got {limit}"
    return None


def _engine_arg(parser) -> None:
    parser.add_argument(
        "--engine", default="vector",
        help="registered execution engine (see 'repro engines'; "
             "default: vector)",
    )
    parser.add_argument(
        "--gpus", type=int, default=1,
        help="device count; > 1 auto-selects the multi_gpu engine",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Programming Model for GPU Load Balancing'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spmv = sub.add_parser("spmv", help="run one load-balanced SpMV")
    src = p_spmv.add_mutually_exclusive_group(required=True)
    src.add_argument("-m", "--mtx", type=Path, help="MatrixMarket input file")
    src.add_argument("--dataset", help="corpus dataset name")
    p_spmv.add_argument("--scale", default="standard", help="corpus scale")
    p_spmv.add_argument(
        "--schedule",
        default="merge_path",
        help="schedule name or 'heuristic' (default: merge_path)",
    )
    p_spmv.add_argument("--spec", default="V100", help="GPU preset name")
    p_spmv.add_argument(
        "--validate", action="store_true", help="check against the oracle"
    )
    p_spmv.add_argument("--seed", type=int, default=0, help="seed for x")
    _engine_arg(p_spmv)

    p_sweep = sub.add_parser("sweep", help="run the harness over the corpus")
    p_sweep.add_argument(
        "--kernels",
        nargs="+",
        default=None,
        help="kernel list (default: three schedules plus the app's baselines)",
    )
    p_sweep.add_argument("--app", default="spmv",
                         help="registered application to sweep (default: spmv)")
    p_sweep.add_argument("--scale", default="standard")
    p_sweep.add_argument("--limit", type=int, default=None,
                         help="run only the first N datasets (like run.sh)")
    p_sweep.add_argument("-o", "--output", type=Path, default=None,
                         help="CSV output path (default: stdout)")
    p_sweep.add_argument("--spec", default="V100")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process-pool width for per-dataset shards; "
                              "0 or unset runs serially in-process")
    p_sweep.add_argument("--rows-jsonl", type=Path, default=None,
                         help="also write one JSON object per result row "
                              "(the schema the sweep service streams) to "
                              "this path")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="input seed (default: the shared DEFAULT_SEED)")
    p_sweep.add_argument("--no-validate", action="store_true",
                         help="skip the per-cell oracle check")
    p_sweep.add_argument("--policy", default=None,
                         help="sweep one schedule policy as the kernel "
                              "column: a schedule name, 'heuristic', or "
                              "'oracle_best' (mutually exclusive with "
                              "--kernels)")
    _engine_arg(p_sweep)

    p_ds = sub.add_parser("datasets", help="list the corpus")
    p_ds.add_argument("--scale", default="standard")

    sub.add_parser("apps", help="list registered applications")

    sub.add_parser("table1", help="print the Table 1 LoC comparison")

    sub.add_parser("schedules", help="list registered schedules")

    sub.add_parser("engines", help="list registered execution engines")

    p_serve = sub.add_parser(
        "serve", help="run the long-lived multi-tenant sweep service"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="listen address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=7077,
                         help="listen port; 0 picks a free port "
                              "(announced on stdout)")
    p_serve.add_argument("--width", type=int, default=None,
                         help="worker-pool width; 0 runs units serially "
                              "in-process (default: the executor's default "
                              "width)")
    p_serve.add_argument("--queue-depth", type=int, default=None,
                         help="max pending jobs before submissions are "
                              "rejected with queue_full (default: 16)")
    p_serve.add_argument("--journal", type=Path, default=None,
                         help="crash-safe results journal (every accepted "
                              "job, row and completion, CRC-framed)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         help="per-job wall-clock deadline in seconds; a "
                              "job past it finishes with status=timeout "
                              "(default: 600; 0 disables)")

    p_submit = sub.add_parser(
        "submit", help="submit one sweep job to a running service"
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7077)
    p_submit.add_argument("--kernels", nargs="+", default=["merge_path"],
                          help="kernel list (default: merge_path)")
    p_submit.add_argument("--app", default="spmv",
                          help="registered application (default: spmv)")
    p_submit.add_argument("--scale", default="smoke",
                          help="corpus scale (default: smoke)")
    p_submit.add_argument("--limit", type=int, default=None,
                          help="run only the first N datasets")
    p_submit.add_argument("--datasets", nargs="+", default=None,
                          help="explicit dataset names from the scale")
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument("--no-validate", action="store_true",
                          help="skip the per-cell oracle check")
    p_submit.add_argument("--retries", type=int, default=0,
                          help="reconnect-and-resubmit attempts after "
                              "dropped connections or queue_full")
    p_submit.add_argument("--connect-timeout", type=float, default=None,
                          help="TCP connect deadline in seconds "
                               "(default: 10)")
    p_submit.add_argument("--idle-timeout", type=float, default=None,
                          help="max silence between server messages in "
                               "seconds (default: 300)")
    _engine_arg(p_submit)

    p_analyze = sub.add_parser(
        "analyze",
        help="static kernel-effect analysis: race verdict matrix and repo lints",
    )
    p_analyze.add_argument("--apps", nargs="+", default=None,
                           help="restrict the verdict matrix to these apps "
                                "(default: every registered app)")
    p_analyze.add_argument("--schedules", nargs="+", default=None,
                           help="restrict the matrix to these schedules "
                                "(default: every registered schedule)")
    p_analyze.add_argument("--lint", nargs="*", default=None,
                           metavar="LINT",
                           help="also run repo lints (bare flag: all of "
                                "them; see the lint list in the README)")
    p_analyze.add_argument("--probe", action="store_true",
                           help="validate every SAFE verdict with the "
                                "shadow-write dynamic probe")
    p_analyze.add_argument("--strict", action="store_true",
                           help="exit 1 on any lint finding, SCATTER-free "
                                "probe violation, or probe/verdict mismatch")
    p_analyze.add_argument("--json", type=Path, default=None,
                           help="write the full report (verdicts, lints, "
                                "probe) as JSON to this path")
    p_analyze.add_argument("--root", type=Path, default=None,
                           help="repo root for the lints (default: the "
                                "installed tree's root)")

    return parser


def _cmd_spmv(args: argparse.Namespace) -> int:
    from .apps.spmv import spmv
    from .baselines.reference import dense_spmv_oracle
    from .gpusim.arch import get_spec
    from .sparse.convert import coo_to_csr
    from .sparse.corpus import load_dataset
    from .sparse.mtx_io import read_mtx

    error = _check_kernels([args.schedule], None) or _check_engine(args.engine)
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    if args.mtx is not None:
        matrix = coo_to_csr(read_mtx(args.mtx))
        name = args.mtx.name
    else:
        ds = load_dataset(args.dataset, args.scale)
        matrix, name = ds.matrix, ds.name

    from .engine import ExecutionContext, input_vector

    ctx = ExecutionContext(
        engine=args.engine,
        spec=get_spec(args.spec),
        policy=args.schedule,
        gpus=args.gpus,
    )
    x = input_vector(matrix.num_cols, args.seed)
    result = spmv(matrix, x, ctx=ctx)

    print(f"Elapsed (ms): {result.elapsed_ms:.6f}")
    print(f"Matrix: {name}")
    print(f"Dimensions: {matrix.num_rows} x {matrix.num_cols} ({matrix.nnz})")
    print(f"Schedule: {result.schedule}")
    if args.validate:
        errors = int(
            np.sum(~np.isclose(result.output, dense_spmv_oracle(matrix, x)))
        )
        print(f"Errors: {errors}")
        return 1 if errors else 0
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import csv as _csv

    from .engine import DEFAULT_SEED, ExecutionContext, get_app
    from .evaluation.harness import PAPER_FIELDS, run_suite, write_csv
    from .gpusim.arch import get_spec

    if args.policy is not None and args.kernels is not None:
        print("--policy and --kernels are mutually exclusive", file=sys.stderr)
        return 2
    kernels = args.kernels
    if args.policy is not None:
        kernels = [args.policy]
    elif kernels is None:
        # Three representative schedules plus whatever hardwired
        # baselines the app competes against (SpMV: cub + cusparse).
        kernels = ["merge_path", "thread_mapped", "group_mapped"]
        kernels += sorted(get_app(args.app).baselines)

    error = (
        _check_kernels(kernels, args.app) or _check_engine(args.engine)
        or _check_limit(args.limit)
    )
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 0:
        print(f"--workers must be >= 0, got {args.workers}", file=sys.stderr)
        return 2
    rows_jsonl_fh = None
    if args.rows_jsonl is not None:
        # Validate writability *before* the sweep runs: a typo'd path
        # must fail in seconds as a usage error, not after minutes of
        # computed rows have nowhere to go.
        try:
            rows_jsonl_fh = open(args.rows_jsonl, "w", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write --rows-jsonl {args.rows_jsonl}: {exc}",
                  file=sys.stderr)
            return 2

    ctx = ExecutionContext(
        engine=args.engine,
        spec=get_spec(args.spec),
        gpus=args.gpus,
    )
    pool = None
    if args.workers:
        from .engine.worker_pool import SweepExecutor, install_signal_cleanup

        install_signal_cleanup()  # a signal death skips atexit's shm unlink
        pool = SweepExecutor(max_workers=args.workers)
    try:
        rows = run_suite(
            kernels,
            app=args.app,
            scale=args.scale,
            ctx=ctx,
            limit=args.limit,
            seed=DEFAULT_SEED if args.seed is None else args.seed,
            validate=not args.no_validate,
            executor="serial" if pool is None else "process",
            pool=pool,
        )
    except BaseException:
        if rows_jsonl_fh is not None:
            rows_jsonl_fh.close()
        raise
    finally:
        if pool is not None:
            pool.shutdown()
    if rows_jsonl_fh is not None:
        import json as _json

        from .service.protocol import row_to_wire

        with rows_jsonl_fh:
            for r in rows:
                rows_jsonl_fh.write(
                    _json.dumps(row_to_wire(r), separators=(",", ":")) + "\n"
                )
        print(f"wrote {len(rows)} rows to {args.rows_jsonl}", file=sys.stderr)
    include_app = args.app != "spmv"
    if args.output is not None:
        path = write_csv(rows, args.output, include_app=include_app)
        print(f"wrote {len(rows)} rows to {path}")
    else:
        fields = (["app"] if include_app else []) + list(PAPER_FIELDS)
        writer = _csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow(r.as_csv_dict(include_app=include_app))
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .sparse.corpus import iter_corpus

    print(f"{'name':<20} {'family':<9} {'rows':>8} {'cols':>8} {'nnz':>10} {'cv':>7}")
    for d in iter_corpus(args.scale):
        print(
            f"{d.name:<20} {d.family:<9} {d.rows:>8} {d.cols:>8} {d.nnz:>10} "
            f"{d.meta['cv']:>7.2f}"
        )
    return 0


def _cmd_apps(_args: argparse.Namespace) -> int:
    from .engine import available_apps, get_app

    print(f"{'name':<16} {'default schedule':<18} description")
    for name in available_apps():
        app = get_app(name)
        print(f"{name:<16} {app.default_schedule:<18} {app.description}")
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from .evaluation.loc import table1_rows

    print(f"{'algorithm':<16} {'paper CUB':>10} {'paper ours':>11} "
          f"{'measured ours':>14} {'incremental':>12}")
    for r in table1_rows():
        cub = str(r.paper_cub) if r.paper_cub is not None else "N/A"
        incr = str(r.measured_incremental) if r.measured_incremental is not None else "-"
        print(f"{r.algorithm:<16} {cub:>10} {r.paper_ours:>11} "
              f"{r.measured_ours:>14} {incr:>12}")
    return 0


def _cmd_schedules(_args: argparse.Namespace) -> int:
    from .core.schedule import available_schedules, schedule_description

    print(f"{'name':<16} description")
    for name in available_schedules():
        print(f"{name:<16} {schedule_description(name)}")
    return 0


def _cmd_engines(_args: argparse.Namespace) -> int:
    from .engine import available_engines, engine_description

    print(f"{'name':<16} description")
    for name in available_engines():
        print(f"{name:<16} {engine_description(name)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import SweepService

    try:  # SweepService rejects a negative width
        service = SweepService(
            host=args.host,
            port=args.port,
            width=args.width,
            queue_depth=args.queue_depth,
            journal_path=None if args.journal is None else str(args.journal),
            job_timeout=args.job_timeout,
        )
    except (ValueError, OSError) as exc:
        print(f"cannot start service: {exc}", file=sys.stderr)
        return 2

    def _announce(svc: SweepService) -> None:
        # One parseable line so wrappers (and the tests) can discover a
        # --port 0 ephemeral binding.
        print(f"repro serve listening on {svc.host}:{svc.port}", flush=True)

    try:
        asyncio.run(service.serve(install_signals=True, on_ready=_announce))
    except KeyboardInterrupt:
        pass
    print(
        f"repro serve drained: {service.jobs_done} jobs, "
        f"{service.rows_streamed} rows, {service.jobs_rejected} rejected",
        flush=True,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .service import JobRejected, ServiceError, SweepClient

    error = (
        _check_kernels(args.kernels, args.app) or _check_engine(args.engine)
        or _check_limit(args.limit)
    )
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    job = {
        "app": args.app,
        "kernels": list(args.kernels),
        "scale": args.scale,
        "limit": args.limit,
        "datasets": args.datasets,
        "seed": args.seed,
        "validate": not args.no_validate,
        "engine": args.engine,
        "gpus": args.gpus,
    }
    attempts = max(0, args.retries) + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        client = SweepClient(
            args.host, args.port,
            connect_timeout=args.connect_timeout,
            idle_timeout=args.idle_timeout,
        )
        try:
            client.connect()
            accepted = client.submit(job)
            print(
                f"accepted {accepted['job_id']}: {accepted['units']} units",
                file=sys.stderr,
            )
            failed = 0
            status = "unknown"
            for message in client.stream(accepted):
                kind = message.get("type")
                if kind == "row":
                    print(_json.dumps(message["row"], separators=(",", ":")),
                          flush=True)
                elif kind == "row_error":
                    failed += 1
                    print(
                        f"row error on {message.get('dataset')}: "
                        f"{message.get('error')}",
                        file=sys.stderr,
                    )
                else:  # done
                    status = message.get("status", "unknown")
            print(f"done: status={status} failed={failed}", file=sys.stderr)
            return 0 if status == "ok" else 1
        except JobRejected as exc:
            if exc.reason == "bad_request":
                print(f"rejected: {exc.detail or exc.reason}", file=sys.stderr)
                return 2  # the job itself is wrong; retrying is pointless
            last_error = exc
        except (ServiceError, OSError) as exc:
            last_error = exc
        finally:
            client.close()
    print(f"submit failed after {attempts} attempt(s): {last_error}",
          file=sys.stderr)
    return 3 if isinstance(last_error, JobRejected) else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        available_lints,
        probe_matrix,
        run_lints,
        verdict_matrix,
    )
    from .core.schedule import available_schedules
    from .engine import available_apps
    from .engine.dispatch import unknown_name

    lints = args.lint
    for kind, names, known in (
        ("app", args.apps, available_apps()),
        ("schedule", args.schedules, available_schedules()),
        ("lint", lints, available_lints()),
    ):
        for name in names or ():
            if name not in known:
                print(unknown_name(kind, name, known), file=sys.stderr)
                return 2
    if lints is not None:
        if not lints:
            lints = list(available_lints())

    matrix = verdict_matrix(apps=args.apps, schedules=args.schedules)
    sched_names = matrix["schedules"]
    width = max((len(s) for s in sched_names), default=8)
    kernel_col = max(
        [len(f"{r['app']}/{r['label']}") for r in matrix["rows"]] + [6]
    )
    print(f"{'kernel':<{kernel_col}} " +
          " ".join(f"{s:>{width}}" for s in sched_names))
    for row in matrix["rows"]:
        name = f"{row['app']}/{row['label']}"
        print(f"{name:<{kernel_col}} " +
              " ".join(f"{row['verdicts'][s]:>{width}}" for s in sched_names))

    violations: list[str] = []
    probe_report = None
    if args.probe:
        probed = probe_matrix(apps=args.apps, schedules=args.schedules)
        probe_report = []
        for row in matrix["rows"]:
            for sched in sched_names:
                result = probed.get((row["app"], sched))
                if result is None:
                    continue
                overlaps = result.overlaps_for(row["label"])
                probe_report.append(
                    {
                        "app": row["app"],
                        "schedule": sched,
                        "label": row["label"],
                        "verdict": row["verdicts"][sched],
                        "overlaps": overlaps,
                    }
                )
                if row["verdicts"][sched] == "SAFE" and overlaps:
                    violations.append(
                        f"probe violation: {row['app']}/{row['label']} under "
                        f"{sched} is SAFE but {overlaps} element(s) were "
                        "written by multiple threads"
                    )
        safe_cells = sum(1 for e in probe_report if e["verdict"] == "SAFE")
        print(f"probe: {len(probe_report)} cells, {safe_cells} SAFE, "
              f"{len(violations)} violation(s)")
        for line in violations:
            print(line, file=sys.stderr)

    findings = []
    if lints is not None:
        findings = run_lints(lints, root=args.root)
        for f in findings:
            print(f"{f.path}:{f.line}: [{f.lint}] {f.message}",
                  file=sys.stderr)
        print(f"lints: {len(lints)} run, {len(findings)} finding(s)")

    if args.json is not None:
        import json as _json

        report = {
            "verdicts": matrix,
            "lints": [
                {"lint": f.lint, "path": f.path, "line": f.line,
                 "message": f.message}
                for f in findings
            ],
            "probe": probe_report,
            "violations": violations,
        }
        args.json.write_text(_json.dumps(report, indent=2) + "\n")
        print(f"wrote report to {args.json}")

    if args.strict and (findings or violations):
        return 1
    return 0


_COMMANDS = {
    "spmv": _cmd_spmv,
    "sweep": _cmd_sweep,
    "datasets": _cmd_datasets,
    "apps": _cmd_apps,
    "table1": _cmd_table1,
    "schedules": _cmd_schedules,
    "engines": _cmd_engines,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
