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
    python -m repro plans plans.journal
    python -m repro plans compact plans.journal

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

* ``--workers N`` -- with ``N >= 1``, shard by dataset over the
  process-wide persistent worker pool (:func:`~repro.engine.worker_pool.
  default_executor`) of width ``N``: each worker builds the
  problem/oracle once per dataset and runs every kernel of that cell,
  dataset payloads travel through shared memory, small shards are
  batched.  Without it (or with ``0``) the sweep runs serially;
* ``--plan-store FILE`` -- persist the engine's plan cache in an
  append-only journal so repeated sweeps of the same grid (and every
  process-pool worker) start warm instead of re-planning identical
  launches.

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


def _did_you_mean(name: str, known) -> str:
    """Suggestion suffix for an unknown registry identifier."""
    import difflib

    close = difflib.get_close_matches(name, sorted(known), n=3, cutoff=0.5)
    if close:
        return f" -- did you mean {', '.join(repr(c) for c in close)}?"
    return f" (known: {', '.join(sorted(known))})"


def _check_kernels(kernels, app: str) -> str | None:
    """Validate sweep kernel/schedule names; return an error or ``None``."""
    from .core.schedule import available_schedules
    from .engine import get_app
    from .evaluation.harness import POLICY_KERNELS

    known = set(available_schedules()) | set(POLICY_KERNELS)
    known |= set(get_app(app).baselines)
    for kernel in kernels:
        if kernel not in known:
            return f"unknown kernel {kernel!r}{_did_you_mean(kernel, known)}"
    return None


def _check_engine(engine: str) -> str | None:
    """Validate an engine name; return an error message or ``None``.

    Free-form (not argparse ``choices``) so unknown names get the same
    did-you-mean diagnostics as schedules and kernels.
    """
    from .engine import available_engines

    known = available_engines()
    if engine not in known:
        return f"unknown engine {engine!r}{_did_you_mean(engine, known)}"
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
    p_sweep.add_argument("--plan-store", type=Path, default=None,
                         help="journaled plan store (warm-starts repeated "
                              "sweeps and workers)")
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
                              "in-process (default: REPRO_SERVE_WIDTH or "
                              "the executor's default width)")
    p_serve.add_argument("--queue-depth", type=int, default=None,
                         help="max pending jobs before submissions are "
                              "rejected with queue_full (default: "
                              "REPRO_SERVE_QUEUE_DEPTH or 16)")
    p_serve.add_argument("--journal", type=Path, default=None,
                         help="crash-safe results journal (every accepted "
                              "job, row and completion, CRC-framed)")
    p_serve.add_argument("--plan-store", type=Path, default=None,
                         help="journaled plan store shared by every job")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         help="per-job wall-clock deadline in seconds; a "
                              "job past it finishes with status=timeout "
                              "(default: REPRO_SERVE_JOB_TIMEOUT or 600; "
                              "0 disables)")

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
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="single knob setting both --connect-timeout "
                               "and --idle-timeout")
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

    p_plans = sub.add_parser(
        "plans", help="inspect or compact a journaled plan store"
    )
    p_plans.add_argument(
        "target", nargs="+", metavar="[compact] PATH",
        help="plan-store journal to inspect, or 'compact' followed by "
             "the journal to rewrite in place",
    )
    return parser


def _cmd_spmv(args: argparse.Namespace) -> int:
    from .apps.spmv import spmv
    from .baselines.reference import dense_spmv_oracle
    from .core.schedule import available_schedules
    from .evaluation.harness import POLICY_KERNELS
    from .gpusim.arch import get_spec
    from .sparse.convert import coo_to_csr
    from .sparse.corpus import load_dataset
    from .sparse.mtx_io import read_mtx

    known = set(available_schedules()) | set(POLICY_KERNELS)
    if args.schedule not in known:
        print(
            f"unknown schedule {args.schedule!r}"
            f"{_did_you_mean(args.schedule, known)}",
            file=sys.stderr,
        )
        return 2
    error = _check_engine(args.engine)
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

    error = _check_kernels(kernels, args.app)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    error = _check_engine(args.engine)
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
        plan_store=None if args.plan_store is None else str(args.plan_store),
    )
    fan_out = {}
    if args.workers:
        from .engine.worker_pool import default_executor

        fan_out = dict(executor="process", pool=default_executor(args.workers))
    try:
        rows = run_suite(
            kernels,
            app=args.app,
            scale=args.scale,
            ctx=ctx,
            limit=args.limit,
            seed=DEFAULT_SEED if args.seed is None else args.seed,
            validate=not args.no_validate,
            **fan_out,
        )
    except BaseException:
        if rows_jsonl_fh is not None:
            rows_jsonl_fh.close()
        raise
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
    from .sparse.corpus import build_corpus

    print(f"{'name':<20} {'family':<9} {'rows':>8} {'cols':>8} {'nnz':>10} {'cv':>7}")
    for d in build_corpus(args.scale):
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
    import os

    from .service import SweepService
    from .service.server import SERVE_WIDTH_ENV

    width = args.width
    if width is None:
        raw = os.environ.get(SERVE_WIDTH_ENV)
        if raw:
            try:
                width = int(raw)
            except ValueError:
                print(f"non-integer {SERVE_WIDTH_ENV}={raw!r}",
                      file=sys.stderr)
                return 2
    if width is not None and width < 0:
        print(f"--width must be >= 0, got {width}", file=sys.stderr)
        return 2
    try:
        service = SweepService(
            host=args.host,
            port=args.port,
            width=width,
            queue_depth=args.queue_depth,
            journal_path=None if args.journal is None else str(args.journal),
            plan_store=None if args.plan_store is None else str(args.plan_store),
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

    error = _check_kernels(args.kernels, args.app)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    error = _check_engine(args.engine)
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
            args.host, args.port, timeout=args.timeout,
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

    known_apps = set(available_apps())
    for app in args.apps or ():
        if app not in known_apps:
            print(f"unknown app {app!r}{_did_you_mean(app, known_apps)}",
                  file=sys.stderr)
            return 2
    known_schedules = set(available_schedules())
    for sched in args.schedules or ():
        if sched not in known_schedules:
            print(
                f"unknown schedule {sched!r}"
                f"{_did_you_mean(sched, known_schedules)}",
                file=sys.stderr,
            )
            return 2
    lints = args.lint
    if lints is not None:
        known_lints = set(available_lints())
        for lint in lints:
            if lint not in known_lints:
                print(f"unknown lint {lint!r}{_did_you_mean(lint, known_lints)}",
                      file=sys.stderr)
                return 2
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
        if row["delegates_to"]:
            name += "*"
        print(f"{name:<{kernel_col}} " +
              " ".join(f"{row['verdicts'][s]:>{width}}" for s in sched_names))
    if any(r["delegates_to"] for r in matrix["rows"]):
        print("(* delegates its kernel to another app)")

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


def _check_plan_store_path(path: Path) -> str | None:
    """Validate that ``path`` looks like one of our plan-store journals.

    Only *structural* problems (missing file, directory, foreign or
    version-bumped header) are errors; a damaged tail is tolerated by
    the store itself and merely reported by the inspection output.
    """
    from .engine.plan_store import STORE_FORMAT_VERSION, STORE_MAGIC

    if not path.exists():
        return f"no plan store at {path}"
    if path.is_dir():
        return f"{path} is a directory, not a plan-store journal"
    with open(path, "rb") as fh:
        head = fh.read(len(STORE_MAGIC) + 4)
    if (len(head) < len(STORE_MAGIC) + 4
            or head[: len(STORE_MAGIC)] != STORE_MAGIC
            or int.from_bytes(head[len(STORE_MAGIC):], "little")
            != STORE_FORMAT_VERSION):
        return f"{path} is not a plan-store journal (bad header)"
    return None


def _cmd_plans(args: argparse.Namespace) -> int:
    from .engine.plan_store import PlanStore

    target = list(args.target)
    compact = target and target[0] == "compact"
    if compact:
        target = target[1:]
    if len(target) != 1:
        print("usage: repro plans [compact] PATH", file=sys.stderr)
        return 2
    path = Path(target[0])
    error = _check_plan_store_path(path)
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    store = PlanStore(path)
    try:
        if compact:
            before = store.info()["file_bytes"]
            dropped = store.compact()
            after = store.info()["file_bytes"]
            print(f"compacted {path}: dropped {dropped} dead records "
                  f"({before} -> {after} bytes)")
            return 0
        info = store.info()
        total = info["records"] + info["dead_records"]
        live_ratio = info["records"] / total if total else 1.0
        print(f"path:         {info['path']}")
        print(f"records:      {info['records']} live, "
              f"{info['dead_records']} dead ({live_ratio:.0%} live)")
        print(f"file bytes:   {info['file_bytes']}")
        print(f"scan damage:  {'yes' if info['scan_damage'] else 'no'}")
        return 0
    finally:
        store.close()


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
    "plans": _cmd_plans,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
