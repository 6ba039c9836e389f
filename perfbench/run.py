"""The repository benchmark (see ``BENCHMARK.json`` and ``METRICS.md``).

    python3 perfbench/run.py --workload spmv-standard --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Workloads: ``spmv-standard`` and ``graph-smoke``, one-shot serial sweeps,
each in a fresh process.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run; the traced
``spmv-standard`` run also serves the same grid through ``repro serve``
under two closed-loop tenants.  ``all`` runs every workload both ways.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report and
the environment stamp.  The full result is also written under
``.perfbench/results/``.  Exit status: 0 when every output checked
correct, 1 on a digest, validation or shared-memory leak failure, 2 when
the benchmark cannot run (no program in this checkout, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from lib import ROOT, SRC, WORK, BenchError, environment, program_present

WORKLOADS = ("spmv-standard", "graph-smoke")


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", server_env: dict | None = None) -> dict:
    """One workload run; ``metrics`` covers every metric of its kind.

    Per-layer metrics of a layer the workload never crosses (another
    app's sweep, the pool on a serial sweep) are reported as 0.
    ``server_env`` adds environment variables to the ``repro serve``
    process of the traced ``spmv-standard`` run only (the self-tests
    inject faults through it).
    """
    import serial

    out = serial.run(workload, seed, seconds, trace, size, server_env)
    values = out["metrics"]
    values.setdefault("fail_rate", out["failed"] / max(1, out["attempted"]))
    metrics = {}
    for spec in metric_specs(trace):
        value = values.get(spec["name"])
        if value is None:
            if not trace:
                raise BenchError(f"{workload} did not measure {spec['name']}")
            value = 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    out["metrics"] = metrics
    return out


def report(workload: str, out: dict) -> None:
    detail = out.get("detail", {})
    for name, (value, unit, n) in detail.items():
        if name not in out["metrics"]:
            print(f"  {workload:14} {name:32} {value:14.6g} {unit:8} n={n}")
    for name, m in out["metrics"].items():
        n = f" n={detail[name][2]}" if name in detail else ""
        print(f"  {workload:14} {name:32} {m['value']:14.6g} {m['unit']}{n}")
    for problem in out.get("problems", []):
        print(f"  {workload:14} PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few smoke datasets (self-tests)")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runs = ([(w, t) for w in WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    env = environment(args.seed)
    print(json.dumps({"environment": env}))
    results = {}
    for workload, trace in runs:
        start = time.perf_counter()
        try:
            out = run_workload(workload, args.seed, args.seconds, trace,
                               args.size)
        except BenchError as exc:
            print(f"benchmark error in {workload}: {exc}", file=sys.stderr)
            return 2
        out["wall_s"] = time.perf_counter() - start
        print(f"{workload} trace={int(trace)} seed={args.seed} "
              f"correct={out['correct']} rows={out['attempted']} "
              f"failed={out['failed']} wall={out['wall_s']:.1f}s")
        report(workload, out)
        results[f"{workload}/{'trace' if trace else 'e2e'}"] = out

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    (results_dir / f"{stamp}.json").write_text(
        json.dumps({"environment": env, "runs": results}, indent=1),
        encoding="utf-8")

    outs = list(results.values())
    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {f"{key}/{name}": m for key, out in results.items()
                   for name, m in out["metrics"].items()}
    final = {"correct": all(o["correct"] for o in outs),
             "attempted": sum(o["attempted"] for o in outs),
             "failed": sum(o["failed"] for o in outs),
             "metrics": metrics}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
