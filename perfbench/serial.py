"""The one-shot serial workloads: ``spmv-standard`` and ``graph-smoke``.

Every sweep runs in a fresh interpreter, exactly like ``repro sweep`` or a
fig2/3/4 bench: nothing is warm, so corpus build, problem build, oracles
and plans are paid each time.  Untraced runs repeat whole jobs for the
run length and report medians; traced runs pair each untraced sweep with
a traced replay of the same grid.
"""

from __future__ import annotations

import time

from lib import (
    GRAPH_KERNELS, PAPER_KERNELS, SIZES, BenchError, median, recorded_digests,
    run_child, tail,
)

#: Layers the traced replay spans, in the order rows cross them.
LAYERS = ("corpus", "problem", "oracle", "baseline", "driver", "resolve",
          "plan", "compute", "match", "sample_check")


def jobs_for(workload: str, seed: int, size: str) -> list[dict]:
    """The sweeps one job of the workload runs, each in its own process."""
    if workload == "spmv-standard":
        scale, limit = SIZES[size]["spmv"]
        grid = [("spmv", PAPER_KERNELS)]
    else:
        scale, limit = SIZES[size]["graph"]
        grid = [("bfs", GRAPH_KERNELS), ("triangle_count", GRAPH_KERNELS)]
    return [{"app": app, "kernels": list(kernels), "scale": scale,
             "limit": limit, "seed": seed} for app, kernels in grid]


class Checker:
    """Failure and correctness accounting shared by every sweep."""

    def __init__(self, size: str):
        self.expected = recorded_digests(size)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows_per_sweep: dict[str, int] = {}
        self.seen: dict[str, str] = {}

    def sweep(self, app: str, result: dict) -> bool:
        if "error" in result:
            rows = self.rows_per_sweep.get(app, 1)
            self.attempted += rows
            self.failed += rows
            self.problems.append(f"{app}: {result['error']}")
            return False
        self.rows_per_sweep[app] = result["rows"]
        self.attempted += result["rows"]
        # Every sweep of the run (and its traced replay) must produce the
        # first sweep's rows, and the first must match the recorded digest.
        want = self.expected.get(app) or self.seen.setdefault(
            app, result["digest"])
        if result["digest"] != want:
            self.problems.append(
                f"{app}: row digest {result['digest'][:16]} != expected "
                f"{want[:16]}")
            return False
        return True

    @property
    def correct(self) -> bool:
        return not self.problems


def _loop(seconds: float, body) -> None:
    """Repeat ``body`` while the run overshoots ``seconds`` by at most
    half a repeat."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - start) / 2 > deadline:
            return


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str, server_env: dict | None = None) -> dict:
    """One run of a serial workload.

    The traced ``spmv-standard`` run replays for half the run length and
    then serves the same grid for the whole of it (``serve_load``; a
    window that long holds about 100 short jobs), so every pool, shm, wire
    and service layer is measured too.  ``server_env`` reaches that
    session's server process only.
    """
    serve = trace and workload == "spmv-standard"
    jobs = jobs_for(workload, seed, size)
    check = Checker(size)
    apps = [job["app"] for job in jobs]
    setups: list[float] = []
    sweep_s = {app: [] for app in apps}
    job_s: list[float] = []
    rss: list[float] = []
    rows = 0
    replays = {app: [] for app in apps}

    def one_job() -> None:
        nonlocal rows
        total, peak = 0.0, 0.0
        for job in jobs:
            app = job["app"]
            setup, result = run_child({"mode": "sweep", **job})
            setups.append(setup)
            if not check.sweep(app, result):
                return
            sweep_s[app].append(result["sweep_s"])
            total += result["sweep_s"]
            rows += result["rows"]
            peak = max(peak, result["rss_mb"])
            if trace:
                _, traced = run_child({"mode": "replay", **job})
                if check.sweep(app, traced):
                    replays[app].append(traced)
        job_s.append(total)
        rss.append(peak)

    _loop(seconds / 2 if serve else seconds, one_job)
    if not any(sweep_s.values()):
        raise BenchError("; ".join(check.problems) or "no sweep completed")
    out = {"correct": check.correct, "attempted": check.attempted,
           "failed": check.failed, "problems": check.problems}
    detail = {f"sweep_s.{app}": (median(v), "s", len(v))
              for app, v in sweep_s.items()}
    if not trace:
        pct, job_tail = tail(job_s)
        detail[f"job_p{pct}_s"] = (job_tail, "s", len(job_s))
        out["metrics"] = {
            "setup_s": median(setups),
            "job_p50_s": median(job_s),
            "rows_per_s": rows / len(job_s) / median(job_s),
            "peak_rss_mb": median(rss),
        }
    else:
        metrics = {name: value for name, (value, _, _) in detail.items()}
        for app in apps:
            metrics.update(layer_metrics(app, sweep_s[app], replays[app]))
        out["metrics"] = metrics
    out["detail"] = detail
    if serve:
        import serve_load

        served = serve_load.session(seed, seconds, size, server_env)
        out["correct"] = out["correct"] and served["correct"]
        out["attempted"] += served["attempted"]
        out["failed"] += served["failed"]
        out["problems"] += served["problems"]
        out["metrics"].update(served["metrics"])
        out["detail"].update(served["detail"])
    return out


def layer_metrics(app: str, untraced: list[float], replays: list[dict]) -> dict:
    """Per-layer medians of one app's traced replays."""
    if not replays:
        raise BenchError(f"no traced replay of {app} completed")

    def med(fn):
        return median([fn(r) for r in replays])

    out = {f"{app}.{layer}_s": med(lambda r, k=layer: r["self_s"].get(k, 0.0))
           for layer in LAYERS}
    out[f"{app}.resolve_calls"] = med(lambda r: r["calls"].get("resolve", 0))
    out[f"{app}.plan_calls"] = med(lambda r: r["calls"].get("plan", 0))
    out[f"{app}.plan_hit_ratio"] = med(
        lambda r: r["plan_hits"] / max(1, r["calls"].get("plan", 0)))
    out[f"{app}.launches_per_cell"] = med(
        lambda r: r["calls"].get("compute", 0) / max(1, r["launching_cells"]))
    out[f"{app}.trace_coverage"] = med(
        lambda r: sum(r["self_s"].values()) / r["sweep_s"])
    base = median(untraced)
    out[f"{app}.trace_overhead_frac"] = (
        (med(lambda r: r["sweep_s"]) - base) / base)
    return out
