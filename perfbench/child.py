"""One fresh-process sweep: the unit every serial measurement is made of.

    python3 perfbench/child.py '{"mode": "sweep", "app": "spmv", ...}'

The child imports the program, registers the app, prints ``ready`` and
waits for one line on stdin; then it runs and prints one JSON result.

Modes:

``sweep``   one serial ``run_suite`` call, untraced (the end-to-end number).
``replay``  the same sweep replayed through the layers' public calls with
            a span around each, giving per-layer self times.  Its rows
            must equal ``run_suite``'s.
``probe``   direct timings of the serve path's parent-side layers (corpus
            expansion, content keys, shm and oracle publish/attach, a warm
            process-pool sweep) on one job's inputs.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time
import zlib
from collections import Counter, defaultdict
from contextlib import contextmanager

from lib import digest, row_key


class Tracer:
    """Nested spans aggregated into per-layer self time and call counts.

    A span's self time is its duration minus the time its child spans
    cover, so a plan priced inside a policy probe counts as plan time,
    not resolve time.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.plan_hits = 0
        self._open: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            covered = self._open.pop()
            self.self_s[name] += duration - covered
            self.calls[name] += 1
            if self._open:
                self._open[-1] += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def instrument(self) -> None:
        """Span the engine-side layers ``run_app`` crosses."""
        from repro.engine import PlanCache
        from repro.engine.dispatch import Engine, Runtime, available_engines

        available_engines()  # imports every built-in engine module
        Runtime.schedule_for = self.wrap("resolve", Runtime.schedule_for)
        plan = PlanCache.plan
        tracer = self

        @functools.wraps(plan)
        def traced_plan(cache, *args, **kwargs):
            hits = cache.hits
            with tracer.span("plan"):
                out = plan(cache, *args, **kwargs)
            if cache.hits > hits:
                tracer.plan_hits += 1
            return out

        PlanCache.plan = traced_plan
        pending = [Engine]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "launch" in cls.__dict__ and cls is not Engine:
                cls.launch = self.wrap("compute", cls.__dict__["launch"])


def sample_seed(app: str, kernel: str, dataset: str, seed: int) -> int:
    """Per-cell seed of the sampled check, drawn as the harness draws it."""
    return zlib.crc32(f"{app}/{kernel}/{dataset}/{seed}".encode()) & 0x7FFFFFFF


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sweep(spec: dict) -> dict:
    from repro.evaluation.harness import run_suite

    start = time.perf_counter()
    rows = run_suite(
        spec["kernels"], app=spec["app"], scale=spec["scale"],
        limit=spec.get("limit"), seed=spec["seed"], executor="serial",
        **({"datasets": _named(spec)} if spec.get("names") else {}),
    )
    wall = time.perf_counter() - start
    keys = [row_key(r.app, r.kernel, r.dataset, r.rows, r.cols, r.nnzs,
                    r.elapsed) for r in rows]
    return {"sweep_s": wall, "rows": len(keys), "digest": digest(keys),
            "keys": keys, "rss_mb": rss_mb()}


def _named(spec: dict):
    from repro.evaluation.harness import expand_datasets

    return expand_datasets(spec["app"], scale=spec["scale"],
                           names=spec["names"])


def replay(spec: dict) -> dict:
    from repro.engine import ExecutionContext, get_app, run_app
    from repro.evaluation.harness import expand_datasets

    tracer = Tracer()
    tracer.instrument()
    app, seed = spec["app"], spec["seed"]
    app_spec = get_app(app)
    ctx = ExecutionContext()
    keys = []
    launching_cells = 0
    start = time.perf_counter()
    with tracer.span("corpus"):
        datasets = expand_datasets(app, scale=spec["scale"],
                                   limit=spec.get("limit"),
                                   names=spec.get("names"))
    for dataset in datasets:
        matrix = dataset.matrix
        with tracer.span("problem"):
            problem = app_spec.sweep_problem(matrix, seed)
        expected = None
        if app_spec.oracle is not None:
            with tracer.span("oracle"):
                expected = app_spec.oracle(problem)
        for kernel in spec["kernels"]:
            if kernel in app_spec.baselines:
                with tracer.span("baseline"):
                    output, stats = app_spec.baselines[kernel](problem, ctx.spec)
            else:
                launching_cells += 1
                with tracer.span("driver"):
                    result = run_app(app_spec, problem,
                                     ctx=ctx.with_policy(kernel))
                output, stats = result.output, result.stats
            if expected is not None:
                with tracer.span("match"):
                    ok = app_spec.match(output, expected)
                if not ok:
                    raise AssertionError(
                        f"validation failed: {app}/{kernel}/{dataset.name}")
            if app_spec.sample_check is not None:
                with tracer.span("sample_check"):
                    ok = app_spec.sample_check(
                        problem, output,
                        sample_seed(app, kernel, dataset.name, seed))
                if not ok:
                    raise AssertionError(
                        f"sampled check failed: {app}/{kernel}/{dataset.name}")
            keys.append(row_key(app, kernel, dataset.name, matrix.num_rows,
                                matrix.num_cols, matrix.nnz, stats.elapsed_ms))
    wall = time.perf_counter() - start
    return {
        "sweep_s": wall, "rows": len(keys), "digest": digest(keys),
        "rss_mb": rss_mb(),
        "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
        "plan_hits": tracer.plan_hits, "launching_cells": launching_cells,
    }


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def probe(spec: dict) -> dict:
    """Time the serve path's parent-side layers on one job's inputs."""
    from multiprocessing import shared_memory

    from repro.engine import get_app
    from repro.engine.worker_pool import (
        SweepExecutor, attach_dataset, attach_payload, dataset_content_key,
        detach, publish_dataset, publish_payload,
    )
    from repro.evaluation.harness import expand_datasets, run_suite

    bulk, short = spec["bulk"], spec["short"]
    out = {}
    for tenant, job in (("bulk", bulk), ("short", short)):
        times = [_timed(expand_datasets, job["app"], scale=job["scale"],
                        limit=job.get("limit"), names=job.get("datasets"))[0]
                 for _ in range(3)]
        out[f"expand_s.{tenant}"] = statistics.median(times)
    datasets = expand_datasets(bulk["app"], scale=bulk["scale"],
                               limit=bulk.get("limit"))
    out["content_key_s"] = sum(_timed(dataset_content_key, d)[0]
                               for d in datasets)
    published = []
    try:
        publish_s = attach_s = 0.0
        for d in datasets:
            took, pub = _timed(publish_dataset, d)
            publish_s += took
            if pub is None:
                raise RuntimeError(f"cannot publish dataset {d.name}")
            published.append(pub)
            took, (_, shm) = _timed(attach_dataset, pub.handle)
            attach_s += took
            detach(shm)
        out["shm_publish_s"], out["shm_attach_s"] = publish_s, attach_s
    finally:
        for pub in published:
            pub.unlink()

    app_spec = get_app(bulk["app"])
    handles = []
    try:
        publish_s = attach_s = 0.0
        for d in datasets:
            expected = app_spec.oracle(app_spec.sweep_problem(d.matrix,
                                                              bulk["seed"]))
            took, handle = _timed(publish_payload, expected)
            publish_s += took
            if handle is None:
                raise RuntimeError(f"cannot publish oracle of {d.name}")
            handles.append(handle)
            took, attached = _timed(attach_payload, handle)
            attach_s += took
            if attached is None:
                raise RuntimeError(f"cannot attach oracle of {d.name}")
        out["oracle_publish_s"], out["oracle_attach_s"] = publish_s, attach_s
    finally:
        for handle in handles:
            block = shared_memory.SharedMemory(name=handle.shm_name)
            block.close()
            block.unlink()

    def grid(pool):
        return run_suite(bulk["kernels"], app=bulk["app"], scale=bulk["scale"],
                         limit=bulk.get("limit"), seed=bulk["seed"],
                         executor="process", pool=pool)

    with SweepExecutor(max_workers=2) as pool:
        grid(pool)  # spawn workers and fill their caches
        out["warm_sweep_s"] = statistics.median(
            _timed(grid, pool)[0] for _ in range(3))
    return out


MODES = {"sweep": sweep, "replay": replay, "probe": probe}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import repro  # noqa: F401  (the import is part of set-up)
    from repro.engine import get_app

    get_app(spec["app"])
    print("ready", flush=True)
    sys.stdin.readline()
    try:
        result = MODES[spec["mode"]](spec)
    except Exception as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
