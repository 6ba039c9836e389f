"""Sweep-service throughput bench: warm served sweeps vs cold single-shot.

The service's reason to exist is amortization: one process pays the pool
spawn and the problem/oracle/plan builds once, then every later
submission from any client runs against warm workers.  This bench
measures exactly that and writes ``BENCH_serve.json`` at the repo root:

* ``cold_submit`` -- the first job on a freshly started pooled service:
  pays worker spawn plus every per-dataset build (the "cold single-shot"
  cost a library user pays per run without the daemon);
* ``warm_submit`` -- the same job resubmitted (best of three): workers,
  shm blocks, problem/oracle caches and plans are all hot;
* ``serial_direct`` -- the same grid via ``run_suite(executor="serial")``
  in-process, the no-service baseline;
* ``sustained`` -- two concurrent clients each streaming several jobs
  through one warm instance: jobs/sec and rows/sec with round-robin
  interleaving (the multi-tenant steady state).

CI floor (asserted here *and* re-checked by the workflow guard): a warm
served sweep is at least **1.2x** faster than the cold single-shot --
deliberately conservative; the measured ratio is typically far higher
because the cold path includes the pool spawn.

Smoke mode by default; scale up with ``REPRO_BENCH_SERVE_SCALE`` /
``REPRO_BENCH_SERVE_LIMIT`` / ``REPRO_BENCH_SERVE_JOBS``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.evaluation.harness import run_suite
from repro.service import SweepClient, SweepService

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_serve.json"

SERVE_SCALE = os.environ.get("REPRO_BENCH_SERVE_SCALE", "smoke")
SERVE_LIMIT = int(os.environ.get("REPRO_BENCH_SERVE_LIMIT", "4"))
SERVE_JOBS = int(os.environ.get("REPRO_BENCH_SERVE_JOBS", "3"))
KERNELS = ["merge_path", "thread_mapped"]
WIDTH = 2
CLIENTS = 2

JOB = {
    "app": "spmv",
    "kernels": KERNELS,
    "scale": SERVE_SCALE,
    "limit": SERVE_LIMIT,
}


def _timed_submit(host: str, port: int) -> tuple[float, object]:
    with SweepClient(host, port, idle_timeout=600) as client:
        t0 = time.perf_counter()
        result = client.run(JOB)
        return time.perf_counter() - t0, result


def test_serve_throughput():
    svc = SweepService(width=WIDTH, queue_depth=16)
    svc.start_background()
    host, port = svc.wait_ready()
    try:
        # -- Cold single-shot: pool spawn + all builds, through the wire.
        cold_s, cold_result = _timed_submit(host, port)
        assert cold_result.ok

        # -- Warm: same grid, everything cached (best of three). --------
        warm_times = []
        for _ in range(3):
            t, warm_result = _timed_submit(host, port)
            warm_times.append(t)
            assert warm_result.ok
        warm_s = min(warm_times)

        # -- Sustained multi-tenant throughput: CLIENTS concurrent
        # connections, SERVE_JOBS jobs each, one warm instance. ---------
        errors: list = []
        per_client_rows = [0] * CLIENTS

        def tenant(index: int) -> None:
            try:
                with SweepClient(host, port, idle_timeout=600) as client:
                    for _ in range(SERVE_JOBS):
                        result = client.run(JOB, retries=4, retry_delay=0.1)
                        assert result.ok
                        per_client_rows[index] += len(result.rows)
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(i,)) for i in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        sustained_s = time.perf_counter() - t0
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        total_jobs = CLIENTS * SERVE_JOBS
        total_rows = sum(per_client_rows)
        service_info = svc.info()
    finally:
        svc.request_drain()
        svc.join()

    # -- The no-service baseline: same grid, serial, in-process. --------
    t0 = time.perf_counter()
    direct_rows = run_suite(KERNELS, app="spmv", scale=SERVE_SCALE,
                            limit=SERVE_LIMIT, executor="serial")
    serial_s = time.perf_counter() - t0

    # Served rows are the library's rows, bit for bit.
    assert warm_result.rows == direct_rows

    warm_over_cold = cold_s / warm_s if warm_s else None

    # The CI floor: warm served sweeps >= 1.2x the cold single-shot.
    # (Conservative on purpose -- the cold path carries the pool spawn,
    # so real ratios are typically an order of magnitude higher.)
    assert warm_over_cold is not None and warm_over_cold >= 1.2, (
        cold_s, warm_s)

    payload = {
        "benchmark": "serve_throughput",
        "app": "spmv",
        "scale": SERVE_SCALE,
        "limit": SERVE_LIMIT,
        "kernels": KERNELS,
        "width": WIDTH,
        "clients": CLIENTS,
        "jobs_per_client": SERVE_JOBS,
        "rows_per_job": len(direct_rows),
        "timings_s": {
            "cold_submit": round(cold_s, 6),
            "warm_submit": round(warm_s, 6),
            "serial_direct": round(serial_s, 6),
            "sustained_wall": round(sustained_s, 6),
        },
        "speedups": {
            "warm_over_cold": round(warm_over_cold, 3),
            "warm_over_serial": (
                round(serial_s / warm_s, 3) if warm_s else None
            ),
        },
        "sustained": {
            "jobs_per_s": round(total_jobs / sustained_s, 3),
            "rows_per_s": round(total_rows / sustained_s, 3),
            "total_jobs": total_jobs,
            "total_rows": total_rows,
        },
        "service": service_info,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    print(f"\n=== BENCH_serve.json ===\n{json.dumps(payload, indent=2)}")
