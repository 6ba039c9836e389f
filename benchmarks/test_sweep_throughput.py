"""Corpus-sweep throughput bench: cold vs warm, pooled vs persistent.

Times one small (kernel x dataset) grid under every harness fan-out
configuration and the journaled plan store, then writes
``BENCH_sweep.json`` at the repo root so subsequent PRs have a
throughput trajectory to regress against:

* ``cold_serial`` / ``warm_serial`` -- same process, plan cache cold
  (fresh journal) vs warm (second sweep of the identical grid);
* ``process_pool_w2`` -- the process executor over the same grid, its
  pool spawned per sweep;
* ``pool_reuse_first`` / ``pool_reuse_warm`` -- the persistent
  :class:`~repro.engine.worker_pool.SweepExecutor`: first sweep pays the
  one-time spawn, later sweeps run against warm workers (warm is the
  best of three, to damp scheduler jitter);
* ``steady_state_first`` / ``steady_state_warm`` -- the worker-resident
  problem/oracle cache on a single-worker persistent pool: the first
  sweep builds every dataset's problem and oracle, the warm sweeps
  serve both from the in-worker :class:`~repro.engine.worker_pool.
  ProblemCache` (hit/miss proven by the per-row counters, one worker so
  the cache placement is deterministic);
* ``steady_state_w4_first`` / ``steady_state_w4_warm`` -- the same
  steady state on a *width-4* pool: sticky (rendezvous-hashed) placement
  lands every dataset on the same worker sweep after sweep, so the warm
  hit rate is 100% without the single-worker crutch
  (``steady_state_w4_hit_rate``, CI-floored; placement asserted
  identical across sweeps);
* ``store_fresh_cold`` / ``store_fresh_warm`` -- two subprocesses
  sweeping the grid against the journaled plan store; the warm one must
  avoid exactly the misses the cold one paid
  (``disk_hits == misses_avoided``), all from one file on disk.

Persistence is verified by counters, not timing.  The timing assertion
encodes the acceptance floor: warm persistent-pool sweeps beat the
spawn-per-sweep process path by >= 1.5x at smoke scale.

Runs in smoke mode by default (tiny corpus; CI-friendly).  Environment
knobs scale it up for real benching: ``REPRO_BENCH_SWEEP_SCALE``
(corpus scale), ``REPRO_BENCH_SWEEP_LIMIT`` (dataset count).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.engine import (
    ExecutionContext,
    SweepExecutor,
    clear_plan_cache,
    configure_global_plan_cache,
)
from repro.evaluation.harness import run_suite

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
BENCH_PATH = REPO_ROOT / "BENCH_sweep.json"

SWEEP_SCALE = os.environ.get("REPRO_BENCH_SWEEP_SCALE", "smoke")
SWEEP_LIMIT = int(os.environ.get("REPRO_BENCH_SWEEP_LIMIT", "8"))
KERNELS = ["merge_path", "thread_mapped", "group_mapped", "lrb"]


def _timed_sweep(**kwargs) -> tuple[float, list]:
    t0 = time.perf_counter()
    rows = run_suite(KERNELS, app="spmv", scale=SWEEP_SCALE, limit=SWEEP_LIMIT,
                     **kwargs)
    return time.perf_counter() - t0, rows


def _fresh_process_sweep(store: Path) -> tuple[float, dict]:
    """Sweep the same grid in a brand-new interpreter against the plan
    journal at ``store``; report cache info."""
    script = (
        "import json, sys, time\n"
        "from repro.evaluation.harness import run_suite\n"
        "from repro.engine import ExecutionContext, global_plan_cache\n"
        "t0 = time.perf_counter()\n"
        f"run_suite({KERNELS!r}, app='spmv', scale={SWEEP_SCALE!r},\n"
        f"          limit={SWEEP_LIMIT},\n"
        "          ctx=ExecutionContext(plan_store=sys.argv[1]))\n"
        "elapsed = time.perf_counter() - t0\n"
        "print(json.dumps({'elapsed_s': elapsed,\n"
        "                  'cache': global_plan_cache().info()}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script, str(store)],
        capture_output=True, text=True, env=env, check=True,
    )
    payload = json.loads(out.stdout.strip().splitlines()[-1])
    return payload["elapsed_s"], payload["cache"]


def test_sweep_throughput(tmp_path):
    store = tmp_path / "plans.journal"
    ctx = ExecutionContext(plan_store=str(store))

    # -- In-process: cold vs warm, then the process executor. ----------
    configure_global_plan_cache(store)
    try:
        clear_plan_cache()
        cold_s, cold_rows = _timed_sweep(executor="serial")
        warm_s, warm_rows = _timed_sweep(executor="serial")
        process_s, process_rows = _timed_sweep(
            executor="process", max_workers=2, ctx=ctx
        )

        # -- Persistent pool: spawn once at machine-natural width, stream
        # sweeps through it.  Warm is the best of three (single-digit-ms
        # sweeps jitter with the host scheduler; the floor is the honest
        # steady-state number). --
        with SweepExecutor() as pool:
            pool_first_s, pool_first_rows = _timed_sweep(
                executor="process", pool=pool, ctx=ctx
            )
            warm_times = []
            for _ in range(3):
                t, pool_warm_rows = _timed_sweep(
                    executor="process", pool=pool, ctx=ctx
                )
                warm_times.append(t)
            pool_info = pool.info()
        pool_warm_s = min(warm_times)

        # -- Steady state: a second sweep on the same warm pool serves
        # every shard's problem *and* oracle from the worker-resident
        # cache (validate=True, so the oracle is real work skipped).
        # One worker keeps the batch->worker placement deterministic. --
        with SweepExecutor(max_workers=1) as ss_pool:
            ss_first_s, ss_first_rows = _timed_sweep(
                executor="process", pool=ss_pool, ctx=ctx
            )
            ss_times = []
            for _ in range(3):
                t, ss_warm_rows = _timed_sweep(
                    executor="process", pool=ss_pool, ctx=ctx
                )
                ss_times.append(t)
        ss_warm_s = min(ss_times)

        # -- Steady state at width 4: sticky placement pins each dataset
        # to its home worker, so every warm sweep hits the same caches
        # the first sweep filled -- no single-worker crutch needed. --
        def _placement(rows):
            return {
                r.dataset: (
                    r.meta["placement"]["slot"], r.meta["placement"]["pid"]
                )
                for r in rows
            }

        with SweepExecutor(max_workers=4) as w4_pool:
            w4_first_s, w4_first_rows = _timed_sweep(
                executor="process", pool=w4_pool, ctx=ctx
            )
            w4_times = []
            w4_placements = []
            for _ in range(3):
                t, w4_warm_rows = _timed_sweep(
                    executor="process", pool=w4_pool, ctx=ctx
                )
                w4_times.append(t)
                w4_placements.append(_placement(w4_warm_rows))
            w4_info = w4_pool.info()
            w4_first_placement = _placement(w4_first_rows)
        w4_warm_s = min(w4_times)

        from repro.engine import global_plan_cache

        in_process_info = global_plan_cache().info()
    finally:
        configure_global_plan_cache(None)

    def key(rows):
        return [(r.kernel, r.dataset, r.elapsed) for r in rows]

    # Identical deterministic row sets under every configuration.
    assert key(cold_rows) == key(warm_rows) == key(process_rows)
    assert key(pool_first_rows) == key(pool_warm_rows) == key(cold_rows)

    # The pool really was persistent: one spawn served all four sweeps,
    # and the publish cache reused every block after the first sweep.
    assert pool_info["pool_spawns"] == 1 and pool_info["sweeps"] == 4
    assert pool_info["shm_reused"] > 0

    # Acceptance floor: warm pool reuse beats the spawn-per-sweep
    # process path by >= 1.5x.
    assert pool_warm_s * 1.5 <= process_s, (pool_warm_s, process_s)

    # Steady-state acceptance: the first warm-pool sweep built every
    # problem/oracle (all misses), later sweeps on the same workers
    # rebuilt none (all hits) and returned identical rows -- and the
    # warm sweep beats the first by a conservative floor.
    assert key(ss_first_rows) == key(ss_warm_rows) == key(cold_rows)
    ss_first_misses = sum(
        r.meta.get("problem_cache") == "miss" for r in ss_first_rows
    )
    ss_warm_hits = sum(
        r.meta.get("problem_cache") == "hit" for r in ss_warm_rows
    )
    assert ss_first_misses == len(ss_first_rows), ss_first_rows[0].meta
    assert ss_warm_hits == len(ss_warm_rows), ss_warm_rows[0].meta
    assert ss_warm_s * 1.2 <= ss_first_s, (ss_warm_s, ss_first_s)

    # Width-4 steady state: the first sweep builds everything (all
    # misses), every warm sweep lands every dataset on the same worker
    # process (placement identical) and rebuilds nothing -- a 100% warm
    # hit rate with four workers, which only sticky placement delivers.
    assert key(w4_first_rows) == key(w4_warm_rows) == key(cold_rows)
    assert all(p == w4_first_placement for p in w4_placements), w4_placements
    w4_first_misses = sum(
        r.meta.get("problem_cache") == "miss" for r in w4_first_rows
    )
    w4_hits = sum(r.meta.get("problem_cache") == "hit" for r in w4_warm_rows)
    w4_hit_rate = w4_hits / len(w4_warm_rows)
    assert w4_first_misses == len(w4_first_rows), w4_first_rows[0].meta
    assert w4_hit_rate == 1.0, w4_hit_rate
    assert w4_info["sticky_shards"] > 0

    # -- Fresh processes against the journaled plan store. --------------
    store_dir = tmp_path / "store"
    store_path = store_dir / "plans.journal"
    st_cold_s, st_cold_info = _fresh_process_sweep(store_path)
    st_warm_s, st_warm_info = _fresh_process_sweep(store_path)

    # A warm second sweep of the same grid in a fresh process serves
    # plans from disk, not by replanning: every miss the cold run paid is
    # a disk hit in the warm one (disk_hits == misses_avoided), served
    # from a single file on disk.
    assert st_cold_info["misses"] > 0 and st_cold_info["disk_hits"] == 0
    assert st_warm_info["misses"] == 0
    assert st_warm_info["disk_hits"] == st_cold_info["misses"]
    assert [p.name for p in store_dir.iterdir()] == ["plans.journal"]

    payload = {
        "benchmark": "sweep_throughput",
        "app": "spmv",
        "scale": SWEEP_SCALE,
        "limit": SWEEP_LIMIT,
        "kernels": KERNELS,
        "grid_cells": len(cold_rows),
        "timings_s": {
            "cold_serial": round(cold_s, 6),
            "warm_serial": round(warm_s, 6),
            "process_pool_w2": round(process_s, 6),
            "pool_reuse_first": round(pool_first_s, 6),
            "pool_reuse_warm": round(pool_warm_s, 6),
            "steady_state_first": round(ss_first_s, 6),
            "steady_state_warm": round(ss_warm_s, 6),
            "steady_state_w4_first": round(w4_first_s, 6),
            "steady_state_w4_warm": round(w4_warm_s, 6),
            "store_fresh_cold": round(st_cold_s, 6),
            "store_fresh_warm": round(st_warm_s, 6),
        },
        "speedups": {
            "warm_over_cold_serial": round(cold_s / warm_s, 3) if warm_s else None,
            "pool_reuse_over_process": (
                round(process_s / pool_warm_s, 3) if pool_warm_s else None
            ),
            "steady_state_warm_over_first": (
                round(ss_first_s / ss_warm_s, 3) if ss_warm_s else None
            ),
            "steady_state_w4_warm_over_first": (
                round(w4_first_s / w4_warm_s, 3) if w4_warm_s else None
            ),
            "store_fresh_warm_over_cold": (
                round(st_cold_s / st_warm_s, 3) if st_warm_s else None
            ),
        },
        "pool": pool_info,
        "pool_w4": w4_info,
        "steady_state_w4_hit_rate": w4_hit_rate,
        "problem_cache": {
            "first_misses": ss_first_misses,
            "warm_hits": ss_warm_hits,
            "rows": len(ss_warm_rows),
            "w4_first_misses": w4_first_misses,
            "w4_warm_hits": w4_hits,
            "w4_rows": len(w4_warm_rows),
        },
        "plan_cache": {
            "in_process_final": in_process_info,
            "store_fresh_cold": st_cold_info,
            "store_fresh_warm": st_warm_info,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== BENCH_sweep.json ===\n{json.dumps(payload, indent=2)}")
