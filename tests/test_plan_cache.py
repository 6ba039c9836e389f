"""The in-memory :class:`PlanCache` is the only plan layer.

A cache hit must be indistinguishable from a live plan for every
registered schedule and every registered app; the key must move with
each component of a launch's identity and nothing else; and a fresh
process starts cold, with no on-disk layer to attach.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.common import spmv_costs
from repro.core.schedule import LaunchParams, available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    DEFAULT_SEED,
    ExecutionContext,
    PlanCache,
    VectorEngine,
    available_apps,
    get_app,
    run_app,
)
from repro.engine.plan_cache import work_fingerprint
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse import generators as gen


@pytest.fixture(scope="module")
def matrix():
    """Square, skewed, strictly-positive values: acceptable to every app."""
    return gen.power_law(20, 20, 3.0, 1.9, seed=5)


@pytest.fixture(scope="module")
def work(matrix):
    return WorkSpec.from_csr(matrix)


@pytest.mark.parametrize("name", available_schedules())
def test_hit_equals_the_live_plan(work, name):
    sched, costs = make_schedule(name, work, TINY_GPU), spmv_costs(TINY_GPU)
    cache = PlanCache()
    live = sched.plan(costs)
    miss = cache.plan(sched, costs)
    hit = cache.plan(sched, costs, extras={"tag": 1})
    # KernelStats compares every timing field (extras excluded).
    assert miss == hit == live
    assert hit.extras == {"schedule": name, "tag": 1}
    assert (cache.hits, cache.misses, cache.info()["size"]) == (1, 1, 1)


@pytest.mark.parametrize("app_name", available_apps())
def test_warm_run_is_identical_to_cold(matrix, app_name):
    app = get_app(app_name)
    problem = app.sweep_problem(matrix, DEFAULT_SEED)
    expected = app.oracle(problem)
    cached = VectorEngine(plan_cache=PlanCache())
    ctx = ExecutionContext(spec=TINY_GPU, engine=cached)
    warm = run_app(app, problem, ctx=ctx)
    misses = cached.plan_cache.misses
    hit = run_app(app, problem, ctx=ctx)
    cold = run_app(
        app, problem, ctx=ctx.replace(engine=VectorEngine(plan_cache=PlanCache(0)))
    )
    assert misses > 0
    assert cached.plan_cache.misses == misses  # the rerun planned nothing
    assert cached.plan_cache.hits >= misses
    assert warm.stats == hit.stats == cold.stats
    for result in (warm, hit, cold):
        assert app.match(result.output, expected)


def _variants(work):
    """One launch per component of the cache key, each differing from
    ``base`` in exactly that component."""
    costs = spmv_costs(TINY_GPU)
    base = make_schedule("group_mapped", work, TINY_GPU)
    launch = base.launch
    other_work = WorkSpec.from_csr(gen.power_law(20, 20, 3.0, 1.9, seed=6))
    return base, costs, {
        "schedule": (make_schedule("warp_mapped", work, TINY_GPU, launch), costs),
        "spec": (make_schedule("group_mapped", work, V100, launch), costs),
        "geometry": (
            make_schedule(
                "group_mapped", work, TINY_GPU,
                LaunchParams(launch.grid_dim + 1, launch.block_dim),
            ),
            costs,
        ),
        "work": (make_schedule("group_mapped", other_work, TINY_GPU, launch), costs),
        "options": (
            make_schedule("group_mapped", work, TINY_GPU, launch, group_size=4),
            costs,
        ),
        "costs": (base, replace(costs, atom_cycles=costs.atom_cycles + 1)),
    }


@pytest.mark.parametrize(
    "component", ["schedule", "spec", "geometry", "work", "options", "costs"]
)
def test_each_key_component_separates_entries(work, component):
    base, costs, variants = _variants(work)
    sched, variant_costs = variants[component]
    assert PlanCache.key_for(sched, variant_costs) != PlanCache.key_for(base, costs)
    cache = PlanCache()
    cache.plan(base, costs)
    assert cache.plan(sched, variant_costs) == sched.plan(variant_costs)
    assert (cache.hits, cache.misses) == (0, 2)


def test_equal_content_shares_an_entry(matrix):
    """The key fingerprints the work's content, not the object."""
    first = WorkSpec.from_csr(matrix)
    second = WorkSpec.from_csr(gen.power_law(20, 20, 3.0, 1.9, seed=5))
    assert first is not second
    assert work_fingerprint(first) == work_fingerprint(second)
    cache, costs = PlanCache(), spmv_costs(TINY_GPU)
    cache.plan(make_schedule("merge_path", first, TINY_GPU), costs)
    cache.plan(make_schedule("merge_path", second, TINY_GPU), costs)
    assert (cache.hits, cache.misses) == (1, 1)


def test_zero_maxsize_plans_live_and_keeps_nothing(work):
    sched, costs = make_schedule("merge_path", work, TINY_GPU), spmv_costs(TINY_GPU)
    cache = PlanCache(maxsize=0)
    assert cache.plan(sched, costs) == cache.plan(sched, costs) == sched.plan(costs)
    assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}


def test_clear_drops_entries_and_counters(work):
    sched, costs = make_schedule("merge_path", work, TINY_GPU), spmv_costs(TINY_GPU)
    cache = PlanCache()
    cache.plan(sched, costs)
    cache.plan(sched, costs)
    cache.clear()
    assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 1024}
    cache.plan(sched, costs)
    assert (cache.hits, cache.misses) == (0, 1)


def test_concurrent_planners_share_one_entry_per_launch(work):
    costs = spmv_costs(TINY_GPU)
    scheds = [make_schedule(n, work, TINY_GPU) for n in available_schedules()]
    live = [s.plan(costs) for s in scheds]
    cache = PlanCache()
    errors: list[str] = []

    def planner() -> None:
        for _ in range(10):
            for sched, expected in zip(scheds, live):
                if cache.plan(sched, costs) != expected:
                    errors.append(sched.name)

    threads = [threading.Thread(target=planner) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    info = cache.info()
    assert info["size"] == len(scheds)
    assert info["hits"] + info["misses"] == 4 * 10 * len(scheds)
    assert info["misses"] >= len(scheds)


def test_fresh_process_starts_cold_and_writes_nothing(tmp_path):
    """The old persistence variables are inert: nothing attaches,
    nothing is written, and the process-wide cache starts empty."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["REPRO_PLAN_STORE"] = str(tmp_path / "plans.journal")
    env["REPRO_PLAN_STORE_COMPACT_RATIO"] = "2"
    code = (
        "from repro.apps.spmv import spmv\n"
        "from repro.engine import global_plan_cache, input_vector\n"
        "from repro.sparse import generators as gen\n"
        "cache = global_plan_cache()\n"
        "print(sorted(cache.info().items()))\n"
        "m = gen.power_law(20, 20, 3.0, 1.9, seed=5)\n"
        "spmv(m, input_vector(20))\n"
        "spmv(m, input_vector(20))\n"
        "print(cache.hits, cache.misses)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout.splitlines()
    assert out == [
        "[('hits', 0), ('maxsize', 1024), ('misses', 0), ('size', 0)]",
        "1 1",
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "module,name",
    [
        ("repro.engine.plan_store", None),
        ("repro.engine.journal", None),
        ("repro.engine.plan_cache", "configure_global_plan_cache"),
        ("repro.engine.plan_cache", "CACHE_FORMAT_VERSION"),
        ("repro.engine.plan_cache", "PLAN_STORE_ENV"),
    ],
    ids=["plan_store-module", "engine-journal-module",
         "configure_global_plan_cache", "CACHE_FORMAT_VERSION", "PLAN_STORE_ENV"],
)
def test_persistence_names_stay_removed(module, name):
    if name is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    else:
        assert not hasattr(importlib.import_module(module), name)


def _sweep_service(**options):
    from repro.service.server import SweepService

    return SweepService(width=0, **options)


@pytest.mark.parametrize(
    "build,option",
    [(PlanCache, "store_path"), (_sweep_service, "plan_store")],
    ids=["PlanCache-store_path", "SweepService-plan_store"],
)
def test_store_options_are_rejected(tmp_path, build, option):
    with pytest.raises(TypeError, match=option):
        build(**{option: str(tmp_path / "plans.journal")})
    assert list(tmp_path.iterdir()) == []
