"""Tests for the unified execution-engine layer (registry, dispatch, cache)."""

import numpy as np
import pytest

from repro.core.schedule import make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    AppSpec,
    DEFAULT_SEED,
    EngineError,
    ExecutionContext,
    KernelDecl,
    PlanCache,
    Runtime,
    SimtEngine,
    VectorEngine,
    available_apps,
    get_app,
    get_engine,
    global_plan_cache,
    input_vector,
    register_app,
    run_app,
)
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen


@pytest.fixture
def small_matrix():
    """Square, skewed, strictly-positive values: acceptable to every app."""
    return gen.power_law(20, 20, 3.0, 1.9, seed=5)


class TestRegistry:
    def test_all_builtin_apps_registered(self):
        assert set(available_apps()) >= {
            "spmv",
            "spmm",
            "spgemm",
            "bfs",
            "sssp",
            "pagerank",
            "triangle_count",
            "spmttkrp",
            "histogram",
        }

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="unknown app"):
            get_app("fictional")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_app(AppSpec(name="spmv", driver=lambda p, rt: None))

    def test_every_app_declares_sweep_and_oracle(self):
        for name in available_apps():
            app = get_app(name)
            assert app.sweep_problem is not None, name
            assert app.oracle is not None, name


class TestEngineSelection:
    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("quantum")

    def test_instances_pass_through(self):
        eng = VectorEngine(plan_cache=PlanCache())
        assert get_engine(eng) is eng

    def test_vector_runs_decl_arrays(self):
        work = WorkSpec.from_counts([2, 3, 1])
        sched = make_schedule("thread_mapped", work, TINY_GPU)
        decl = KernelDecl("add", lambda a, b: a + b)
        engine = VectorEngine(plan_cache=PlanCache())
        out, stats = engine.launch(sched, _unit_costs(), decl, (2, 3))
        assert out == 5
        assert stats.elapsed_ms > 0

    def test_simt_requires_kernel(self):
        work = WorkSpec.from_counts([2, 3, 1])
        sched = make_schedule("thread_mapped", work, TINY_GPU)
        decl = KernelDecl("zero", lambda: 0)
        with pytest.raises(EngineError, match="SIMT kernel"):
            SimtEngine().launch(sched, _unit_costs(), decl, ())

    def test_runtime_without_schedule(self):
        rt = Runtime("vector", spec=TINY_GPU)
        with pytest.raises(EngineError, match="schedule"):
            rt.schedule_for(WorkSpec.from_counts([1]))


def _unit_costs():
    from repro.core.schedule import WorkCosts

    return WorkCosts(atom_cycles=1.0, tile_cycles=1.0)


class TestCrossEngineParity:
    """The refactor's acceptance bar: for every registered app, the
    vectorized functional path and the thread-by-thread SIMT path agree
    with the oracle on a small input."""

    @pytest.mark.parametrize("app_name", sorted(available_apps()))
    def test_vector_and_simt_match_oracle(self, app_name, small_matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(small_matrix, DEFAULT_SEED)
        expected = app.oracle(problem)
        ctx = ExecutionContext(spec=TINY_GPU)
        vector = run_app(app, problem, ctx=ctx)
        simt = run_app(app, problem, ctx=ctx.replace(engine="simt"))
        assert app.match(vector.output, expected), f"{app_name}: vector != oracle"
        assert app.match(simt.output, expected), f"{app_name}: simt != oracle"
        assert vector.elapsed_ms > 0 and simt.elapsed_ms > 0

    @pytest.mark.parametrize("schedule", ["thread_mapped", "group_mapped", "merge_path"])
    @pytest.mark.parametrize("app_name", sorted(available_apps()))
    def test_parity_across_schedules(self, app_name, schedule, small_matrix):
        """Pin the SIMT kernel bodies' exactness under whole-tile,
        lane-parallel and partial-tile (merge-path) scheduling alike."""
        app = get_app(app_name)
        problem = app.sweep_problem(small_matrix, DEFAULT_SEED)
        expected = app.oracle(problem)
        for engine in ("vector", "simt"):
            ctx = ExecutionContext(policy=schedule, engine=engine, spec=TINY_GPU)
            r = run_app(app, problem, ctx=ctx)
            assert app.match(r.output, expected), (app_name, schedule, engine)

    def test_heuristic_schedule_supported_by_every_app(self, small_matrix):
        for app_name in sorted(available_apps()):
            app = get_app(app_name)
            problem = app.sweep_problem(small_matrix, DEFAULT_SEED)
            ctx = ExecutionContext(policy="heuristic", spec=TINY_GPU)
            r = run_app(app, problem, ctx=ctx)
            assert app.match(r.output, app.oracle(problem)), app_name


class TestPlanCache:
    def test_cached_stats_identical_to_uncached(self, small_matrix):
        from repro.apps import spmv

        x = input_vector(small_matrix.num_cols)
        cached = VectorEngine(plan_cache=PlanCache())
        uncached = VectorEngine(plan_cache=PlanCache(maxsize=0))
        ctx = ExecutionContext(spec=TINY_GPU, engine=cached)
        warm = spmv(small_matrix, x, ctx=ctx)
        hit = spmv(small_matrix, x, ctx=ctx)
        cold = spmv(small_matrix, x, ctx=ctx.replace(engine=uncached))
        # KernelStats compares every timing field (extras excluded).
        assert warm.stats == hit.stats == cold.stats
        assert cached.plan_cache.hits == 1

    def test_replanning_skipped_on_hit(self, small_matrix, monkeypatch):
        from repro.apps import spmv
        from repro.core.schedules.merge_path import MergePathSchedule

        calls = {"n": 0}
        real = MergePathSchedule.cycles

        def counting(self, costs):
            calls["n"] += 1
            return real(self, costs)

        monkeypatch.setattr(MergePathSchedule, "cycles", counting)
        engine = VectorEngine(plan_cache=PlanCache())
        x = input_vector(small_matrix.num_cols)
        ctx = ExecutionContext(spec=TINY_GPU, engine=engine)
        first = spmv(small_matrix, x, ctx=ctx)
        after_first = calls["n"]
        assert after_first >= 1
        second = spmv(small_matrix, x, ctx=ctx)
        assert calls["n"] == after_first  # cache hit: no recomputation
        assert second.stats == first.stats

    def test_distinct_launches_get_distinct_entries(self, small_matrix):
        from repro.apps import spmv

        engine = VectorEngine(plan_cache=PlanCache())
        x = input_vector(small_matrix.num_cols)
        ctx = ExecutionContext(spec=TINY_GPU, engine=engine)
        a = spmv(small_matrix, x, ctx=ctx)
        b = spmv(small_matrix, x, ctx=ctx.with_policy("thread_mapped"))
        assert engine.plan_cache.hits == 0
        assert engine.plan_cache.misses == 2
        assert a.schedule != b.schedule

    def test_schedule_key_is_the_construction_identity(self, small_matrix):
        from repro.core.schedules import GroupMappedSchedule
        from repro.engine.plan_cache import schedule_key

        work = WorkSpec.from_csr(small_matrix)
        narrow = make_schedule("group_mapped", work, TINY_GPU, group_size=4)
        again = make_schedule("group_mapped", work, TINY_GPU, group_size=4)
        default = make_schedule("group_mapped", work, TINY_GPU)
        assert schedule_key(narrow) == schedule_key(again) is not None
        assert schedule_key(narrow) != schedule_key(default)
        hand = GroupMappedSchedule(work, TINY_GPU, narrow.launch, group_size=4)
        assert schedule_key(hand) is None

    def test_unhashable_option_plans_live(self, small_matrix):
        from repro.apps.common import spmv_costs

        sched = make_schedule("merge_path", WorkSpec.from_csr(small_matrix),
                              TINY_GPU)
        sched.construction_options = {"tag": [1]}
        cache, costs = PlanCache(), spmv_costs(TINY_GPU)
        assert cache.plan(sched, costs) == sched.plan(costs)
        assert cache.plan(sched, costs, loads=True) == sched.plan(costs, loads=True)
        assert (cache.hits, cache.misses, cache.info()["size"]) == (0, 0, 0)

    def test_schedule_instances_bypass_cache(self, small_matrix):
        """Instances not built by make_schedule have unknown options and
        plan live; make_schedule instances share the named entry."""
        from repro.apps import spmv
        from repro.core.schedules import MergePathSchedule

        engine = VectorEngine(plan_cache=PlanCache())
        work = WorkSpec.from_csr(small_matrix)
        built = make_schedule("merge_path", work, TINY_GPU)
        hand = MergePathSchedule(work, TINY_GPU, built.launch)
        x = input_vector(small_matrix.num_cols)
        ctx = ExecutionContext(spec=TINY_GPU, engine=engine, policy=hand)
        spmv(small_matrix, x, ctx=ctx)
        spmv(small_matrix, x, ctx=ctx)
        assert engine.plan_cache.hits == 0 and engine.plan_cache.misses == 0
        spmv(small_matrix, x, ctx=ctx.with_policy("merge_path"))
        spmv(small_matrix, x, ctx=ctx.with_policy(built))
        assert engine.plan_cache.hits == 1 and engine.plan_cache.misses == 1

    def _launches(self, small_matrix):
        from repro.apps.common import spmv_costs

        work = WorkSpec.from_csr(small_matrix)
        names = ("merge_path", "thread_mapped", "group_mapped")
        return [make_schedule(n, work, TINY_GPU) for n in names], spmv_costs(TINY_GPU)

    def test_lru_evicts_least_recently_used(self, small_matrix):
        (a, b, c), costs = self._launches(small_matrix)
        cache = PlanCache(maxsize=2)
        cache.plan(a, costs)
        cache.plan(b, costs)
        cache.plan(a, costs)  # refreshes a: b is now the oldest
        cache.plan(c, costs)
        assert (cache.hits, cache.misses, cache.info()["size"]) == (1, 3, 2)
        cache.plan(a, costs)
        assert cache.hits == 2
        cache.plan(b, costs)
        assert cache.misses == 4

    def test_colliding_key_hashes_stay_distinct(self, small_matrix, monkeypatch):
        from repro.engine import plan_cache as plan_cache_module

        monkeypatch.setattr(plan_cache_module, "hash", lambda key: 0,
                            raising=False)
        scheds, costs = self._launches(small_matrix)
        cache = PlanCache(maxsize=8)
        for sched in scheds + scheds:
            stats = cache.plan(sched, costs, extras={"tag": sched.name})
            assert stats == sched.plan(costs)
            assert stats.extras == {"schedule": sched.name, "tag": sched.name}
        assert (cache.hits, cache.misses, cache.info()["size"]) == (3, 3, 3)

    def test_global_cache_serves_harness_reruns(self):
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_diag_32", "smoke")]
        cache = global_plan_cache()
        run_suite(["merge_path"], app="spmv", datasets=ds)
        hits_before = cache.info()["hits"]
        run_suite(["merge_path"], app="spmv", datasets=ds)
        assert cache.info()["hits"] > hits_before


class TestSeeding:
    def test_deterministic(self):
        np.testing.assert_array_equal(input_vector(16), input_vector(16))
        assert not np.array_equal(input_vector(16, seed=1), input_vector(16))

    def test_strictly_positive(self):
        assert (input_vector(256) > 0).all()


class TestGenericSweep:
    """The harness sweeps any registered app over the corpus."""

    @pytest.mark.parametrize("app_name", ["spmm", "histogram", "bfs"])
    def test_non_spmv_apps_sweep(self, app_name):
        from repro.evaluation.harness import run_suite

        rows = run_suite(
            ["thread_mapped", "merge_path"],
            app=app_name,
            scale="smoke",
            limit=3,
        )
        assert len(rows) == 6
        assert all(r.app == app_name for r in rows)
        assert all(r.elapsed > 0 for r in rows)

    def test_incompatible_datasets_skipped(self):
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [
            load_dataset("tiny_diag_32", "smoke"),
            load_dataset("wide_4x", "smoke"),  # rectangular: no graph
        ]
        rows = run_suite(["thread_mapped"], app="bfs", datasets=ds)
        assert [r.dataset for r in rows] == ["tiny_diag_32"]

    def test_parallel_matches_serial(self):
        from repro.evaluation.harness import run_suite

        kwargs = dict(app="spmm", scale="smoke", limit=3)
        from repro.engine import SweepExecutor

        serial = run_suite(["merge_path", "thread_mapped"], **kwargs)
        with SweepExecutor(max_workers=2) as pool:
            parallel = run_suite(
                ["merge_path", "thread_mapped"], executor="process",
                pool=pool, **kwargs
            )
        assert [(r.dataset, r.kernel, r.elapsed) for r in serial] == [
            (r.dataset, r.kernel, r.elapsed) for r in parallel
        ]

    def test_app_column_in_csv(self, tmp_path):
        from repro.evaluation.harness import run_suite, write_csv
        import csv as _csv

        rows = run_suite(["thread_mapped"], app="histogram", scale="smoke", limit=2)
        path = write_csv(rows, tmp_path / "sweep.csv", include_app=True)
        with open(path) as fh:
            parsed = list(_csv.DictReader(fh))
        assert parsed[0]["app"] == "histogram"
        assert set(parsed[0]) == {
            "app", "kernel", "dataset", "rows", "cols", "nnzs", "elapsed",
        }

    def test_unknown_kernel(self):
        from repro.evaluation.harness import run_cell
        from repro.sparse.corpus import load_dataset

        ds = load_dataset("tiny_diag_32", "smoke")
        with pytest.raises(KeyError, match="unknown kernel"):
            run_cell("histogram", "fictional", ds)
