"""Tests for the engine registry and the multi-GPU engine."""

import numpy as np
import pytest

from repro.core.schedule import make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    DEFAULT_SEED,
    Engine,
    ExecutionContext,
    KernelDecl,
    MultiGpuEngine,
    PlanCache,
    available_engines,
    get_engine,
    register_engine,
    run_app,
    get_app,
)
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse import generators as gen


class TestEngineRegistry:
    def test_builtins_registered(self):
        assert set(available_engines()) >= {"vector", "simt", "multi_gpu"}

    def test_get_engine_resolves_from_registry(self):
        assert get_engine("multi_gpu").name == "multi_gpu"
        assert get_engine("vector").name == "vector"

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("vector", lambda: None)

    def test_options_forwarded_to_factory(self):
        cache = PlanCache()
        eng = get_engine("multi_gpu", num_devices=5, plan_cache=cache)
        assert eng.num_devices == 5 and eng.plan_cache is cache

    def test_options_rejected_for_instances(self):
        with pytest.raises(ValueError, match="instance"):
            get_engine(get_engine("vector"), num_devices=2)

    def test_third_party_engine_reaches_every_app(self):
        """Registering an engine is all it takes to run any app on it."""

        class EchoEngine(Engine):
            name = "echo-test"

            def launch(self, sched, costs, decl, args, *, simt=None,
                       extras=None):
                out, stats = get_engine("vector").launch(
                    sched, costs, decl, args, simt=simt, extras=extras
                )
                return out, stats

        register_engine("echo-test", EchoEngine)
        try:
            assert "echo-test" in available_engines()
            m = gen.power_law(16, 16, 3.0, 1.8, seed=2)
            app = get_app("spmv")
            problem = app.sweep_problem(m, DEFAULT_SEED)
            ctx = ExecutionContext(engine="echo-test", spec=TINY_GPU)
            r = run_app(app, problem, ctx=ctx)
            assert app.match(r.output, app.oracle(problem))
        finally:
            from repro.engine import dispatch

            dispatch._ENGINE_REGISTRY.pop("echo-test", None)

    def test_type_error_in_launch_propagates_after_one_call(self):
        """A TypeError raised inside an engine's launch is the engine's
        error: it propagates as-is and the launch is never retried."""
        calls = []

        class BrokenEngine(Engine):
            name = "broken-test"

            def launch(self, sched, costs, decl, args, *, simt=None,
                       extras=None):
                calls.append(sched.name)
                raise TypeError("bad operand inside a compiled body")

        register_engine("broken-test", BrokenEngine)
        try:
            m = gen.power_law(16, 16, 3.0, 1.8, seed=2)
            app = get_app("spmv")
            problem = app.sweep_problem(m, DEFAULT_SEED)
            with pytest.raises(TypeError, match="compiled body"):
                run_app(app, problem, ctx=ExecutionContext(
                    engine="broken-test", spec=TINY_GPU))
            assert len(calls) == 1
        finally:
            from repro.engine import dispatch

            dispatch._ENGINE_REGISTRY.pop("broken-test", None)


class TestMultiGpuEngine:
    def _spmv_parts(self, n=512):
        m = gen.power_law(n, n, 8.0, 1.8, seed=3)
        app = get_app("spmv")
        problem = app.sweep_problem(m, DEFAULT_SEED)
        return app, problem

    def test_runs_decl_arrays(self):
        work = WorkSpec.from_counts([2, 3, 1])
        sched = make_schedule("thread_mapped", work, TINY_GPU)
        from repro.core.schedule import WorkCosts

        decl = KernelDecl("add", lambda a, b: a + b)
        out, stats = MultiGpuEngine().launch(
            sched, WorkCosts(atom_cycles=1.0, tile_cycles=1.0), decl, (2, 3)
        )
        assert out == 5
        assert stats.elapsed_ms > 0

    def test_rejects_bad_device_count(self):
        with pytest.raises(ValueError, match="num_devices"):
            MultiGpuEngine(num_devices=0)

    def test_output_bit_for_bit_vs_single_gpu(self):
        app, problem = self._spmv_parts()
        single = run_app(app, problem, ctx=ExecutionContext(spec=V100))
        multi = run_app(app, problem, ctx=ExecutionContext(spec=V100, gpus=4))
        assert np.array_equal(single.output, multi.output)  # bit-for-bit

    def test_stats_report_devices_and_shards(self):
        app, problem = self._spmv_parts()
        r = run_app(app, problem, ctx=ExecutionContext(spec=V100, gpus=4))
        extras = r.stats.extras
        assert extras["engine"] == "multi_gpu"
        assert extras["num_devices"] == 4
        assert len(extras["shards"]) == 4
        assert sum(a for a, _ in extras["shards"]) == problem.matrix.nnz
        assert extras["device_imbalance"] >= 1.0
        assert extras["transfer_model"] == "flat"  # V100 has no link
        assert extras["transfer_ms"] > 0
        assert extras["gather_bytes"] == 0.0

    def test_linked_spec_prices_the_gather_through_the_engine(self):
        import dataclasses

        from repro.gpusim.arch import GpuLinkSpec

        app, problem = self._spmv_parts()
        linked = dataclasses.replace(V100, link=GpuLinkSpec())
        flat = run_app(app, problem, ctx=ExecutionContext(spec=V100, gpus=4))
        r = run_app(app, problem, ctx=ExecutionContext(spec=linked, gpus=4))
        assert r.stats.extras["transfer_model"] == "all_to_all"
        assert r.stats.extras["gather_bytes"] > 0
        # The link changes only the transfer term, never the output or
        # the per-device compute time.
        assert np.array_equal(r.output, flat.output)
        assert (
            r.elapsed_ms - r.stats.extras["transfer_ms"]
            == pytest.approx(flat.elapsed_ms - flat.stats.extras["transfer_ms"])
        )

    def test_large_workload_scales_down_elapsed(self):
        """With enough work, four devices beat one despite the overhead."""
        app, problem = self._spmv_parts(n=8192)
        single = run_app(app, problem, ctx=ExecutionContext(spec=TINY_GPU))
        multi = run_app(
            app, problem, ctx=ExecutionContext(spec=TINY_GPU, gpus=4)
        )
        assert multi.elapsed_ms < single.elapsed_ms

    def test_merge_path_partition_beats_tiles_under_skew(self):
        """The engine always splits devices by merge path, which balances
        a skewed workload at least as well as the equal-tile split."""
        from repro.apps.common import spmv_costs
        from repro.gpusim.multi_gpu import multi_gpu_plan

        m = gen.power_law(4096, 4096, 8.0, 1.5, seed=7)
        app = get_app("spmv")
        problem = app.sweep_problem(m, DEFAULT_SEED)
        balanced = run_app(
            app, problem,
            ctx=ExecutionContext(spec=TINY_GPU, gpus=4, policy="thread_mapped"),
        )
        assert balanced.stats.extras["partition"] == "merge_path"
        naive = multi_gpu_plan(WorkSpec.from_csr(m), spmv_costs(TINY_GPU),
                               schedule="thread_mapped",
                               spec=TINY_GPU, num_devices=4, partition="tiles")
        assert balanced.stats.extras["device_imbalance"] <= (
            naive.device_imbalance + 1e-9
        )

    def test_schedule_options_thread_through_to_shards(self):
        """A pre-built schedule's construction options shape the
        per-device re-planning, not the defaults."""
        app, problem = self._spmv_parts()
        work = WorkSpec.from_csr(problem.matrix)

        def run(policy, gpus):
            ctx = ExecutionContext(spec=V100, gpus=gpus, policy=policy)
            return run_app(app, problem, ctx=ctx)

        narrow = make_schedule("group_mapped", work, V100, group_size=4)
        single, multi = run(narrow, 1), run(narrow, 2)
        assert np.array_equal(single.output, multi.output)
        # The shard schedules got group_size=4: the default (32) prices
        # the same shards differently.
        default = run("group_mapped", 2)
        assert (multi.stats.extras["device_elapsed_ms"]
                != default.stats.extras["device_elapsed_ms"])

    def test_construction_options_recorded_by_make_schedule(self):
        work = WorkSpec.from_counts([4, 1, 7, 2])
        sched = make_schedule("group_mapped", work, TINY_GPU, group_size=4)
        assert sched.construction_options == {"group_size": 4}
        plain = make_schedule("merge_path", work, TINY_GPU)
        assert plain.construction_options == {}

    def test_plan_cache_used_for_shards(self):
        app, problem = self._spmv_parts()
        cache = PlanCache()
        eng = MultiGpuEngine(num_devices=2, plan_cache=cache)
        run_app(app, problem, ctx=ExecutionContext(engine=eng, spec=V100))
        misses_first = cache.misses
        assert misses_first >= 2  # one per non-empty shard
        run_app(app, problem, ctx=ExecutionContext(engine=eng, spec=V100))
        assert cache.misses == misses_first  # second run fully cached
        assert cache.hits >= 2


class TestMultiGpuSweeps:
    """Acceptance: multi-GPU sweeps of spmv and bfs match single-GPU
    outputs bit-for-bit (validation passes against the same oracles, and
    row elapsed times differ only through the ensemble timing)."""

    @pytest.mark.parametrize("app_name", ["spmv", "bfs"])
    def test_sweep_matches_single_gpu(self, app_name):
        from repro.evaluation.harness import run_suite

        kernels = ["merge_path", "group_mapped"]
        kwargs = dict(app=app_name, scale="smoke", limit=3, validate=True)
        single = run_suite(kernels, ctx=ExecutionContext(), **kwargs)
        multi = run_suite(kernels, ctx=ExecutionContext(gpus=2), **kwargs)
        # validate=True already checked outputs cell-by-cell against the
        # oracle (and the sampled audits); the rows must align too.
        assert [(r.dataset, r.kernel) for r in single] == [
            (r.dataset, r.kernel) for r in multi
        ]
        assert all(r.elapsed > 0 for r in multi)

    def test_multi_gpu_cells_report_engine(self):
        from repro.evaluation.harness import run_cell
        from repro.sparse.corpus import load_dataset

        ds = load_dataset("tiny_power_256", "smoke")
        row = run_cell(
            "spmv", "merge_path", ds, ctx=ExecutionContext(gpus=2)
        )
        assert row.meta["schedule"] == "merge_path"
        assert row.elapsed > 0
