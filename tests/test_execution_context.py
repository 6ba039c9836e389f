"""Tests for the ExecutionContext API: the one execution-selection object."""

import pickle

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_SEED,
    ExecutionContext,
    FixedPolicy,
    HeuristicPolicy,
    OracleBestPolicy,
    VectorEngine,
    available_apps,
    get_app,
    run_app,
)
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse import generators as gen


@pytest.fixture
def small_matrix():
    """Square, skewed, strictly-positive values: acceptable to every app."""
    return gen.power_law(20, 20, 3.0, 1.9, seed=5)


class TestConstruction:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.engine == "vector"
        assert ctx.spec is V100
        assert ctx.policy is None
        assert ctx.gpus == 1

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionContext().engine = "simt"

    def test_hashable(self):
        assert isinstance(hash(ExecutionContext(policy=FixedPolicy("lrb"))), int)

    def test_schedule_options_normalized(self):
        ctx = ExecutionContext(schedule_options={"b": 2, "a": 1})
        assert ctx.schedule_options == (("a", 1), ("b", 2))
        assert ctx.options == {"a": 1, "b": 2}

    def test_policy_strings_coerced(self):
        assert ExecutionContext(policy="merge_path").policy == FixedPolicy("merge_path")
        assert isinstance(ExecutionContext(policy="heuristic").policy, HeuristicPolicy)
        assert isinstance(
            ExecutionContext(policy="oracle_best").policy, OracleBestPolicy
        )

    def test_gpus_selects_multi_gpu_engine(self):
        assert ExecutionContext(gpus=2).engine == "multi_gpu"
        assert ExecutionContext(gpus=1).engine == "vector"
        assert ExecutionContext(engine="multi_gpu", gpus=2).engine == "multi_gpu"

    def test_rejects_bad_gpus(self):
        with pytest.raises(ValueError, match="gpus"):
            ExecutionContext(gpus=0)

    def test_gpus_with_single_device_engine_rejected(self):
        # Never silently run single-device when multiple were requested.
        with pytest.raises(ValueError, match="multi_gpu"):
            ExecutionContext(engine="simt", gpus=2)

    def test_plan_store_coerced_to_str(self, tmp_path):
        ctx = ExecutionContext(plan_store=tmp_path / "plans.journal")
        assert ctx.plan_store == str(tmp_path / "plans.journal")

    def test_plan_store_is_the_only_persistence_field(self, tmp_path):
        with pytest.raises(TypeError):
            ExecutionContext(plan_cache_dir=str(tmp_path / "plans"))

    def test_replace_and_with_helpers(self):
        ctx = ExecutionContext()
        assert ctx.with_policy("lrb").policy == FixedPolicy("lrb")
        assert ctx.with_engine("simt").engine == "simt"
        assert ctx.replace(gpus=3).gpus == 3
        assert ctx.policy is None  # original untouched


class TestPickling:
    def test_round_trip(self):
        ctx = ExecutionContext(
            engine="multi_gpu",
            spec=TINY_GPU,
            policy=OracleBestPolicy(candidates=("merge_path", "lrb")),
            schedule_options={"opt": 1},
            gpus=4,
        )
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.policy == ctx.policy

    def test_plan_store_round_trips(self):
        ctx = ExecutionContext(plan_store="/tmp/plans.journal")
        assert pickle.loads(pickle.dumps(ctx)).plan_store == "/tmp/plans.journal"


class TestFromKwargs:
    def test_ctx_passthrough(self):
        ctx = ExecutionContext(engine="simt")
        assert ExecutionContext.from_kwargs(ctx=ctx) is ctx

    def test_ctx_plus_legacy_kwargs_rejected(self):
        ctx = ExecutionContext()
        with pytest.raises(ValueError, match="not both"):
            ExecutionContext.from_kwargs(ctx=ctx, engine="simt")
        with pytest.raises(ValueError, match="not both"):
            ExecutionContext.from_kwargs(ctx=ctx, schedule="lrb")
        with pytest.raises(ValueError, match="not both"):
            ExecutionContext.from_kwargs(ctx=ctx, opt=3)

    def test_schedule_becomes_policy(self):
        ctx = ExecutionContext.from_kwargs(schedule="lrb")
        assert ctx.policy == FixedPolicy("lrb")
        assert isinstance(
            ExecutionContext.from_kwargs(schedule="heuristic").policy,
            HeuristicPolicy,
        )

    def test_schedule_and_policy_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            ExecutionContext.from_kwargs(schedule="lrb", policy=FixedPolicy("lrb"))

    def test_schedule_options_captured(self):
        ctx = ExecutionContext.from_kwargs(schedule="group_mapped", group_size=8)
        assert ctx.options == {"group_size": 8}


class TestEveryAppAcceptsCtx:
    """The acceptance bar: all 9 apps take ctx= and match the legacy path."""

    @pytest.mark.parametrize("app_name", sorted(available_apps()))
    def test_ctx_equals_legacy(self, app_name, small_matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(small_matrix, DEFAULT_SEED)
        legacy = run_app(app, problem, spec=TINY_GPU)
        via_ctx = run_app(app, problem, ctx=ExecutionContext(spec=TINY_GPU))
        assert app.match(via_ctx.output, legacy.output), app_name
        assert via_ctx.stats.elapsed_ms == legacy.stats.elapsed_ms

    @pytest.mark.parametrize("app_name", sorted(available_apps()))
    def test_public_function_accepts_ctx(self, app_name, small_matrix):
        """Each public app function (not just run_app) takes ctx=."""
        from repro.apps.bfs import bfs
        from repro.apps.histogram import degree_histogram
        from repro.apps.pagerank import pagerank
        from repro.apps.spgemm import spgemm
        from repro.apps.spmm import spmm
        from repro.apps.spmttkrp import spmttkrp
        from repro.apps.spmv import spmv
        from repro.apps.sssp import sssp
        from repro.apps.triangle_count import triangle_count
        from repro.engine import input_matrix, input_vector
        from repro.sparse.graph import CsrGraph
        from repro.sparse.tensor import SparseTensor3

        m = small_matrix
        ctx = ExecutionContext(spec=TINY_GPU)
        calls = {
            "spmv": lambda: spmv(m, input_vector(m.num_cols), ctx=ctx),
            "spmm": lambda: spmm(m, input_matrix(m.num_cols, 3), ctx=ctx),
            "spgemm": lambda: spgemm(m, m, ctx=ctx),
            "bfs": lambda: bfs(CsrGraph(csr=m), 0, ctx=ctx),
            "sssp": lambda: sssp(CsrGraph(csr=m), 0, ctx=ctx),
            "pagerank": lambda: pagerank(m, ctx=ctx),
            "triangle_count": lambda: triangle_count(m, ctx=ctx),
            "histogram": lambda: degree_histogram(m, ctx=ctx),
            "spmttkrp": lambda: spmttkrp(
                SparseTensor3.from_arrays(
                    np.array([0, 1, 2]), np.array([0, 1, 0]),
                    np.array([0, 0, 1]), np.array([1.0, 2.0, 3.0]),
                    (3, 2, 2),
                ),
                input_matrix(2, 2, seed=1),
                input_matrix(2, 2, seed=2),
                ctx=ctx,
            ),
        }
        result = calls[app_name]()
        assert result.stats.elapsed_ms > 0

    def test_public_function_rejects_ctx_plus_legacy(self, small_matrix):
        from repro.apps.spmv import spmv
        from repro.engine import input_vector

        x = input_vector(small_matrix.num_cols)
        with pytest.raises(ValueError, match="not both"):
            spmv(small_matrix, x, ctx=ExecutionContext(), schedule="lrb")

    def test_engine_instances_still_accepted(self, small_matrix):
        from repro.apps.spmv import spmv
        from repro.engine import PlanCache, input_vector

        eng = VectorEngine(plan_cache=PlanCache())
        x = input_vector(small_matrix.num_cols)
        r = spmv(small_matrix, x, spec=TINY_GPU, engine=eng)
        assert eng.plan_cache.misses == 1
        assert r.elapsed_ms > 0


class TestContextThroughSuite:
    def test_run_suite_accepts_ctx(self):
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_power_256", "smoke")]
        legacy = run_suite(["merge_path"], app="spmv", datasets=ds)
        via_ctx = run_suite(
            ["merge_path"], app="spmv", datasets=ds, ctx=ExecutionContext()
        )
        assert [(r.kernel, r.elapsed) for r in legacy] == [
            (r.kernel, r.elapsed) for r in via_ctx
        ]

    def test_run_suite_rejects_ctx_plus_legacy(self):
        """The context is the only selection: loose engine=/spec= kwargs
        beside it are not accepted, not silently merged."""
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_diag_32", "smoke")]
        with pytest.raises(TypeError):
            run_suite(["merge_path"], datasets=ds, ctx=ExecutionContext(),
                      engine="simt")

    def test_ctx_crosses_process_pool(self):
        """The context is the pickled execution selection of shard tasks."""
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_diag_32", "smoke"),
              load_dataset("tiny_uniform_64", "smoke")]
        ctx = ExecutionContext(spec=TINY_GPU)
        serial = run_suite(["merge_path", "thread_mapped"], datasets=ds, ctx=ctx)
        process = run_suite(
            ["merge_path", "thread_mapped"], datasets=ds, ctx=ctx,
            executor="process", max_workers=2,
        )
        assert [(r.dataset, r.kernel, r.elapsed) for r in serial] == [
            (r.dataset, r.kernel, r.elapsed) for r in process
        ]

    def test_oracle_best_pseudo_kernel(self):
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_power_256", "smoke")]
        rows = run_suite(
            ["oracle_best", "merge_path", "thread_mapped", "group_mapped"],
            datasets=ds,
        )
        by_kernel = {r.kernel: r.elapsed for r in rows}
        assert by_kernel["oracle_best"] <= min(
            v for k, v in by_kernel.items() if k != "oracle_best"
        )
