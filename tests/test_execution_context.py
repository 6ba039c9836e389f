"""Tests for the ExecutionContext API: the one execution-selection object."""

import dataclasses
import inspect
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

    def test_fields_are_the_four_selections(self):
        names = [f.name for f in dataclasses.fields(ExecutionContext)]
        assert names == ["engine", "spec", "policy", "gpus"]

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

    @pytest.mark.parametrize("field", ["plan_cache_dir", "plan_store"])
    def test_no_plan_persistence_field(self, tmp_path, field):
        with pytest.raises(TypeError):
            ExecutionContext(**{field: str(tmp_path / "plans")})

    def test_replace_and_with_helpers(self):
        ctx = ExecutionContext()
        assert ctx.with_policy("lrb").policy == FixedPolicy("lrb")
        assert ctx.replace(engine="simt").engine == "simt"
        assert ctx.replace(gpus=3).gpus == 3
        assert ctx.policy is None  # original untouched


class TestPickling:
    def test_round_trip(self):
        ctx = ExecutionContext(
            engine="multi_gpu",
            spec=TINY_GPU,
            policy=OracleBestPolicy(candidates=("merge_path", "lrb")),
            gpus=4,
        )
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.policy == ctx.policy


def _entry_points():
    from repro.apps import (
        bfs, degree_histogram, pagerank, spgemm, spmm, spmttkrp, spmv, sssp,
        triangle_count,
    )

    return {
        fn.__name__: fn
        for fn in (spmv, spmm, spgemm, bfs, sssp, pagerank, triangle_count,
                   spmttkrp, degree_histogram, run_app)
    }


class TestOneSpelling:
    """``ctx=`` is the only execution-selection argument."""

    @pytest.mark.parametrize("name", sorted(_entry_points()))
    def test_ctx_is_the_only_selection_kwarg(self, name):
        fn = _entry_points()[name]
        params = inspect.signature(fn).parameters
        assert "ctx" in params
        assert not any(p.kind is p.VAR_KEYWORD for p in params.values())
        legacy = {"schedule", "engine", "spec", "launch", "policy"}
        assert not legacy & params.keys()
        inputs = [None] * sum(
            p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values()
        )
        with pytest.raises(TypeError):  # binding fails before any input is read
            fn(*inputs, schedule="lrb")

    def test_no_from_kwargs(self):
        assert not hasattr(ExecutionContext, "from_kwargs")

    def test_no_launch_field(self):
        fields = {f.name for f in dataclasses.fields(ExecutionContext)}
        assert "launch" not in fields
        with pytest.raises(TypeError):
            ExecutionContext(launch=None)


class TestEveryAppAcceptsCtx:
    """The acceptance bar: all 9 apps take ctx=, and ``ctx=None`` (the
    call without a context) runs the default context."""

    @pytest.mark.parametrize("app_name", sorted(available_apps()))
    def test_ctx_equals_legacy(self, app_name, small_matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(small_matrix, DEFAULT_SEED)
        legacy = run_app(app, problem)
        via_ctx = run_app(app, problem, ctx=ExecutionContext())
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
        with pytest.raises(TypeError, match="schedule"):
            spmv(small_matrix, x, ctx=ExecutionContext(), schedule="lrb")

    def test_engine_instances_still_accepted(self, small_matrix):
        from repro.apps.spmv import spmv
        from repro.engine import PlanCache, input_vector

        eng = VectorEngine(plan_cache=PlanCache())
        x = input_vector(small_matrix.num_cols)
        r = spmv(small_matrix, x, ctx=ExecutionContext(spec=TINY_GPU, engine=eng))
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
        from repro.engine import SweepExecutor
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_diag_32", "smoke"),
              load_dataset("tiny_uniform_64", "smoke")]
        ctx = ExecutionContext(spec=TINY_GPU)
        serial = run_suite(["merge_path", "thread_mapped"], datasets=ds, ctx=ctx)
        with SweepExecutor(max_workers=2) as pool:
            process = run_suite(
                ["merge_path", "thread_mapped"], datasets=ds, ctx=ctx,
                executor="process", pool=pool,
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
