"""Tests for the compiled engine (JIT path, priced loads, plan cache).

The compiled engine's contract has three legs:

* **bit-for-bit parity** with the vector engine for every registered
  app under every registered schedule (the JIT runs the same dataflow);
* **schedule-shaped timing**: the schedule's per-thread loads priced
  like every engine's (the closed forms are checked against the
  iterator probe in ``test_schedule_loads.py``);
* priced loads **memoized in the one plan cache**, keyed apart from the
  vector engine's plans, working with or without numba installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    EngineError,
    ExecutionContext,
    KernelDecl,
    UnknownEngineError,
    available_engines,
    clear_plan_cache,
    engine_description,
    get_engine,
    global_plan_cache,
    run_app,
)
from repro.engine import compiled as compiled_mod
from repro.engine.compiled import precompile_kernels
from repro.engine.registry import available_apps, get_app
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse import generators as gen
from repro.sparse.csr import CsrMatrix

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


VECTOR = ExecutionContext(engine="vector")
COMPILED = ExecutionContext(engine="compiled")


def _skewed_matrix(n: int = 48, seed: int = 0) -> CsrMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.12) * rng.standard_normal((n, n))
    dense[3, :] = rng.standard_normal(n) * (rng.random(n) < 0.8)  # heavy row
    dense[7, :] = 0.0  # empty row
    return CsrMatrix.from_dense(dense)


def _outputs_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if hasattr(a, "row_offsets"):  # CSR-like
        return (
            np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices)
            and np.array_equal(a.values, b.values)
        )
    return a == b


class TestRegistration:
    def test_compiled_is_registered(self):
        assert "compiled" in available_engines()
        assert get_engine("compiled").name == "compiled"

    def test_engine_description(self):
        assert "JIT" in engine_description("compiled")
        assert engine_description("vector")

    def test_unknown_engine_raises_with_suggestion(self):
        with pytest.raises(UnknownEngineError, match="did you mean 'compiled'"):
            get_engine("compield")

    def test_unknown_engine_lists_available(self):
        with pytest.raises(EngineError, match="available"):
            get_engine("gpu")

    def test_unknown_engine_is_still_a_value_error(self):
        # Backward compatibility: pre-existing callers catch ValueError.
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("nope")


class TestBitForBitParity:
    """Compiled output equals vector output exactly: every app, every
    schedule."""

    @pytest.mark.parametrize("app", sorted(
        # Resolved lazily so a registry change shows up as a test change.
        __import__("repro.engine.registry", fromlist=["available_apps"])
        .available_apps()
    ))
    def test_app_parity_all_schedules(self, app):
        matrix = _skewed_matrix()
        spec = get_app(app)
        if spec.accepts is not None and not spec.accepts(matrix):
            pytest.skip(f"{app} rejects the test matrix")
        for sched in available_schedules():
            pv = spec.sweep_problem(matrix, 7)
            pc = spec.sweep_problem(matrix, 7)
            rv = run_app(app, pv, ctx=ExecutionContext(policy=sched, engine="vector"))
            rc = run_app(app, pc, ctx=ExecutionContext(policy=sched, engine="compiled"))
            assert _outputs_equal(rv.output, rc.output), (app, sched)

    def test_simt_agreement_on_small_matrix(self):
        # The SIMT interpreter is the slow ground truth; agreement is by
        # the app's own match predicate (simt accumulation order is
        # schedule-dependent, so exact equality is not the contract).
        matrix = _skewed_matrix(n=16, seed=3)
        for app in available_apps():
            spec = get_app(app)
            if spec.accepts is not None and not spec.accepts(matrix):
                continue
            ps = spec.sweep_problem(matrix, 7)
            pc = spec.sweep_problem(matrix, 7)
            rs = run_app(app, ps, ctx=ExecutionContext(engine="simt"))
            rc = run_app(app, pc, ctx=ExecutionContext(engine="compiled"))
            assert spec.match(rc.output, rs.output), app

    def test_compiled_stats_extras(self):
        matrix = _skewed_matrix()
        spec = get_app("spmv")
        result = run_app(
            "spmv", spec.sweep_problem(matrix, 7),
            ctx=ExecutionContext(policy="merge_path", engine="compiled"),
        )
        extras = result.stats.extras
        assert extras["engine"] == "compiled"
        assert extras["jit"] in ("numba", "numpy")


def _spmv_compiled(policy, matrix=None):
    matrix = _skewed_matrix() if matrix is None else matrix
    return run_app("spmv", get_app("spmv").sweep_problem(matrix, 7),
                   ctx=ExecutionContext(policy=policy, engine="compiled"))


class TestPlanCache:
    """Compiled launches memoize their priced loads in the plan cache."""

    def test_hit_after_miss(self):
        clear_plan_cache()
        first = _spmv_compiled("merge_path")
        assert global_plan_cache().info()["misses"] == 1
        second = _spmv_compiled("merge_path")
        info = global_plan_cache().info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)
        assert second.stats == first.stats
        assert second.stats.extras == first.stats.extras

    def test_distinct_schedules_are_distinct_entries(self):
        clear_plan_cache()
        for sched in ("thread_mapped", "merge_path"):
            _spmv_compiled(sched)
        info = global_plan_cache().info()
        assert (info["hits"], info["size"]) == (0, 2)

    def test_compiled_and_vector_are_keyed_apart(self):
        """Same launch, two cycle sources: the vector engine's planner
        (with the fixup atomics) and the compiled engine's loads."""
        clear_plan_cache()
        matrix = _skewed_matrix()
        problem = get_app("spmv").sweep_problem(matrix, 7)
        vec = run_app("spmv", problem,
                      ctx=ExecutionContext(policy="merge_path", engine="vector"))
        comp = _spmv_compiled("merge_path", matrix)
        info = global_plan_cache().info()
        assert (info["hits"], info["misses"]) == (0, 2)
        assert vec.stats.elapsed_ms != comp.stats.elapsed_ms

    def test_hand_built_schedule_never_shares_an_entry(self):
        """Regression: a schedule built by its class directly has unknown
        options, so it must not reuse the loads of a make_schedule one
        with the same launch (group_size 8 got the g=32 timing)."""
        from repro.apps.spmv import spmv
        from repro.core.schedules import GroupMappedSchedule
        from repro.engine import input_vector

        matrix = gen.power_law(3000, 3000, 8.0, seed=1)
        x = input_vector(matrix.num_cols)
        work = WorkSpec.from_csr(matrix)
        default = make_schedule("group_mapped", work, V100)
        hand = GroupMappedSchedule(work, V100, default.launch, group_size=8)

        def run(sched):
            ctx = ExecutionContext(engine="compiled", spec=V100, policy=sched)
            return spmv(matrix, x, ctx=ctx).elapsed_ms

        clear_plan_cache()
        fresh = run(hand)
        assert global_plan_cache().info()["size"] == 0
        assert run(default) != fresh
        assert run(hand) == fresh


class _StubDispatcher:
    """Stands in for the callable ``numba.njit`` returns."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class _StubNumba:
    """Interface-compatible numba stand-in: njit is an identity wrap."""

    def __init__(self):
        self.compiled = []

    def njit(self, fn):
        disp = _StubDispatcher(fn)
        self.compiled.append(fn)
        return disp


@pytest.fixture
def stub_numba(monkeypatch):
    stub = _StubNumba()
    monkeypatch.setattr(compiled_mod, "_NUMBA", stub)
    monkeypatch.setattr(compiled_mod, "_FN_CACHE", {})
    return stub


@pytest.fixture
def no_numba(monkeypatch):
    monkeypatch.setattr(compiled_mod, "_NUMBA", None)
    monkeypatch.setattr(compiled_mod, "_FN_CACHE", {})


class TestJitGating:
    def test_numba_absent_falls_back_to_vector_fn(self, no_numba):
        assert not compiled_mod.numba_available()
        matrix = _skewed_matrix()
        spec = get_app("spmv")
        rv = run_app("spmv", spec.sweep_problem(matrix, 7), ctx=VECTOR)
        rc = run_app("spmv", spec.sweep_problem(matrix, 7), ctx=COMPILED)
        assert rc.stats.extras["jit"] == "numpy"
        assert _outputs_equal(rv.output, rc.output)

    def test_stub_numba_exercises_njit_path(self, stub_numba):
        assert compiled_mod.numba_available()
        matrix = _skewed_matrix()
        spec = get_app("spmv")
        rv = run_app("spmv", spec.sweep_problem(matrix, 7), ctx=VECTOR)
        rc = run_app("spmv", spec.sweep_problem(matrix, 7), ctx=COMPILED)
        assert rc.stats.extras["jit"] == "numba"
        assert _outputs_equal(rv.output, rc.output)
        assert stub_numba.compiled  # the scalar body went through njit

    def test_scalar_parity_all_apps_under_stub_jit(self, stub_numba):
        # With the stub, the *scalar* bodies execute (pure Python) -- the
        # strongest parity statement this suite can make without numba
        # in the container: flat-loop dataflow equals vectorized dataflow
        # bit-for-bit for every app.
        matrix = _skewed_matrix(n=24, seed=5)
        for app in available_apps():
            spec = get_app(app)
            if spec.accepts is not None and not spec.accepts(matrix):
                continue
            rv = run_app(app, spec.sweep_problem(matrix, 7), ctx=VECTOR)
            rc = run_app(app, spec.sweep_problem(matrix, 7), ctx=COMPILED)
            assert _outputs_equal(rv.output, rc.output), app

    def test_njit_wrapper_is_cached_per_function(self, stub_numba):
        matrix = _skewed_matrix()
        spec = get_app("spmv")
        run_app("spmv", spec.sweep_problem(matrix, 7), ctx=COMPILED)
        run_app("spmv", spec.sweep_problem(matrix, 7), ctx=COMPILED)
        from repro.apps.spmv import _spmv_scalar

        assert stub_numba.compiled.count(_spmv_scalar) == 1

    def test_precompile_kernels_noop_without_numba(self, no_numba):
        assert precompile_kernels() == 0

    def test_precompile_kernels_compiles_every_scalar_decl(self, stub_numba):
        n = precompile_kernels()
        scalars = {
            d.scalar
            for app in available_apps()
            for d in get_app(app).kernels
            if d.scalar is not None
        }
        assert n == len(scalars)
        # One body per jit-able kernel: spmv, spmm, spgemm count, mttkrp,
        # histogram, intersect, bfs, sssp (pagerank lists spmv's decl; the
        # spgemm compute pass is sort-based and stays vectorized).
        assert n >= 8
        assert set(stub_numba.compiled) == scalars
        # Each declared body was run once on its example args.
        assert all(
            d.calls >= 1 for d in compiled_mod._FN_CACHE.values()
        )


class TestEngineContract:
    def test_decl_without_scalar_stays_on_arrays(self, stub_numba):
        from repro.apps.common import spmv_costs

        matrix = _skewed_matrix()
        rt = ExecutionContext(
            engine="compiled", spec=TINY_GPU, policy="thread_mapped"
        ).runtime()
        work = WorkSpec.from_csr(matrix)
        costs = spmv_costs(rt.spec)
        sched = rt.schedule_for(work, matrix=matrix, costs=costs)
        decl = KernelDecl("k", lambda offsets: np.diff(offsets))
        out, stats = rt.run_launch(sched, costs, decl, (matrix.row_offsets,))
        assert np.array_equal(out, matrix.row_lengths())
        assert stats.extras["jit"] == "numpy"
        assert stub_numba.compiled == []

    def test_other_engines_ignore_compiled_argument(self, stub_numba):
        # Only the compiled engine JITs a decl's scalar body.
        matrix = _skewed_matrix()
        spec = get_app("spmv")
        r = run_app("spmv", spec.sweep_problem(matrix, 7), ctx=VECTOR)
        assert r.output is not None
        assert stub_numba.compiled == []


class TestSuiteIntegration:
    """Cross-engine and cross-executor parity through ``run_suite``."""

    def test_fail_fast_on_unknown_engine_every_executor(self):
        from repro.engine import SweepExecutor
        from repro.evaluation.harness import run_suite

        with SweepExecutor(max_workers=1) as pool:
            for executor, fan_out in (("serial", None), ("process", pool)):
                with pytest.raises(UnknownEngineError, match="compield"):
                    run_suite(
                        ["merge_path"], scale="smoke", limit=1,
                        ctx=ExecutionContext(engine="compield"),
                        executor=executor, pool=fan_out,
                    )
            assert not pool.alive  # failed before any worker spawned

    @pytest.mark.parametrize("app", ["spmv", "histogram", "bfs", "spgemm"])
    def test_compiled_rows_match_vector_rows(self, app):
        from conftest import PRICE_PARITY
        from repro.evaluation.harness import run_suite

        kernels = ["merge_path", "thread_mapped"]
        kwargs = dict(app=app, scale="smoke", limit=2, executor="serial")
        vec = run_suite(kernels, ctx=ExecutionContext(engine="vector"), **kwargs)
        comp = run_suite(
            kernels, ctx=ExecutionContext(engine="compiled"), **kwargs
        )
        assert [(r.kernel, r.dataset, r.rows, r.cols, r.nnzs) for r in vec] \
            == [(r.kernel, r.dataset, r.rows, r.cols, r.nnzs) for r in comp]
        # Both engines price through one fold: elapsed agrees within the
        # schedule's declared parity (exactly for thread-mapped).
        for v, c in zip(vec, comp):
            lo, hi = PRICE_PARITY[v.kernel][1]
            assert lo <= v.elapsed / c.elapsed <= hi, (v.kernel, v.dataset)
        # Validation ran for every compiled cell (validate defaults True):
        # reaching here means each output matched the oracle and the
        # independent sampled check.  Single-launch apps surface the
        # engine in row extras (multi-launch stats sums drop extras).
        if app in ("spmv", "histogram"):
            assert all(r.meta["engine"] == "compiled" for r in comp)

    def test_compiled_engine_identical_rows_across_executors(self):
        from repro.engine import SweepExecutor
        from repro.evaluation.harness import run_suite

        kwargs = dict(
            app="spmv", scale="smoke", limit=3,
            ctx=ExecutionContext(engine="compiled"),
            kernels=["merge_path", "thread_mapped"],
        )

        def key(rows):
            return [
                (r.kernel, r.dataset, r.rows, r.cols, r.nnzs, r.elapsed)
                for r in rows
            ]

        serial = run_suite(executor="serial", **kwargs)
        with SweepExecutor(max_workers=2) as pool:
            process = run_suite(executor="process", pool=pool, **kwargs)
        assert key(serial) == key(process)
        assert serial  # non-empty sweep


class TestEnginesCli:
    def test_engines_subcommand(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in available_engines():
            assert name in out

    def test_spmv_unknown_engine_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "spmv", "--dataset", "tiny_diag_32", "--scale", "smoke",
            "--engine", "compield",
        ])
        assert code == 2
        assert "did you mean 'compiled'" in capsys.readouterr().err

    def test_sweep_unknown_engine_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--scale", "smoke", "--limit", "1",
            "--engine", "vektor",
        ])
        assert code == 2
        assert "did you mean 'vector'" in capsys.readouterr().err

    def test_spmv_compiled_engine_validates(self, capsys):
        from repro.cli import main

        code = main([
            "spmv", "--dataset", "tiny_diag_32", "--scale", "smoke",
            "--engine", "compiled", "--validate",
        ])
        assert code == 0
        assert "Errors: 0" in capsys.readouterr().out
