"""Tests for the SchedulePolicy hierarchy (fixed/heuristic/per-kernel/oracle)."""

import pickle

import pytest

from repro.apps.common import spmv_costs
from repro.core.heuristic import HeuristicParams, select_schedule
from repro.core.policy import (
    FixedPolicy,
    HeuristicPolicy,
    OracleBestPolicy,
    PerKernelPolicy,
    PolicyError,
    as_policy,
)
from repro.core.schedule import available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    DEFAULT_SEED,
    ExecutionContext,
    get_app,
    input_vector,
    run_app,
)
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse import generators as gen


@pytest.fixture
def matrix():
    return gen.power_law(64, 64, 4.0, 1.8, seed=11)


@pytest.fixture
def work(matrix):
    return WorkSpec.from_csr(matrix)


class TestAsPolicy:
    def test_coercions(self, work):
        assert as_policy("lrb") == FixedPolicy("lrb")
        assert isinstance(as_policy("heuristic"), HeuristicPolicy)
        assert isinstance(as_policy("oracle_best"), OracleBestPolicy)
        p = FixedPolicy("merge_path")
        assert as_policy(p) is p
        sched = make_schedule("merge_path", work, TINY_GPU)
        assert as_policy(sched).schedule is sched

    def test_rejects_garbage(self):
        with pytest.raises(TypeError, match="schedule policy"):
            as_policy(42)


class TestFixedPolicy:
    def test_select_returns_name(self, work):
        assert FixedPolicy("lrb").select(work, V100) == "lrb"

    def test_cache_token_for_instances_is_none(self, work):
        sched = make_schedule("merge_path", work, TINY_GPU)
        assert FixedPolicy(sched).cache_token() is None
        assert FixedPolicy("merge_path").cache_token() == ("fixed", "merge_path")


class TestHeuristicPolicy:
    def test_matches_selector(self, matrix, work):
        expected = select_schedule(matrix, HeuristicParams())
        assert HeuristicPolicy().select(work, V100, matrix=matrix) == expected

    def test_requires_matrix(self, work):
        with pytest.raises(PolicyError, match="requires the input matrix"):
            HeuristicPolicy().select(work, V100)

    def test_strict_params_pick_merge_path(self, matrix, work):
        # alpha below the matrix dims: always merge_path.
        strict = HeuristicParams(alpha=1, beta=1)
        chosen = HeuristicPolicy(strict).select(work, V100, matrix=matrix)
        assert chosen == "merge_path"

    def test_params_drive_selection(self, matrix, work):
        # Huge alpha/beta force the small-matrix branch.
        loose = HeuristicParams(alpha=10**6, beta=10**9)
        chosen = HeuristicPolicy(loose).select(work, V100, matrix=matrix)
        assert chosen == select_schedule(matrix, loose)

    def test_heuristic_schedule_option_rejected(self, matrix):
        """``HeuristicPolicy(params)`` is the one spelling: a
        ``heuristic`` schedule option is taken by no schedule."""
        from repro.apps.spmv import spmv

        ctx = ExecutionContext(
            policy="heuristic",
            schedule_options={"heuristic": HeuristicParams(alpha=1, beta=1)},
        )
        with pytest.raises(TypeError, match="heuristic"):
            spmv(matrix, input_vector(matrix.num_cols), ctx=ctx)


class TestPerKernelPolicy:
    def test_routes_by_kernel_label(self, work):
        policy = PerKernelPolicy({"count": "thread_mapped", "compute": "lrb"})
        assert policy.select(work, V100, kernel="count") == "thread_mapped"
        assert policy.select(work, V100, kernel="compute") == "lrb"

    def test_default_fallback(self, work):
        policy = PerKernelPolicy({"count": "lrb"}, default="merge_path")
        assert policy.select(work, V100, kernel="other") == "merge_path"

    def test_missing_kernel_fails_loudly(self, work):
        with pytest.raises(PolicyError, match="no entry for kernel"):
            PerKernelPolicy({"count": "lrb"}).select(work, V100, kernel="compute")

    def test_spgemm_passes_routed_independently(self, matrix):
        """The two SpGEMM passes (count/compute) really get their own
        schedules -- the multi-kernel acceptance path."""
        app = get_app("spgemm")
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        expected = app.oracle(problem)
        ctx = ExecutionContext(
            spec=TINY_GPU,
            policy=PerKernelPolicy({"count": "thread_mapped", "compute": "merge_path"}),
        )
        result = run_app(app, problem, ctx=ctx)
        assert app.match(result.output, expected)

    def test_traversal_advance_label(self, matrix):
        """BFS's frontier launches route through the 'advance' label."""
        app = get_app("bfs")
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        ctx = ExecutionContext(
            spec=TINY_GPU, policy=PerKernelPolicy({"advance": "merge_path"})
        )
        result = run_app(app, problem, ctx=ctx)
        assert app.match(result.output, app.oracle(problem))

    def test_picklable(self):
        policy = PerKernelPolicy({"a": "lrb"}, default=OracleBestPolicy())
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestOracleBestPolicy:
    def test_picks_exhaustive_min_cost(self, matrix, work):
        """The acceptance criterion: on a pinned fixture the policy's
        choice equals the argmin of exhaustively planning every
        registered schedule with the app's real costs."""
        costs = spmv_costs(V100)
        exhaustive = {}
        for name in available_schedules():
            try:
                sched = make_schedule(name, work, V100)
                exhaustive[name] = sched.plan(costs).elapsed_ms
            except Exception:
                continue
        best = min(sorted(exhaustive), key=lambda n: exhaustive[n])
        chosen = OracleBestPolicy().select(work, V100, costs=costs)
        assert chosen == best
        assert exhaustive[chosen] == min(exhaustive.values())

    def test_restricted_candidates(self, work):
        costs = spmv_costs(V100)
        names = ("thread_mapped", "merge_path")
        chosen = OracleBestPolicy(candidates=names).select(work, V100, costs=costs)
        assert chosen in names

    def test_app_run_is_at_least_as_fast_as_any_fixed(self, matrix):
        """End to end: oracle-best SpMV never loses to a fixed schedule."""
        from repro.apps.spmv import spmv

        x = input_vector(matrix.num_cols)
        oracle = spmv(matrix, x, ctx=ExecutionContext(policy=OracleBestPolicy()))
        for name in available_schedules():
            fixed = spmv(matrix, x, ctx=ExecutionContext(policy=name))
            assert oracle.elapsed_ms <= fixed.elapsed_ms + 1e-12, name
        assert oracle.schedule in available_schedules()

    def test_deterministic(self, work):
        costs = spmv_costs(V100)
        picks = {OracleBestPolicy().select(work, V100, costs=costs)
                 for _ in range(3)}
        assert len(picks) == 1

    def test_empty_candidates_fail_loudly(self, work):
        with pytest.raises(PolicyError, match="no candidate"):
            OracleBestPolicy(candidates=("fictional",)).select(work, V100)

    def test_probe_costs_without_declared_costs(self, work):
        # Selection must still work before an app declares its costs.
        assert OracleBestPolicy().select(work, V100) in available_schedules()

    def test_probe_cache_keyed_by_schedule_options(self, work):
        """Regression: two runtimes sharing one plan cache but differing
        in schedule options must not answer each other's oracle probes
        (same geometry, different group_size => different plans)."""
        from repro.engine import PlanCache, Runtime, VectorEngine

        costs = spmv_costs(V100)
        eng = VectorEngine(plan_cache=PlanCache())
        rt_wide = Runtime(eng, policy=FixedPolicy("group_mapped"),
                          schedule_options={"group_size": 32})
        rt_narrow = Runtime(eng, policy=FixedPolicy("group_mapped"),
                            schedule_options={"group_size": 4})
        s_wide = rt_wide.schedule_for(work)
        s_narrow = rt_narrow.schedule_for(work)
        probe_wide = rt_wide._policy_planner()(s_wide, costs).elapsed_ms
        probe_narrow = rt_narrow._policy_planner()(s_narrow, costs).elapsed_ms
        assert probe_wide == s_wide.plan(costs).elapsed_ms
        assert probe_narrow == s_narrow.plan(costs).elapsed_ms
        assert probe_wide != probe_narrow


class TestSharedScheduleOptions:
    """One ``schedule_options`` set serves every schedule a policy may
    pick: each schedule gets only the options its constructor takes."""

    @pytest.fixture(scope="class")
    def skewed(self):
        return gen.power_law(4000, 4000, 8.0, seed=1)

    def _spmv(self, matrix, policy, **options):
        from repro.apps.spmv import spmv

        ctx = ExecutionContext(policy=policy, schedule_options=options)
        return spmv(matrix, input_vector(matrix.num_cols), ctx=ctx)

    def test_oracle_best_prices_every_candidate(self, skewed):
        # Regression: candidates that do not take group_size used to hit
        # a TypeError and be skipped, leaving only group_mapped.
        oracle = self._spmv(skewed, "oracle_best", group_size=8)
        assert oracle.schedule == "merge_path"
        for name in available_schedules():
            fixed = self._spmv(skewed, name, group_size=8)
            assert oracle.elapsed_ms <= fixed.elapsed_ms, name

    def test_heuristic_pick_ignores_foreign_option(self, skewed):
        picked = self._spmv(skewed, "heuristic", group_size=8)
        assert picked.schedule == "merge_path"
        assert picked.elapsed_ms == self._spmv(skewed, "merge_path").elapsed_ms

    def test_run_suite_cells_get_their_own_options(self):
        from repro.evaluation.harness import run_suite
        from repro.sparse.corpus import load_dataset

        ds = [load_dataset("tiny_power_256", "smoke")]
        ctx = ExecutionContext(schedule_options={"group_size": 8})
        rows = run_suite(["group_mapped", "thread_mapped"], datasets=ds, ctx=ctx)
        plain = run_suite(["thread_mapped"], datasets=ds)
        assert [r.kernel for r in rows] == ["group_mapped", "thread_mapped"]
        assert rows[1].elapsed == plain[0].elapsed

    def test_option_no_schedule_takes_still_raises(self, skewed):
        for policy in ("merge_path", "oracle_best"):
            with pytest.raises(TypeError, match="group_sise"):
                self._spmv(skewed, policy, group_sise=8)

    def test_make_schedule_stays_strict(self, work):
        with pytest.raises(TypeError):
            make_schedule("thread_mapped", work, V100, group_size=8)
