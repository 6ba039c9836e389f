"""Tests for the SchedulePolicy hierarchy (fixed/heuristic/oracle-best)."""

import pytest

from repro.apps.common import spmv_costs
from repro.core.heuristic import HeuristicParams, select_schedule
from repro.core.policy import (
    FixedPolicy,
    HeuristicPolicy,
    OracleBestPolicy,
    PolicyError,
    as_policy,
)
from repro.core.schedule import available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext, input_vector
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

    def test_heuristic_schedule_option_rejected(self):
        """``HeuristicPolicy(params)`` is the one spelling: the context
        takes no schedule options."""
        with pytest.raises(TypeError, match="schedule_options"):
            ExecutionContext(
                policy="heuristic",
                schedule_options={"heuristic": HeuristicParams(alpha=1, beta=1)},
            )


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
        """Regression: two group_mapped schedules differing only in
        group_size share geometry but not plans; each gets its own
        plan-cache entry and its own stats."""
        from repro.engine import PlanCache, Runtime, VectorEngine

        costs = spmv_costs(V100)
        cache = PlanCache()
        probe = Runtime(VectorEngine(plan_cache=cache))._policy_planner()
        wide = make_schedule("group_mapped", work, V100, group_size=32)
        narrow = make_schedule("group_mapped", work, V100, group_size=4)
        assert wide.launch == narrow.launch
        for sched in (wide, narrow, wide, narrow):
            assert probe(sched, costs).elapsed_ms == sched.plan(costs).elapsed_ms
        assert (cache.misses, cache.hits, cache.info()["size"]) == (2, 2, 2)
        assert probe(wide, costs).elapsed_ms != probe(narrow, costs).elapsed_ms


class TestSharedPlanEntries:
    """Plans depend only on the schedule and the costs, never on which
    policy picked the schedule."""

    @pytest.fixture(scope="class")
    def skewed(self):
        return gen.power_law(4000, 4000, 8.0, seed=1)

    def _spmv(self, matrix, policy, cache):
        from repro.apps.spmv import spmv
        from repro.engine import VectorEngine

        ctx = ExecutionContext(engine=VectorEngine(plan_cache=cache), policy=policy)
        return spmv(matrix, input_vector(matrix.num_cols), ctx=ctx)

    def test_heuristic_cell_hits_the_fixed_schedule_entry(self, skewed):
        from repro.engine import PlanCache

        cache = PlanCache()
        fixed = self._spmv(skewed, "merge_path", cache)
        assert (cache.misses, cache.hits) == (1, 0)
        picked = self._spmv(skewed, "heuristic", cache)
        assert picked.schedule == "merge_path"
        assert (cache.misses, cache.hits) == (1, 1)
        assert picked.elapsed_ms == fixed.elapsed_ms

    def test_oracle_best_launch_hits_its_winning_probe(self, skewed):
        from repro.engine import PlanCache

        cache = PlanCache()
        oracle = self._spmv(skewed, "oracle_best", cache)
        assert cache.misses == cache.info()["size"] >= 2  # one per probe
        assert cache.hits == 1  # the launch re-used the winner's probe
        fixed = self._spmv(skewed, oracle.schedule, PlanCache())
        assert oracle.elapsed_ms == fixed.elapsed_ms
