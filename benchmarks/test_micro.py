"""Microbenchmarks: wall-clock cost of the library's own hot paths.

These measure the *Python implementation* (not the simulated GPU): the
merge-path partition search, schedule planning, corpus generation, the
SpMV executors, and the graph-app frontier loops.  They guard against
performance regressions in the vectorized code paths the harness relies
on (a corpus sweep runs hundreds of these per second).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bfs import bfs
from repro.apps.common import spmv_costs
from repro.apps.spmv import spmv, spmv_reference
from repro.apps.sssp import sssp
from repro.core.schedule import make_schedule
from repro.core.schedules.merge_path import merge_path_partition
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext
from repro.gpusim.arch import V100
from repro.gpusim.sm_scheduler import schedule_blocks
from repro.sparse import generators as gen
from repro.sparse.corpus import load_dataset
from repro.sparse.graph import random_graph


@pytest.fixture(scope="module")
def big_matrix():
    return gen.power_law(50_000, 50_000, 12.0, 1.9, seed=0)


class TestPartitionSearch:
    def test_merge_path_partition_1m_diagonals(self, benchmark, big_matrix):
        work = WorkSpec.from_csr(big_matrix)
        total = work.num_atoms + work.num_tiles
        diagonals = np.linspace(0, total, 100_000).astype(np.int64)
        out = benchmark(
            lambda: merge_path_partition(work.tile_offsets, work.num_atoms, diagonals)
        )
        assert out[0][-1] == work.num_tiles


class TestPlanners:
    @pytest.mark.parametrize(
        "name",
        ["thread_mapped", "warp_mapped", "group_mapped", "merge_path", "lrb"],
    )
    def test_plan_cost(self, benchmark, big_matrix, name):
        work = WorkSpec.from_csr(big_matrix)
        costs = spmv_costs(V100)

        def plan():
            return make_schedule(name, work, V100).plan(costs)

        stats = benchmark(plan)
        assert stats.elapsed_ms > 0


class TestExecutors:
    def test_spmv_reference_throughput(self, benchmark, big_matrix):
        x = np.random.default_rng(0).uniform(size=big_matrix.num_cols)
        y = benchmark(lambda: spmv_reference(big_matrix, x))
        assert y.shape == (big_matrix.num_rows,)

    def test_spmv_full_pipeline(self, benchmark, big_matrix):
        x = np.random.default_rng(0).uniform(size=big_matrix.num_cols)
        ctx = ExecutionContext(policy="merge_path")
        r = benchmark(lambda: spmv(big_matrix, x, ctx=ctx))
        assert r.elapsed_ms > 0

    def test_sm_scheduler_100k_blocks(self, benchmark):
        cycles = np.random.default_rng(1).uniform(100, 1000, size=100_000)
        out = benchmark(lambda: schedule_blocks(cycles, 256, V100))
        assert out.makespan_cycles > 0


class TestDataPaths:
    def test_corpus_dataset_build(self, benchmark):
        ds = benchmark(lambda: load_dataset("rmat_m", "standard"))
        assert ds.nnz > 0

    def test_csr_transpose(self, benchmark, big_matrix):
        t = benchmark(big_matrix.transpose)
        assert t.shape == (big_matrix.num_cols, big_matrix.num_rows)


class TestGraphApps:
    def test_sssp_wall_clock(self, benchmark):
        g = random_graph(20_000, 8.0, seed=2)
        r = benchmark.pedantic(lambda: sssp(g, 0), rounds=2, iterations=1)
        assert np.isfinite(r.output).sum() > 1

    def test_bfs_wall_clock(self, benchmark):
        g = random_graph(20_000, 8.0, seed=3)
        r = benchmark.pedantic(lambda: bfs(g, 0), rounds=2, iterations=1)
        assert (r.output >= 0).sum() > 1
