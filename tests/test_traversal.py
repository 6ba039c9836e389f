"""Tests for the frontier-traversal substrate."""

import numpy as np
import pytest

from repro.apps.traversal import advance_workspec, run_frontier_loop, traversal_costs
from repro.engine import ExecutionContext, KernelDecl
from repro.gpusim.arch import V100
from repro.sparse.csr import CsrMatrix
from repro.sparse.graph import CsrGraph, random_graph


class TestAdvanceWorkspec:
    def test_frontier_tiles_and_atoms(self):
        g = random_graph(50, 4.0, seed=1)
        frontier = np.array([3, 10, 20], dtype=np.int64)
        work = advance_workspec(g.out_degrees(), frontier)
        assert work.num_tiles == 3
        assert work.num_atoms == int(g.out_degrees()[frontier].sum())

    def test_empty_frontier(self):
        g = random_graph(10, 2.0, seed=2)
        work = advance_workspec(g.out_degrees(), np.array([], dtype=np.int64))
        assert work.num_tiles == 0 and work.num_atoms == 0


class TestTraversalCosts:
    def test_atomic_charged(self):
        costs = traversal_costs(V100)
        assert costs.atom_atomic
        assert costs.atom_total(V100) > costs.atom_cycles

    def test_no_tile_reduction(self):
        assert not traversal_costs(V100).tile_reduction


def frontier_loop(graph, source, relax, *, schedule="group_mapped", **kwargs):
    """Run ``relax(frontier, srcs, dsts, wts)`` as the advance kernel."""
    return run_frontier_loop(
        graph,
        source,
        KernelDecl("advance", relax),
        lambda iteration, *frontier_edges: frontier_edges,
        rt=ExecutionContext(policy=schedule).runtime(),
        **kwargs,
    )


class TestFrontierLoop:
    def test_visits_connected_component(self):
        g = random_graph(100, 4.0, seed=3)
        visited = np.zeros(100, dtype=bool)
        visited[0] = True

        def relax(frontier, srcs, dsts, wts):
            fresh = ~visited[dsts]
            visited[np.unique(dsts[fresh])] = True
            mask = np.zeros(100, dtype=bool)
            mask[np.unique(dsts[fresh])] = True
            return mask

        iters, stats = frontier_loop(g, 0, relax)
        # Matches a plain reachability computation.
        from repro.apps.bfs import bfs_reference

        expected = bfs_reference(g, 0) >= 0
        np.testing.assert_array_equal(visited, expected)
        assert stats.elapsed_ms > 0

    def test_one_launch_per_iteration(self):
        g = random_graph(80, 4.0, seed=4)

        def relax_once(frontier, srcs, dsts, wts):
            mask = np.zeros(80, dtype=bool)
            if len(frontier) == 1:  # expand only the first frontier
                mask[np.unique(dsts)] = True
            return mask

        iters, stats = frontier_loop(g, 0, relax_once)
        assert len(iters) == 2
        assert iters[0].frontier_size == 1
        assert iters[1].frontier_size >= 1
        assert stats.makespan_cycles > 2 * V100.costs.kernel_launch_cycles

    def test_max_iterations(self):
        g = random_graph(100, 5.0, seed=5)

        def relax_all(frontier, srcs, dsts, wts):
            mask = np.zeros(100, dtype=bool)
            mask[np.unique(dsts)] = True
            return mask  # never converges on its own

        iters, _ = frontier_loop(g, 0, relax_all, max_iterations=3)
        assert len(iters) == 3

    def test_isolated_source_single_iteration(self):
        csr = CsrMatrix.from_dense(np.zeros((4, 4)))
        g = CsrGraph(csr)
        iters, stats = frontier_loop(g, 2, lambda *a: np.zeros(4, dtype=bool))
        assert len(iters) <= 1
        assert stats.elapsed_ms > 0

    def test_bad_source(self):
        g = random_graph(5, 1.0, seed=6)
        with pytest.raises(ValueError, match="source"):
            frontier_loop(g, -1, lambda *a: np.zeros(5, dtype=bool))

    def test_schedule_names_respected(self):
        g = random_graph(60, 4.0, seed=7)

        def relax(frontier, srcs, dsts, wts):
            return np.zeros(60, dtype=bool)

        for sched in ("thread_mapped", "merge_path", "group_mapped"):
            iters, stats = frontier_loop(g, 0, relax, schedule=sched)
            assert iters[0].stats.extras["schedule"] == sched
