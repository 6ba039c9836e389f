"""Tests for the graph applications: BFS, SSSP, PageRank, triangles."""

import numpy as np
import pytest

from repro.apps.bfs import bfs, bfs_reference
from repro.apps.pagerank import pagerank, pagerank_reference
from repro.apps.sssp import sssp, sssp_reference
from repro.apps.triangle_count import triangle_count, triangle_count_reference
from repro.engine import ExecutionContext
from repro.sparse import generators as gen
from repro.sparse.csr import CsrMatrix
from repro.sparse.graph import CsrGraph, random_graph


class TestSssp:
    @pytest.mark.parametrize(
        "schedule", ["group_mapped", "merge_path", "thread_mapped", "warp_mapped"]
    )
    def test_matches_dijkstra(self, schedule):
        g = random_graph(150, 5.0, seed=1)
        r = sssp(g, 0, ctx=ExecutionContext(policy=schedule))
        np.testing.assert_allclose(
            r.output, sssp_reference(g, 0), rtol=1e-12, equal_nan=True
        )

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = random_graph(100, 4.0, seed=2)
        r = sssp(g, 0)
        lengths = nx.single_source_dijkstra_path_length(g.to_networkx(), 0)
        for v in range(g.num_vertices):
            if v in lengths:
                assert r.output[v] == pytest.approx(lengths[v])
            else:
                assert np.isinf(r.output[v])

    def test_unreachable_is_inf(self):
        # Two disconnected vertices.
        csr = CsrMatrix.from_dense(np.zeros((3, 3)))
        r = sssp(CsrGraph(csr), 0)
        assert r.output[0] == 0.0
        assert np.isinf(r.output[1]) and np.isinf(r.output[2])

    def test_rejects_negative_weights(self):
        csr = CsrMatrix.from_dense(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            sssp(CsrGraph(csr), 0)

    def test_rejects_bad_source(self):
        g = random_graph(5, 1.0, seed=3)
        with pytest.raises(ValueError, match="source"):
            sssp(g, 99)

    def test_iterations_recorded(self):
        g = random_graph(200, 4.0, seed=4)
        r = sssp(g, 0)
        assert r.extras["iterations"] >= 1
        trace = r.extras["trace"]
        assert trace[0].frontier_size == 1  # starts from the source

    def test_max_iterations_caps_loop(self):
        g = random_graph(500, 3.0, seed=5)
        r = sssp(g, 0, max_iterations=2)
        assert r.extras["iterations"] <= 2


class TestBfs:
    @pytest.mark.parametrize("schedule", ["group_mapped", "merge_path"])
    def test_matches_queue_reference(self, schedule):
        g = random_graph(200, 4.0, seed=6)
        r = bfs(g, 3, ctx=ExecutionContext(policy=schedule))
        np.testing.assert_array_equal(r.output, bfs_reference(g, 3))

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = random_graph(120, 3.0, seed=7)
        r = bfs(g, 0)
        lengths = nx.single_source_shortest_path_length(g.to_networkx(), 0)
        for v in range(g.num_vertices):
            assert r.output[v] == lengths.get(v, -1)

    def test_source_depth_zero(self):
        g = random_graph(50, 3.0, seed=8)
        assert bfs(g, 7).output[7] == 0

    def test_bfs_depth_leq_sssp_hops(self):
        # With unit weights, SSSP distances equal BFS depths.
        g = random_graph(100, 4.0, seed=9)
        unit = CsrGraph(
            CsrMatrix.from_arrays(
                g.csr.row_offsets, g.csr.col_indices, np.ones(g.num_edges), g.csr.shape
            )
        )
        d_bfs = bfs(unit, 0).output.astype(float)
        d_sssp = sssp(unit, 0).output
        reachable = d_bfs >= 0
        np.testing.assert_allclose(d_bfs[reachable], d_sssp[reachable])


class TestPagerank:
    def test_matches_reference(self):
        m = gen.poisson_random(60, 60, 4.0, seed=10)
        r = pagerank(m)
        np.testing.assert_allclose(r.output, pagerank_reference(m), atol=1e-8)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.sparse.convert import coo_to_csr, csr_to_coo

        g = random_graph(80, 4.0, seed=11)
        # networkx.DiGraph collapses parallel edges, so compare on the
        # deduplicated graph (our CSR semantics is a multigraph).
        dedup = csr_to_coo(g.csr).sum_duplicates()
        import numpy as _np

        simple = coo_to_csr(
            type(dedup).from_arrays(
                dedup.rows, dedup.cols, _np.ones(dedup.nnz), dedup.shape
            )
        )
        r = pagerank(simple, damping=0.85, tol=1e-12)
        theirs = nx.pagerank(
            CsrGraph(simple).to_networkx(), alpha=0.85, tol=1e-10, max_iter=500,
            weight=None,
        )
        for v in range(80):
            assert r.output[v] == pytest.approx(theirs[v], abs=1e-6)

    def test_ranks_sum_to_one(self):
        m = gen.power_law(100, 100, 3.0, seed=12)
        r = pagerank(m)
        assert r.output.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            pagerank(gen.poisson_random(5, 6, 1.0, seed=13))
        with pytest.raises(ValueError, match="damping"):
            pagerank(gen.diagonal(5), damping=1.5)

    def test_stats_accumulate_iterations(self):
        m = gen.poisson_random(50, 50, 3.0, seed=14)
        r = pagerank(m)
        assert r.extras["iterations"] > 1
        from repro.gpusim.arch import V100

        assert (
            r.stats.makespan_cycles
            > r.extras["iterations"] * V100.costs.kernel_launch_cycles
        )


class TestTriangleCount:
    def test_known_triangle(self):
        dense = np.array(
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float
        )
        r = triangle_count(CsrMatrix.from_dense(dense))
        assert r.output == 1

    def test_known_two_triangles(self):
        # K4 minus one edge has 2 triangles.
        dense = np.ones((4, 4)) - np.eye(4)
        dense[0, 3] = dense[3, 0] = 0
        r = triangle_count(CsrMatrix.from_dense(dense))
        assert r.output == 2

    def test_matches_reference_random(self):
        m = gen.poisson_random(40, 40, 4.0, seed=15)
        assert triangle_count(m).output == triangle_count_reference(m)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = random_graph(60, 5.0, seed=16)
        r = triangle_count(g.csr)
        ung = g.to_networkx().to_undirected()
        ung.remove_edges_from(nx.selfloop_edges(ung))
        expected = sum(nx.triangles(ung).values()) // 3
        assert r.output == expected

    def test_triangle_free(self):
        m = gen.banded(20, 1, seed=17)  # tridiagonal path-like graph
        # A path graph (band 1 off-diagonals) has no triangles.
        assert triangle_count(m).output == 0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            triangle_count(gen.poisson_random(4, 5, 1.0, seed=18))
