"""Tests for the graph applications: BFS, SSSP, PageRank, triangles."""

import importlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from repro.apps.bfs import bfs, bfs_reference
from repro.apps.pagerank import pagerank, pagerank_reference
from repro.apps.sssp import sssp, sssp_reference
from repro.apps.triangle_count import triangle_count, triangle_count_reference
from repro.engine import ExecutionContext
from repro.evaluation.harness import expand_datasets, run_suite
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import CooMatrix
from repro.sparse.corpus import Dataset
from repro.sparse.csr import CsrMatrix
from repro.sparse.graph import CsrGraph, random_graph

# The module, not the same-named function ``repro.apps`` re-exports.
tc_module = importlib.import_module("repro.apps.triangle_count")


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

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_one(self, max_iter):
        import repro

        m = gen.power_law(20, 20, 3.0, seed=12)
        with pytest.raises(ValueError, match="max_iter"):
            repro.pagerank(m, max_iter=max_iter)
        assert repro.pagerank(m, max_iter=1).extras["iterations"] == 1

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


def _stored_edges(adjacency):
    """Undirected off-diagonal edges of the stored pattern (values ignored)."""
    coo = csr_to_coo(adjacency)
    return {
        (min(r, c), max(r, c))
        for r, c in zip(coo.rows.tolist(), coo.cols.tolist())
        if r != c
    }


def _brute_force_triangles(adjacency):
    edges = _stored_edges(adjacency)
    return sum(
        1
        for u, v, w in combinations(range(adjacency.num_rows), 3)
        if (u, v) in edges and (v, w) in edges and (u, w) in edges
    )


def _dense_trace_triangles(adjacency):
    """The dense ``tr(A^3) / 6`` formula over the structural pattern."""
    d = np.zeros(adjacency.shape)
    for u, v in _stored_edges(adjacency):
        d[u, v] = d[v, u] = 1.0
    return int(round(np.trace(d @ d @ d) / 6.0))


def _messy_graph(n, seed):
    """Directed random pattern with self-loops, duplicates, explicit zeros
    and empty rows (only every other vertex stores out-edges)."""
    rng = np.random.default_rng(seed)
    m = 3 * n
    rows = 2 * rng.integers(0, (n + 1) // 2, size=m)
    cols = rng.integers(0, n, size=m)
    loops = rng.integers(0, n, size=max(1, n // 4))
    rows = np.concatenate([rows, loops, rows[: m // 4]])
    cols = np.concatenate([cols, loops, cols[: m // 4]])
    values = rng.choice([0.0, 1.0, -2.5], size=rows.size)
    return coo_to_csr(CooMatrix.from_arrays(rows, cols, values, (n, n)))


def _three_cycle_upper(values):
    """3-cycle stored upper-only: (0,1), (0,2), then (1,2) per value."""
    rows = np.array([0, 0] + [1] * len(values))
    cols = np.array([1, 2] + [2] * len(values))
    vals = np.array([1.0, 1.0] + list(values))
    return coo_to_csr(CooMatrix.from_arrays(rows, cols, vals, (3, 3)))


class TestTriangleOracle:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65])
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_formulas_and_engines(self, n, seed):
        matrix = _messy_graph(n, seed)
        expected = triangle_count_reference(matrix)
        if n <= 20:
            assert expected == _brute_force_triangles(matrix)
        else:
            assert expected == _dense_trace_triangles(matrix)
        vector = triangle_count(matrix, ctx=ExecutionContext(engine="vector"))
        simt = triangle_count(
            matrix, ctx=ExecutionContext(engine="simt", spec=TINY_GPU)
        )
        assert vector.output == simt.output == expected

    @pytest.mark.parametrize("n", [0, 1, 9, 64])
    def test_no_stored_entries(self, n):
        matrix = CsrMatrix.empty((n, n))
        assert triangle_count_reference(matrix) == 0
        assert triangle_count(matrix).output == 0

    @pytest.mark.parametrize(
        "values", [[0.0], [1.0, -1.0]], ids=["explicit_zero", "cancelling"]
    )
    def test_edge_is_stored_entry_whatever_its_value(self, values):
        matrix = _three_cycle_upper(values)
        assert triangle_count_reference(matrix) == 1
        assert triangle_count(matrix).output == 1
        # A validated sweep over such a matrix used to raise.
        dataset = Dataset("three_cycle", "test", matrix)
        rows = run_suite(
            ["lrb", "merge_path"], app="triangle_count", datasets=[dataset]
        )
        assert len(rows) == 2

    def test_independent_of_the_code_it_validates(self, monkeypatch):
        matrix = gen.power_law(48, 48, 5.0, 1.8, seed=2)
        expected = triangle_count(matrix).output

        def forbidden(*args, **kwargs):
            raise AssertionError("oracle reached the validated code")

        for name in (
            "_triangle_problem",
            "_upper_triangle",
            "_triangle_count_arrays",
            "_triangle_count_scalar",
        ):
            monkeypatch.setattr(tc_module, name, forbidden)
        assert tc_module.triangle_count_reference(matrix) == expected

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries_match_brute_force(self, n):
        """Rows one word wide, exactly full, and spilling into the next:
        dense enough that the last vertices close triangles too."""
        rng = np.random.default_rng(n)
        rows = rng.integers(0, n, size=n * n // 5)
        cols = rng.integers(0, n, size=rows.size)
        rows = np.concatenate([rows, [n - 1, n - 2, n - 1, 0]])
        cols = np.concatenate([cols, [n - 2, 0, 0, n - 1]])
        values = rng.choice([0.0, 1.0], size=rows.size)
        matrix = coo_to_csr(CooMatrix.from_arrays(rows, cols, values, (n, n)))
        expected = _brute_force_triangles(matrix)
        assert expected > 0
        assert triangle_count_reference(matrix) == expected

    def test_memory_stays_sparse(self):
        matrix = gen.poisson_random(8195, 8195, 8.0, seed=3)
        expected = triangle_count(matrix).output
        tracemalloc.start()
        try:
            got = triangle_count_reference(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        # A dense n x n float64 copy alone would be ~0.5 GB.
        assert peak < 64 * 2**20


def _triangle_args(adjacency):
    """The kernel's flat arguments: the symmetrized upper triangle."""
    upper = tc_module._triangle_problem(adjacency).upper
    return upper.row_offsets, upper.col_indices, upper.num_rows, upper.num_cols


def _complete(n):
    return CsrMatrix.from_dense(np.ones((n, n)) - np.eye(n))


def _star(n, rim_edge=False):
    """Vertex 0 joined to every other vertex; ``rim_edge`` adds (1, 2)."""
    rows = np.concatenate([np.zeros(n - 1, dtype=np.int64), [1] * rim_edge])
    cols = np.concatenate([np.arange(1, n), [2] * rim_edge])
    return coo_to_csr(
        CooMatrix.from_arrays(rows, cols, np.ones(rows.size), (n, n))
    )


def _self_loops_only(n):
    """Every stored entry on the diagonal: an empty upper triangle."""
    diag = np.arange(n)
    return coo_to_csr(CooMatrix.from_arrays(diag, diag, np.ones(n), (n, n)))


_ADVERSARIAL = {
    "n0": CsrMatrix.empty((0, 0)),
    **{f"messy_n{n}": _messy_graph(n, seed=n) for n in (1, 2, 31, 32, 33)},
    "k40": _complete(40),
    "star": _star(33),
    "star_one_rim_edge": _star(33, rim_edge=True),
    "duplicates_zeros_loops": _messy_graph(40, seed=7),
    "explicit_zero_cycle": _three_cycle_upper([0.0]),
    "empty_upper": _self_loops_only(33),
}


def _both_directions(n, seed):
    """A messy graph plus its transpose: every edge stored both ways,
    some of them twice, with the self-loops and zeros kept."""
    coo = csr_to_coo(_messy_graph(n, seed))
    return coo_to_csr(CooMatrix.from_arrays(
        np.concatenate([coo.rows, coo.cols]),
        np.concatenate([coo.cols, coo.rows]),
        np.concatenate([coo.values, coo.values]),
        (n, n),
    ))


def _two_step_upper(adjacency):
    """Reference for ``_upper_triangle``'s one pass, in two steps:
    symmetrize and binarize through ``sum_duplicates`` and ``coo_to_csr``,
    then keep the strict upper triangle."""
    coo = csr_to_coo(adjacency)
    keep = coo.rows != coo.cols
    rows = np.concatenate([coo.rows[keep], coo.cols[keep]])
    cols = np.concatenate([coo.cols[keep], coo.rows[keep]])
    sym = CooMatrix.from_arrays(
        rows, cols, np.ones(rows.size), adjacency.shape
    ).sum_duplicates()
    upper = sym.cols > sym.rows
    return coo_to_csr(CooMatrix.from_arrays(
        sym.rows[upper], sym.cols[upper], np.ones(int(upper.sum())), sym.shape
    ))


@pytest.mark.parametrize(
    "matrix",
    [*_ADVERSARIAL.values(), _both_directions(2, 1), _both_directions(45, 4)],
    ids=[*_ADVERSARIAL, "both_directions_n2", "both_directions_n45"],
)
def test_one_pass_upper_equals_two_step_construction(matrix):
    got, want = tc_module._upper_triangle(matrix), _two_step_upper(matrix)
    for field in ("row_offsets", "col_indices", "values"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.shape == want.shape


class TestTriangleKernel:
    """The block-bitmap kernel against the two-pointer scalar kernel and
    the bitset oracle, on every block and chunk shape."""

    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    @pytest.mark.parametrize(
        "block_bytes, chunk",
        [(1 << 18, 1 << 16), (64, 5), (1, 1)],
        ids=["default", "multi_block", "row_per_block_edge_per_chunk"],
    )
    def test_kernels_agree_with_oracle(self, monkeypatch, name, block_bytes,
                                       chunk):
        monkeypatch.setattr(tc_module, "_MARK_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(tc_module, "_WEDGE_CHUNK", chunk)
        adjacency = _ADVERSARIAL[name]
        args = _triangle_args(adjacency)
        expected = triangle_count_reference(adjacency)
        assert tc_module._triangle_count_arrays(*args) == expected
        assert tc_module._triangle_count_scalar(*args) == expected

    def test_known_counts(self):
        assert triangle_count_reference(_ADVERSARIAL["k40"]) == 40 * 39 * 38 // 6
        assert triangle_count_reference(_ADVERSARIAL["star"]) == 0
        assert triangle_count_reference(_ADVERSARIAL["star_one_rim_edge"]) == 1
        assert triangle_count_reference(_ADVERSARIAL["empty_upper"]) == 0

    def test_scratch_is_bounded(self):
        [dataset] = expand_datasets(
            "triangle_count", scale="smoke", names=["rmat_m"]
        )
        args = _triangle_args(dataset.matrix)
        expected = triangle_count_reference(dataset.matrix)
        tracemalloc.start()
        try:
            got = tc_module._triangle_count_arrays(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        # The 256 KiB mark block, three int64 temporaries per wedge of a
        # 2**16-wedge chunk (1.5 MiB) and ~18k edges' counts and bounds
        # measure 2.25 MiB; a 2 MiB block or 2**18-wedge chunks exceed 3.
        assert peak < 3 * 2**20


def _queue_bfs(graph, source):
    """Brute-force BFS: the textbook queue, one edge at a time."""
    from collections import deque

    csr = graph.csr
    depth = np.full(graph.num_vertices, -1, dtype=np.int64)
    depth[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in csr.col_indices[csr.row_offsets[u]:csr.row_offsets[u + 1]]:
            if depth[v] == -1:
                depth[v] = depth[u] + 1
                queue.append(int(v))
    return depth


def _edge_graph(n, rows, cols):
    """A CSR graph keeping every edge as given: duplicates, self-loops
    and unsorted neighbour lists stay."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return CsrGraph(
        CsrMatrix.from_arrays(offsets, cols[order], np.ones(rows.size), (n, n))
    )


def _split_graph(n, seed, isolated=None):
    """Two halves with no edge between them, random edges inside each
    plus self-loops and repeated edges; ``isolated`` stores no out-edge."""
    rng = np.random.default_rng(seed)
    half = max(1, n // 2)
    rows = rng.integers(0, n, size=3 * n)
    low = rows < half
    cols = np.where(
        low, rng.integers(0, half, size=rows.size),
        rng.integers(half, max(n, half + 1), size=rows.size) % n,
    )
    loops = rng.integers(0, n, size=max(1, n // 4))
    rows = np.concatenate([rows, loops, rows[: n // 2]])
    cols = np.concatenate([cols, loops, cols[: n // 2]])
    keep = rows != isolated
    return _edge_graph(n, rows[keep], cols[keep])


bfs_module = importlib.import_module("repro.apps.bfs")
traversal_module = importlib.import_module("repro.apps.traversal")


class TestBfsOracle:
    def test_matches_queue_bfs_on_smoke_corpus(self):
        from repro.engine import DEFAULT_SEED, get_app
        from repro.sparse.corpus import build_corpus

        app = get_app("bfs")
        for dataset in build_corpus("smoke"):
            if not app.accepts(dataset.matrix):
                continue
            problem = app.sweep_problem(dataset.matrix, DEFAULT_SEED)
            np.testing.assert_array_equal(
                bfs_reference(problem.graph, problem.source),
                _queue_bfs(problem.graph, problem.source),
                err_msg=dataset.name,
            )

    def test_long_path(self):
        n = 1500
        graph = _edge_graph(n, np.arange(n - 1), np.arange(1, n))
        expected = np.arange(n)
        np.testing.assert_array_equal(_queue_bfs(graph, 0), expected)
        np.testing.assert_array_equal(bfs_reference(graph, 0), expected)
        # From the far end nothing else is reachable.
        tail = bfs_reference(graph, n - 1)
        assert tail[-1] == 0 and np.all(tail[:-1] == -1)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33])
    @pytest.mark.parametrize("where", ["first", "last", "isolated"])
    def test_messy_graphs_match_queue_bfs(self, n, where):
        source = {"first": 0, "last": n - 1, "isolated": n // 2}[where]
        graph = _split_graph(
            n, seed=n, isolated=source if where == "isolated" else None
        )
        depth = bfs_reference(graph, source)
        np.testing.assert_array_equal(depth, _queue_bfs(graph, source))
        assert depth.dtype == np.int64
        if where == "isolated":
            assert np.count_nonzero(depth != -1) == 1

    def test_independent_of_the_code_it_validates(self, monkeypatch):
        graph = random_graph(300, 3.0, seed=4)
        expected = bfs(graph, 5).output

        def forbidden(*args, **kwargs):
            raise AssertionError("oracle reached the validated code")

        for module, name in (
            (traversal_module, "run_frontier_loop"),
            (traversal_module, "advance_workspec"),
            (bfs_module, "run_frontier_loop"),
            (bfs_module, "_bfs_relax_arrays"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        with pytest.raises(AssertionError):
            bfs(graph, 5)  # the traversal really is gone
        np.testing.assert_array_equal(bfs_module.bfs_reference(graph, 5), expected)


def _dense_pagerank(adjacency, damping=0.85, tol=1e-10, max_iter=200):
    """The dense power iteration the sparse oracle replaced."""
    n = adjacency.num_rows
    coo = csr_to_coo(adjacency)
    out_deg = np.bincount(coo.rows, minlength=n)
    pull = np.zeros((n, n))
    np.add.at(pull, (coo.cols, coo.rows), 1.0 / out_deg[coo.rows])
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new = damping * (pull @ rank + rank[dangling].sum() / n) + (1 - damping) / n
        if np.abs(new - rank).sum() < tol:
            return new
        rank = new
    return rank


pr_module = importlib.import_module("repro.apps.pagerank")


class TestPagerankOracle:
    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    @pytest.mark.parametrize(
        "tol, max_iter", [(1e-10, 200), (1e-8, 100), (0.0, 3)],
        ids=["default", "sweep", "capped"],
    )
    def test_matches_dense_iteration(self, n, tol, max_iter):
        # Past n = 1, every other vertex stores no out-edges (dangling);
        # duplicates, self-loops and explicit zeros throughout.
        adjacency = _messy_graph(n, seed=n)
        assert n == 1 or np.any(adjacency.row_lengths() == 0)
        np.testing.assert_allclose(
            pagerank_reference(adjacency, 0.85, tol, max_iter),
            _dense_pagerank(adjacency, 0.85, tol, max_iter),
            rtol=1e-12, atol=1e-15,
        )

    def test_independent_of_the_code_it_validates(self, monkeypatch):
        matrix = _messy_graph(40, seed=3)
        expected = pagerank(matrix).output

        def forbidden(*args, **kwargs):
            raise AssertionError("oracle reached the validated code")

        for name in ("_pull_matrix", "csr_transpose", "spmv_driver", "SPMV_DECL"):
            monkeypatch.setattr(pr_module, name, forbidden)
        np.testing.assert_allclose(
            pr_module.pagerank_reference(matrix), expected, atol=1e-8
        )

    def test_memory_stays_sparse(self):
        matrix = gen.poisson_random(32000, 32000, 8.0, seed=5)
        tracemalloc.start()
        try:
            rank = pagerank_reference(matrix, 0.85, 1e-8, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank.sum() == pytest.approx(1.0)
        # The dense pull matrix alone would be 7.63 GiB.
        assert peak < 64 * 2**20
