"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (
    AMD_WARP64,
    TINY_GPU,
    V100,
    available_schedules,
    bfs,
    build_corpus,
    load_dataset,
    make_schedule,
    pagerank,
    random_graph,
    spgemm,
    spmm,
    spmv,
    sssp,
    triangle_count,
    WorkSpec,
)


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_from_docstring(self):
        dataset = load_dataset("power_a19", scale="smoke")
        x = np.ones(dataset.cols)
        result = spmv(dataset.matrix, x, schedule="merge_path")
        assert result.elapsed_ms > 0
        assert 0 <= result.stats.simt_efficiency <= 1


class TestCorpusToFiguresPipeline:
    def test_full_pipeline(self, tmp_path):
        from repro.evaluation import (
            fig2_overhead,
            fig4_heuristic,
            run_suite,
            write_csv,
        )

        datasets = build_corpus("smoke", limit=8)
        rows = run_suite(
            ["merge_path", "cub", "heuristic", "cusparse"], app="spmv",
            datasets=datasets,
        )
        path = write_csv(rows, tmp_path / "results.csv")
        assert path.exists()
        r2 = fig2_overhead(rows=rows)
        assert len(r2.slowdowns) == 8
        r4 = fig4_heuristic(rows=rows)
        assert len(r4.speedups) == 8


class TestEngineAgreement:
    """The SIMT interpreter and the vectorized path must produce identical
    functional results for every app (up to float association)."""

    @pytest.mark.parametrize("schedule", sorted(available_schedules()))
    def test_spmv_engines_agree(self, schedule):
        m = load_dataset("tiny_uniform_64", "smoke").matrix
        x = np.random.default_rng(2).uniform(size=m.num_cols)
        vec = spmv(m, x, schedule=schedule, spec=TINY_GPU, engine="vector")
        simt = spmv(m, x, schedule=schedule, spec=TINY_GPU, engine="simt")
        np.testing.assert_allclose(vec.output, simt.output, rtol=1e-9)

    def test_spmm_engines_agree(self):
        m = load_dataset("tiny_uniform_64", "smoke").matrix
        b = np.random.default_rng(3).uniform(size=(m.num_cols, 3))
        vec = spmm(m, b, schedule="merge_path", spec=TINY_GPU, engine="vector")
        simt = spmm(m, b, schedule="merge_path", spec=TINY_GPU, engine="simt")
        np.testing.assert_allclose(vec.output, simt.output, rtol=1e-9)


class TestCrossAppConsistency:
    def test_spmv_drives_pagerank(self):
        m = load_dataset("tiny_uniform_64", "smoke").matrix
        r = pagerank(m)
        assert r.output.sum() == pytest.approx(1.0)

    def test_sssp_bfs_triangles_on_same_graph(self):
        g = random_graph(150, 5.0, seed=20)
        d = sssp(g, 0)
        b = bfs(g, 0)
        t = triangle_count(g.csr)
        # Reachability agrees between SSSP and BFS.
        np.testing.assert_array_equal(np.isfinite(d.output), b.output >= 0)
        assert t.output >= 0

    def test_spgemm_squares_adjacency(self):
        m = load_dataset("tiny_uniform_64", "smoke").matrix
        r = spgemm(m, m)
        np.testing.assert_allclose(
            r.output.to_dense(), m.to_dense() @ m.to_dense(), rtol=1e-9
        )


class TestPortability:
    """Section 5.2.3: one-constant porting across SIMT widths."""

    @pytest.mark.parametrize("spec", [V100, AMD_WARP64, TINY_GPU], ids=lambda s: s.name)
    def test_all_schedules_all_specs(self, spec):
        m = load_dataset("tiny_power_256", "smoke").matrix
        x = np.ones(m.num_cols)
        expected = m.to_dense() @ x
        for name in available_schedules():
            r = spmv(m, x, schedule=name, spec=spec)
            np.testing.assert_allclose(r.output, expected, rtol=1e-9)

    def test_timings_differ_across_specs(self):
        m = load_dataset("small_power_1k", "smoke").matrix
        x = np.ones(m.num_cols)
        t_v100 = spmv(m, x, schedule="merge_path", spec=V100).elapsed_ms
        t_tiny = spmv(m, x, schedule="merge_path", spec=TINY_GPU).elapsed_ms
        assert t_tiny > t_v100  # a 2-SM GPU is slower than an 80-SM one


class TestUserOwnedKernel:
    """The paper's central API promise: a user writes their own kernel,
    consuming schedule ranges, without the framework owning the launch."""

    def test_custom_kernel_through_ranges(self):
        from repro.core.schedule import LaunchParams
        from repro.gpusim.simt import launch_interpreted

        m = load_dataset("tiny_uniform_64", "smoke").matrix
        work = WorkSpec.from_csr(m)
        launch = LaunchParams(grid_dim=4, block_dim=16)
        sched = make_schedule("thread_mapped", work, TINY_GPU, launch)
        row_nnz_squared = np.zeros(m.num_rows)

        def kernel(ctx):  # user-defined computation: sum of squares per row
            for row in sched.tiles(ctx):
                acc = 0.0
                for nz in sched.atoms(ctx, row):
                    acc += m.values[nz] ** 2
                row_nnz_squared[row] = acc

        launch_interpreted(kernel, launch.grid_dim, launch.block_dim, (), TINY_GPU)
        expected = np.zeros(m.num_rows)
        rows = np.repeat(np.arange(m.num_rows), m.row_lengths())
        np.add.at(expected, rows, m.values**2)
        np.testing.assert_allclose(row_nnz_squared, expected)
