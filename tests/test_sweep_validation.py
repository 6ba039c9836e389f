"""Tests for the independent sampled validation and the vectorized apps.

Two concerns share this module because they guard the same risk -- a
vectorized fast path silently diverging from what it is supposed to
compute:

* ``AppSpec.sample_check`` must accept every correct sweep output and
  reject corrupted ones (it is the harness's *second* oracle, derived
  through a different code path than the reference functions);
* the vectorized ``compute()`` rewrites (triangle counting's
  searchsorted intersection, SpGEMM's hashed SIMT accumulator) must stay
  pinned to the per-thread SIMT ground truth and brute-force references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutionContext, available_apps, get_app
from repro.evaluation.harness import run_cell, run_suite
from repro.sparse import generators as gen
from repro.sparse.corpus import load_dataset

SAMPLED_APPS = ("spmv", "spmm", "spmttkrp", "histogram")


class TestOracleMemory:
    """Every oracle runs in bounded memory on the smoke problems with the
    most intermediate spgemm products (4.1M for ``uniform_128``)."""

    @pytest.mark.parametrize("app", available_apps())
    @pytest.mark.parametrize("name", ["uniform_128", "blockdiag_64"])
    def test_peak_under_32_mib(self, app, name):
        import tracemalloc

        spec = get_app(app)
        problem = spec.sweep_problem(load_dataset(name, "smoke").matrix, 0)
        tracemalloc.start()
        try:
            spec.oracle(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"{app} oracle peaked at {peak / 2**20:.1f} MiB"


class TestSampleChecks:
    @pytest.mark.parametrize("app_name", SAMPLED_APPS)
    def test_registered_for_vector_path_apps(self, app_name):
        assert get_app(app_name).sample_check is not None

    @pytest.mark.parametrize("app_name", SAMPLED_APPS)
    def test_accepts_correct_output(self, app_name):
        ds = load_dataset("tiny_power_256", "smoke")
        row = run_cell(app_name, "merge_path", ds)  # validate=True throughout
        assert row.elapsed > 0

    @pytest.mark.parametrize("app_name", SAMPLED_APPS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deterministic_given_seed(self, app_name, seed):
        app = get_app(app_name)
        matrix = gen.power_law(40, 40, 4.0, 1.9, seed=11)
        problem = app.sweep_problem(matrix, 0)
        output = app.oracle(problem)
        assert app.sample_check(problem, output, seed)
        assert app.sample_check(problem, output, seed)

    @pytest.mark.parametrize("app_name", ("spmv", "spmm", "spmttkrp"))
    def test_rejects_corrupted_output(self, app_name):
        app = get_app(app_name)
        matrix = gen.power_law(40, 40, 4.0, 1.9, seed=11)
        problem = app.sweep_problem(matrix, 0)
        output = np.array(app.oracle(problem), dtype=np.float64, copy=True)
        # Corrupt every entry: any sampled position must catch it.
        corrupted = output + 1.0
        assert not app.sample_check(problem, corrupted, seed=0)

    def test_histogram_rejects_corrupted_output(self):
        app = get_app("histogram")
        matrix = gen.power_law(40, 40, 4.0, 1.9, seed=11)
        problem = app.sweep_problem(matrix, 0)
        output = app.oracle(problem).copy()
        output += 1
        assert not app.sample_check(problem, output, seed=0)

    def test_rejects_wrong_shape(self):
        app = get_app("spmv")
        matrix = gen.uniform_random(16, 16, 3, seed=1)
        problem = app.sweep_problem(matrix, 0)
        assert not app.sample_check(problem, np.zeros(3), seed=0)

    @pytest.mark.parametrize("app_name", ("spmv", "spmm", "spmttkrp"))
    def test_degenerate_empty_problem_passes(self, app_name):
        """Nothing to sample must read as valid, never raise."""
        from repro.sparse.csr import CsrMatrix

        app = get_app(app_name)
        empty = CsrMatrix.empty((0, 0))
        problem = app.sweep_problem(empty, 0)
        output = app.oracle(problem)
        assert app.sample_check(problem, output, seed=0)

    def test_harness_runs_sample_checks(self, monkeypatch):
        """The harness must invoke the sampled check iff validating."""
        import dataclasses

        from repro.engine import registry

        app = get_app("spmv")
        real = app.sample_check
        calls = {"n": 0}

        def counting(problem, output, seed, samples=8):
            calls["n"] += 1
            return real(problem, output, seed, samples)

        # AppSpec is frozen; swap a counting clone into the registry.
        monkeypatch.setitem(
            registry._APPS, "spmv", dataclasses.replace(app, sample_check=counting)
        )
        ds = load_dataset("tiny_diag_32", "smoke")
        run_cell("spmv", "merge_path", ds)
        assert calls["n"] == 1

        # With validation off the sampled check must not run.
        run_cell("spmv", "merge_path", ds, validate=False)
        assert calls["n"] == 1

    def test_sample_check_failure_raises_assertion(self, monkeypatch):
        import dataclasses

        from repro.engine import registry

        app = get_app("spmv")
        monkeypatch.setitem(
            registry._APPS,
            "spmv",
            dataclasses.replace(
                app, sample_check=lambda problem, output, seed: False
            ),
        )
        ds = load_dataset("tiny_diag_32", "smoke")
        with pytest.raises(AssertionError, match="sampled dense check"):
            run_cell("spmv", "merge_path", ds)


class TestVectorizedTriangleCount:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_and_simt(self, seed):
        from repro.apps.triangle_count import (
            triangle_count,
            triangle_count_reference,
        )

        matrix = gen.power_law(24, 24, 4.0, 1.9, seed=seed)
        expected = triangle_count_reference(matrix)
        vector = triangle_count(matrix, ctx=ExecutionContext(engine="vector")).output
        simt = triangle_count(matrix, ctx=ExecutionContext(engine="simt")).output
        assert vector == expected == simt

    def test_matches_brute_force(self):
        from itertools import combinations

        from repro.apps.triangle_count import triangle_count

        rng = np.random.default_rng(4)
        n = 14
        dense = (rng.random((n, n)) < 0.3).astype(float)
        dense = np.maximum(dense, dense.T)
        np.fill_diagonal(dense, 0.0)
        from repro.sparse.csr import CsrMatrix

        matrix = CsrMatrix.from_dense(dense)
        brute = sum(
            1
            for u, v, w in combinations(range(n), 3)
            if dense[u, v] and dense[v, w] and dense[u, w]
        )
        assert triangle_count(matrix).output == brute

    def test_upper_triangle_vectorized_semantics(self):
        from repro.apps.triangle_count import _symmetrized, _upper_triangle

        matrix = gen.power_law(30, 30, 5.0, 1.8, seed=9)
        upper = _upper_triangle(_symmetrized(matrix))
        rows = np.repeat(
            np.arange(upper.num_rows, dtype=np.int64), upper.row_lengths()
        )
        assert (upper.col_indices > rows).all()  # strictly upper
        # Sorted-unique per row: the invariant the intersections rely on.
        for u in range(upper.num_rows):
            cols, _ = upper.row_slice(u)
            assert (np.diff(cols) > 0).all()

    def test_triangle_free_and_empty_graphs(self):
        from repro.apps.triangle_count import triangle_count
        from repro.sparse.csr import CsrMatrix

        # A 4-cycle has no triangles.
        cycle = np.zeros((4, 4))
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            cycle[u, v] = cycle[v, u] = 1.0
        assert triangle_count(CsrMatrix.from_dense(cycle)).output == 0
        assert triangle_count(CsrMatrix.from_dense(np.zeros((3, 3)))).output == 0


class TestHashedSpgemmAccumulator:
    @pytest.mark.parametrize("seed", range(3))
    def test_simt_matches_vector_and_reference(self, seed):
        from repro.apps.spgemm import spgemm, spgemm_reference

        a = gen.power_law(16, 16, 3.0, 1.9, seed=seed)
        ref = spgemm_reference(a, a).to_dense()
        vec = spgemm(a, a, ctx=ExecutionContext(engine="vector")).output.to_dense()
        simt = spgemm(a, a, ctx=ExecutionContext(engine="simt")).output.to_dense()
        np.testing.assert_allclose(vec, ref)
        np.testing.assert_allclose(simt, ref)

    def test_no_dense_scratch_allocation(self):
        """The compute pass must not allocate O(rows * cols) scratch."""
        from repro.apps.spgemm import spgemm_driver

        src = open(spgemm_driver.__code__.co_filename).read()
        assert "np.zeros((a.num_rows, b.num_cols))" not in src.split(
            "def compute_kernel"
        )[1].split("def finalize")[0]


class TestSweptParity:
    """Cross-engine parity through the harness for every vectorized app."""

    @pytest.mark.parametrize(
        "app_name",
        [a for a in ("spmv", "spmm", "histogram", "triangle_count", "spgemm")],
    )
    def test_vector_and_simt_rows_agree(self, app_name):
        assert app_name in available_apps()
        ds = [load_dataset("tiny_uniform_64", "smoke")]
        vec = run_suite(["thread_mapped"], app=app_name, datasets=ds,
                        ctx=ExecutionContext(engine="vector"))
        simt = run_suite(["thread_mapped"], app=app_name, datasets=ds,
                         ctx=ExecutionContext(engine="simt"))
        assert [r.dataset for r in vec] == [r.dataset for r in simt]
