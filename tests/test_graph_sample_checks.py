"""Tests for the graph apps' independent sampled validation audits.

``AppSpec.sample_check`` for bfs/sssp/pagerank re-derives per-vertex
invariants straight from the raw CSR arrays -- a code path disjoint from
both the oracles (level-synchronous push BFS, heap Dijkstra, dense power
iteration) and the drivers; bfs's is a complete level certificate.
These tests pin that the audits accept correct outputs on every
sweepable dataset and reject corrupted ones, and that the sweep
``--validate`` path runs them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import DEFAULT_SEED, ExecutionContext, get_app, run_app
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen
from repro.sparse.corpus import build_corpus
from repro.sparse.csr import CsrMatrix
from repro.sparse.graph import CsrGraph

GRAPH_APPS = ("bfs", "sssp", "pagerank")


@pytest.fixture
def matrix():
    return gen.power_law(48, 48, 3.0, 1.8, seed=9)


class TestRegistration:
    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_graph_apps_declare_sample_check(self, app_name):
        assert get_app(app_name).sample_check is not None


class TestAcceptCorrectOutputs:
    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_output_passes(self, app_name, matrix, seed):
        app = get_app(app_name)
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        expected = app.oracle(problem)
        assert app.sample_check(problem, expected, seed)

    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_engine_output_passes(self, app_name, matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        result = run_app(app, problem, ctx=ExecutionContext(spec=TINY_GPU))
        assert app.sample_check(problem, result.output, 123)

    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_every_smoke_dataset_passes(self, app_name):
        """The audit must hold on every dataset the sweep will feed it."""
        app = get_app(app_name)
        for ds in build_corpus("smoke"):
            if app.accepts is not None and not app.accepts(ds.matrix):
                continue
            problem = app.sweep_problem(ds.matrix, DEFAULT_SEED)
            expected = app.oracle(problem)
            assert app.sample_check(problem, expected, 7), ds.name


class TestRejectCorruptedOutputs:
    def _corruptions(self, app_name, output, problem):
        n = output.shape[0]
        bad_shape = output[:-1].copy()
        if app_name == "bfs":
            off_by_one = output.copy()
            reached = np.nonzero(output > 0)[0]
            off_by_one[reached[0]] += 1
            zeroed = output.copy()
            zeroed[problem.source] = 1
            unreachable = np.nonzero(output == -1)[0]
            assert unreachable.size  # the fixture must have some
            given_depth = output.copy()
            given_depth[unreachable[0]] = int(output.max()) + 1
            lowered = output.copy()
            lowered[int(np.argmax(output))] -= 1
            below = output.copy()
            below[unreachable[0]] = -2
            return [bad_shape, off_by_one, zeroed, given_depth, lowered, below]
        if app_name == "sssp":
            scaled = output.copy()
            finite = np.isfinite(scaled) & (np.arange(n) != problem.source)
            scaled[np.nonzero(finite)[0][0]] *= 1.5
            negative = output.copy()
            negative[problem.source] = -1.0
            return [bad_shape, scaled, negative]
        # pagerank
        shifted = output.copy()
        shifted[0] += 0.05
        unnormalized = output * 2.0
        return [bad_shape, shifted, unnormalized]

    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_corruptions_rejected(self, app_name, matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        good = app.oracle(problem)
        for i, bad in enumerate(self._corruptions(app_name, good, problem)):
            rejected = not any(
                app.sample_check(problem, bad, seed) for seed in range(6)
            )
            assert rejected, f"{app_name} corruption #{i} escaped the audit"


class TestBfsCertificateConditions:
    """Corruptions that exactly one condition of bfs's level certificate
    catches, so dropping any one of them lets a wrong output through."""

    @pytest.mark.parametrize(
        "edges, n, bad",
        [
            # (b) bound: 0 -> 2 skips a level; (c) holds through 1.
            ([(0, 1), (1, 2), (0, 2)], 3, [0, 1, 2]),
            # (b) reach: a reached vertex's neighbour is left unreached.
            ([(0, 1)], 2, [0, -1]),
            # (c): unreachable vertices given depths consistent along
            # their own edge, with no walk back to the source.
            ([(1, 2)], 3, [0, 5, 6]),
        ],
        ids=["skipped_level", "unreached_neighbour", "detached_depths"],
    )
    def test_rejected(self, edges, n, bad):
        rows, cols = np.array(edges).T
        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        graph = CsrGraph(
            CsrMatrix.from_arrays(offsets, cols, np.ones(cols.size), (n, n))
        )
        problem = SimpleNamespace(graph=graph, source=0)
        app = get_app("bfs")
        assert app.sample_check(problem, app.oracle(problem), 0)
        assert not app.sample_check(problem, np.array(bad), 0)


class TestWiredIntoSweepValidate:
    def test_validate_runs_graph_audits(self, monkeypatch):
        """sweep --validate actually invokes the graph sample checks."""
        import dataclasses

        from repro.evaluation import harness

        calls = []
        app = get_app("bfs")
        real = app.sample_check

        def counting(problem, output, seed):
            calls.append(seed)
            return real(problem, output, seed)

        patched = dataclasses.replace(app, sample_check=counting)
        monkeypatch.setattr(harness, "get_app", lambda name: patched)
        harness.run_suite(
            ["group_mapped"], app="bfs", scale="smoke", limit=2, validate=True
        )
        assert calls

    @pytest.mark.parametrize("app_name, per_dataset", [("bfs", 1), ("sssp", 3)])
    def test_seed_free_certificate_runs_once_per_dataset(
        self, monkeypatch, app_name, per_dataset
    ):
        """bfs's certificate ignores its seed, so a vector sweep checks
        the shared output once per dataset; sssp's seeded sample runs
        for every kernel."""
        import dataclasses

        from repro.evaluation import harness

        calls = []
        app = get_app(app_name)
        real = app.sample_check

        def counting(problem, output, seed):
            calls.append(seed)
            return real(problem, output, seed)

        patched = dataclasses.replace(app, sample_check=counting)
        monkeypatch.setattr(harness, "get_app", lambda name: patched)
        rows = harness.run_suite(
            ["thread_mapped", "merge_path", "lrb"], app=app_name,
            scale="smoke", limit=2, validate=True,
        )
        datasets = {row.dataset for row in rows}
        assert len(rows) == 3 * len(datasets)
        assert len(calls) == per_dataset * len(datasets)

    def test_failing_audit_fails_the_cell(self, monkeypatch):
        import dataclasses

        from repro.evaluation import harness

        patched = dataclasses.replace(
            get_app("sssp"), sample_check=lambda *a: False
        )
        monkeypatch.setattr(harness, "get_app", lambda name: patched)
        with pytest.raises(AssertionError, match="sampled dense check failed"):
            harness.run_suite(
                ["group_mapped"], app="sssp", scale="smoke", limit=1,
                validate=True,
            )
