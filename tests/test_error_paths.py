"""Error-path and rarely-hit-branch coverage across the stack."""

import numpy as np
import pytest

from repro.apps.common import resolve_schedule, spmv_costs
from repro.core.schedule import LaunchParams, register_schedule
from repro.core.work import WorkSpec
from repro.evaluation.figures import fig2_overhead, fig4_heuristic
from repro.evaluation.harness import SweepRow
from repro.gpusim.arch import V100
from repro.gpusim.multi_gpu import multi_gpu_plan


class TestFigureErrorPaths:
    def test_fig2_no_common_datasets(self):
        rows = [
            SweepRow("merge_path", "a", 1, 1, 1, 1.0),
            SweepRow("cub", "b", 1, 1, 1, 1.0),
        ]
        with pytest.raises(ValueError, match="no common datasets"):
            fig2_overhead(rows=rows)

    def test_fig4_no_common_datasets(self):
        rows = [SweepRow("heuristic", "a", 1, 1, 1, 1.0)]
        with pytest.raises(ValueError, match="no common datasets"):
            fig4_heuristic(rows=rows)


class TestResolveSchedule:
    def test_heuristic_requires_matrix(self):
        work = WorkSpec.from_counts([1, 2])
        with pytest.raises(ValueError, match="requires the input matrix"):
            resolve_schedule("heuristic", work, V100)

    def test_prebuilt_schedule_passthrough(self):
        from repro.core.schedule import make_schedule

        work = WorkSpec.from_counts([1, 2])
        sched = make_schedule("merge_path", work, V100)
        assert resolve_schedule(sched, work, V100) is sched

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_schedule("merge_path")
            class Clash:  # pragma: no cover - never instantiated
                pass


class TestMultiGpuEdges:
    def test_more_devices_than_tiles(self):
        work = WorkSpec.from_counts([5, 5])
        plan = multi_gpu_plan(work, spmv_costs(V100), num_devices=8)
        # Empty shards are skipped; the work still completes.
        assert sum(a for a, _ in plan.shards) == work.num_atoms
        assert len(plan.device_stats) <= 8

    def test_empty_workload_rejected(self):
        work = WorkSpec.from_counts(np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty workload"):
            multi_gpu_plan(work, spmv_costs(V100), num_devices=2)


class TestLaunchParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LaunchParams(0, 32)
        with pytest.raises(ValueError):
            LaunchParams(1, 0)

    def test_num_threads(self):
        assert LaunchParams(3, 64).num_threads == 192


class TestHarnessValidationPath:
    def test_validation_catches_corrupted_kernel(self, monkeypatch):
        """Inject a wrong result into the harness: the --validate analog
        must catch it rather than emit a bogus row."""
        import importlib

        import repro.evaluation.harness as harness
        from repro.sparse.corpus import load_dataset

        # The package re-exports the function under the same name, so
        # fetch the module object itself to patch the callable.
        cub_mod = importlib.import_module("repro.baselines.cub_spmv")

        ds = load_dataset("tiny_diag_32", "smoke")
        real = cub_mod.cub_spmv

        def corrupted(matrix, x, spec):
            y, stats = real(matrix, x, spec)
            return y + 1.0, stats

        monkeypatch.setattr(cub_mod, "cub_spmv", corrupted)
        with pytest.raises(AssertionError, match="validation failed"):
            harness.run_cell("spmv", "cub", ds)
