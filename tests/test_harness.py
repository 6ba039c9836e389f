"""Tests for the experiment harness."""

import csv

import pytest

from repro.evaluation.harness import (
    SPMV_KERNELS,
    run_cell,
    run_suite,
    write_csv,
)
from repro.sparse.corpus import load_dataset


class TestRunKernel:
    @pytest.mark.parametrize("kernel", SPMV_KERNELS)
    def test_every_kernel_runs_and_validates(self, kernel):
        ds = load_dataset("tiny_power_256", "smoke")
        row = run_cell("spmv", kernel, ds)
        assert row.kernel == kernel
        assert row.dataset == ds.name
        assert row.rows == ds.rows and row.cols == ds.cols and row.nnzs == ds.nnz
        assert row.elapsed > 0
        assert 0 <= row.meta["simt_efficiency"] <= 1

    def test_unknown_kernel(self):
        ds = load_dataset("tiny_diag_32", "smoke")
        with pytest.raises(KeyError, match="unknown kernel"):
            run_cell("spmv", "fictional", ds)

    def test_heuristic_records_choice(self):
        ds = load_dataset("tiny_uniform_64", "smoke")
        row = run_cell("spmv", "heuristic", ds)
        assert row.meta["schedule"] in {
            "thread_mapped",
            "group_mapped",
            "merge_path",
        }

    @pytest.mark.parametrize("baseline", ["cub", "cusparse"])
    def test_baseline_rows_record_schedule_uniformly(self, baseline):
        """Regression: baseline rows lacked the ``schedule`` extras key
        that policy/schedule rows carry, forcing consumers to
        special-case the kernel class."""
        ds = load_dataset("tiny_power_256", "smoke")
        row = run_cell("spmv", baseline, ds)
        assert row.meta["schedule"] == baseline


class TestContextSelection:
    """ctx= is the one execution selection on run_cell and run_suite."""

    def test_run_cell_and_run_suite_agree_under_ctx(self):
        from repro.engine import ExecutionContext
        from repro.gpusim.arch import get_spec

        ds = load_dataset("tiny_power_256", "smoke")
        ctx = ExecutionContext(spec=get_spec("AMD-WARP64"))
        cell = run_cell("spmv", "merge_path", ds, ctx=ctx)
        suite = run_suite(["merge_path"], datasets=[ds], ctx=ctx)
        assert [cell.elapsed] == [r.elapsed for r in suite]

    def test_loose_selection_kwargs_rejected(self):
        from repro.gpusim.arch import V100

        ds = load_dataset("tiny_diag_32", "smoke")
        with pytest.raises(TypeError):
            run_cell("spmv", "merge_path", ds, spec=V100)
        with pytest.raises(TypeError):
            run_suite(["merge_path"], datasets=[ds], engine="vector")


class TestRemovedAliases:
    """Deprecated spellings are gone, so nothing can route around ctx=."""

    @pytest.mark.parametrize("module, name", [
        ("repro.evaluation", "SpmvRow"),
        ("repro.evaluation", "run_spmv_kernel"),
        ("repro.evaluation", "run_spmv_suite"),
        ("repro.engine.worker_pool", "SharedDatasetHandle"),
        ("repro.apps.common", "ENGINES"),
        ("repro.engine", "ENGINES"),
    ])
    def test_alias_is_gone(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)


class TestSuite:
    def test_limit_and_kernel_grid(self):
        rows = run_suite(["merge_path", "cub"], scale="smoke", limit=4)
        assert len(rows) == 8
        assert {r.kernel for r in rows} == {"merge_path", "cub"}

    def test_explicit_datasets(self):
        ds = [load_dataset("tiny_diag_32", "smoke")]
        rows = run_suite(["cusparse"], datasets=ds)
        assert len(rows) == 1

    def test_deterministic(self):
        a = run_suite(["merge_path"], scale="smoke", limit=3)
        b = run_suite(["merge_path"], scale="smoke", limit=3)
        assert [(r.dataset, r.elapsed) for r in a] == [
            (r.dataset, r.elapsed) for r in b
        ]


class TestCsv:
    def test_paper_schema(self, tmp_path):
        rows = run_suite(["merge_path"], scale="smoke", limit=3)
        path = write_csv(rows, tmp_path / "out" / "results.csv")
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "kernel",
                "dataset",
                "rows",
                "cols",
                "nnzs",
                "elapsed",
            ]
            parsed = list(reader)
        assert len(parsed) == 3
        assert parsed[0]["kernel"] == "merge_path"
        assert float(parsed[0]["elapsed"]) > 0
