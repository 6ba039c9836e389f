"""Tests for the harness's fan-out strategies (serial / process).

The contract: both executors return *identical* row lists for the
same grid and seed, in deterministic (dataset, kernel) order, and the
process executor shards work per dataset (problem + oracle built once
per shard, every kernel of the cell amortized against them).
"""

from __future__ import annotations

import pytest

from repro.evaluation.harness import (
    EXECUTORS,
    _run_shard,
    _ShardTask,
    run_suite,
)
from repro.sparse.corpus import build_corpus, load_dataset

KERNELS = ["merge_path", "thread_mapped", "cub"]


def _key(rows):
    return [(r.app, r.kernel, r.dataset, r.rows, r.cols, r.nnzs, r.elapsed)
            for r in rows]


class TestExecutorEquivalence:
    def test_all_executors_return_identical_rows(self):
        serial = run_suite(KERNELS, scale="smoke", limit=4, executor="serial")
        process = run_suite(
            KERNELS, scale="smoke", limit=4, executor="process", max_workers=2
        )
        assert _key(serial) == _key(process)
        assert len(serial) == 4 * len(KERNELS)

    def test_every_execution_path_returns_identical_rows(self):
        """The acceptance matrix: serial / fresh-process / persistent-pool
        sweeps of the same seeded grid produce identical SweepRows, and
        the pooled sweeps carried their CSR payloads over shared memory."""
        from repro.engine import SweepExecutor

        kwargs = dict(scale="smoke", limit=4, seed=11)
        paths = {
            "serial": run_suite(KERNELS, executor="serial", **kwargs),
            "fresh_process": run_suite(KERNELS, executor="process",
                                       max_workers=2, **kwargs),
        }
        with SweepExecutor(max_workers=2) as pool:
            paths["persistent_pool"] = run_suite(
                KERNELS, executor="process", pool=pool, **kwargs
            )
            paths["persistent_pool_again"] = run_suite(
                KERNELS, executor="process", pool=pool, **kwargs
            )
            assert pool.info()["shm_published"] > 0
        reference = _key(paths["serial"])
        for name, rows in paths.items():
            assert _key(rows) == reference, f"{name} diverged from serial"

    def test_process_executor_non_spmv_app(self):
        rows = run_suite(
            ["thread_mapped", "group_mapped"],
            app="histogram",
            scale="smoke",
            limit=3,
            executor="process",
            max_workers=2,
        )
        serial = run_suite(
            ["thread_mapped", "group_mapped"],
            app="histogram",
            scale="smoke",
            limit=3,
            executor="serial",
        )
        assert _key(rows) == _key(serial)

    def test_process_executor_explicit_datasets(self):
        ds = [load_dataset("tiny_diag_32", "smoke"),
              load_dataset("tiny_uniform_64", "smoke")]
        rows = run_suite(
            ["merge_path"], datasets=ds, executor="process", max_workers=2
        )
        assert [r.dataset for r in rows] == ["tiny_diag_32", "tiny_uniform_64"]

    def test_process_executor_seed_determinism(self):
        a = run_suite(["merge_path"], scale="smoke", limit=3,
                      executor="process", seed=7)
        b = run_suite(["merge_path"], scale="smoke", limit=3,
                      executor="process", seed=7)
        assert _key(a) == _key(b)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_suite(["merge_path"], scale="smoke", limit=1, executor="gpu")
        assert EXECUTORS == ("serial", "process")

    @pytest.mark.parametrize(
        "knob", [{"max_workers": 2}, {"pool": object()}],
        ids=["max_workers", "pool"],
    )
    def test_pool_knobs_require_process_executor(self, knob):
        """Pool width or a pool on the serial executor is a contradiction,
        not a no-op."""
        with pytest.raises(ValueError, match="executor='process'"):
            run_suite(["merge_path"], scale="smoke", limit=1, **knob)

    def test_run_suite_signature(self):
        """The sweep surface: the context selects execution, the executor
        string plus an optional width or pool selects the fan-out."""
        import inspect

        params = inspect.signature(run_suite).parameters
        assert list(params) == [
            "kernels", "app", "scale", "datasets", "limit", "seed",
            "validate", "ctx", "executor", "max_workers", "pool",
        ]
        assert params["executor"].default == "serial"

    @pytest.mark.parametrize(
        "knob",
        [{"transport": "shm"}, {"keep_pool": True},
         {"plan_cache_dir": "plans"}, {"plan_store": "plans.journal"}],
        ids=["transport", "keep_pool", "plan_cache_dir", "plan_store"],
    )
    def test_removed_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            run_suite(["merge_path"], scale="smoke", limit=1,
                      executor="process", **knob)

    def test_tensor_corpus_shm_sweep_matches_pickle_and_serial(self):
        """The row-set equality, extended to a *tensor corpus*: spmttkrp
        over native SparseTensor3 datasets travels through the
        generalized array-bundle shm transport bit-for-bit."""
        from repro.engine import SweepExecutor
        from repro.sparse.corpus import Dataset
        from repro.sparse.tensor import random_tensor

        tensors = [
            Dataset(
                name=f"tensor_{i}",
                family="tensor",
                matrix=random_tensor(
                    (40 + 8 * i, 32, 12), 500 + 40 * i, skew=0.6, seed=i
                ),
            )
            for i in range(3)
        ]
        grid = ["merge_path", "thread_mapped"]
        kwargs = dict(app="spmttkrp", datasets=tensors, seed=3)
        paths = {
            "serial": run_suite(grid, executor="serial", **kwargs),
            "fresh_process": run_suite(grid, executor="process",
                                       max_workers=2, **kwargs),
        }
        with SweepExecutor(max_workers=2) as pool:
            paths["persistent_pool_shm"] = run_suite(
                grid, executor="process", pool=pool, **kwargs
            )
            assert pool.info()["shm_published"] == len(tensors)
        reference = _key(paths["serial"])
        assert len(reference) == len(tensors) * len(grid)
        assert [r.rows for r in paths["serial"][::len(grid)]] == [40, 48, 56]
        for name, rows in paths.items():
            assert _key(rows) == reference, f"{name} diverged from serial"

    def test_empty_dataset_list(self):
        assert run_suite(["merge_path"], datasets=[], executor="process") == []

    def test_plan_store_restored_after_suite(self, tmp_path):
        """run_suite must not leave the global cache pointed at the
        caller's (possibly temporary) journal."""
        from repro.engine import (
            ExecutionContext,
            clear_plan_cache,
            global_plan_cache,
        )

        before = global_plan_cache().store_path
        clear_plan_cache()  # memory hits would skip the disk store
        store = tmp_path / "plans.journal"
        run_suite(["merge_path"], scale="smoke", limit=2,
                  ctx=ExecutionContext(plan_store=str(store)))
        assert global_plan_cache().store_path == before
        assert store.stat().st_size > 0  # used meanwhile


class TestSharding:
    def test_shard_runs_every_kernel_once(self):
        ds = load_dataset("tiny_power_256", "smoke")
        task = _ShardTask(
            app="spmv",
            kernels=tuple(KERNELS),
            dataset=ds,
            seed=0,
            validate=True,
        )
        rows = _run_shard(task)
        assert [r.kernel for r in rows] == KERNELS
        assert all(r.dataset == ds.name for r in rows)

    def test_shard_is_picklable(self):
        import pickle

        ds = load_dataset("tiny_diag_32", "smoke")
        task = _ShardTask(
            app="spmv",
            kernels=("merge_path",),
            dataset=ds,
            seed=0,
            validate=False,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.dataset.name == ds.name
        assert _key(_run_shard(clone)) == _key(_run_shard(task))

    def test_shard_configures_worker_plan_store(self, tmp_path):
        """A ctx carrying plan_store attaches the journal in the worker."""
        from repro.engine import (
            ExecutionContext,
            clear_plan_cache,
            configure_global_plan_cache,
            global_plan_cache,
        )

        ds = load_dataset("tiny_diag_32", "smoke")
        store_path = tmp_path / "plans.journal"
        task = _ShardTask(
            app="spmv",
            kernels=("merge_path",),
            dataset=ds,
            seed=0,
            validate=False,
            ctx=ExecutionContext(plan_store=str(store_path)),
        )
        try:
            clear_plan_cache()
            _run_shard(task)
            assert global_plan_cache().store_path == store_path
            assert store_path.is_file()
            assert len(global_plan_cache().store) > 0
        finally:
            configure_global_plan_cache(None)


class TestAmbientRestoreWarning:
    def test_unusable_env_target_warns_once_per_process(self, monkeypatch, tmp_path):
        """Regression: a typo'd REPRO_PLAN_STORE used to degrade to
        no-persistence with zero signal."""
        import warnings

        from repro.engine import PLAN_STORE_ENV, configure_global_plan_cache
        from repro.evaluation import harness

        # A directory is not openable as a journal file.
        monkeypatch.setenv(PLAN_STORE_ENV, str(tmp_path))
        monkeypatch.setattr(harness, "_AMBIENT_RESTORE_WARNED", False)
        try:
            with pytest.warns(RuntimeWarning, match="plan persistence"):
                harness._restore_ambient_plan_persistence()
            # Once per process: the second restore stays silent.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                harness._restore_ambient_plan_persistence()
        finally:
            configure_global_plan_cache(None)

    def test_usable_env_target_does_not_warn(self, monkeypatch, tmp_path):
        import warnings

        from repro.engine import PLAN_STORE_ENV, configure_global_plan_cache
        from repro.evaluation import harness

        monkeypatch.setenv(PLAN_STORE_ENV, str(tmp_path / "plans.journal"))
        monkeypatch.setattr(harness, "_AMBIENT_RESTORE_WARNED", False)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                harness._restore_ambient_plan_persistence()
        finally:
            configure_global_plan_cache(None)


class TestIncompatibleDatasets:
    def test_rectangular_skipped_for_graph_apps_in_process_mode(self):
        rows = run_suite(
            ["group_mapped"], app="bfs", scale="smoke", executor="process",
            max_workers=2,
        )
        names = {d.name for d in build_corpus("smoke")
                 if d.matrix.num_rows == d.matrix.num_cols}
        assert {r.dataset for r in rows} <= names
        assert all(r.rows == r.cols for r in rows)
