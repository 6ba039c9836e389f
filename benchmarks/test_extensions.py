"""Benches for the extension features beyond the paper's evaluated set.

These exercise the features DESIGN.md lists as the paper's optional /
future-work surface: the dynamic queue schedule (static-vs-dynamic),
the multi-GPU split (Section 8 future work), the MTTKRP tensor kernel
(Section 3.3's application space), and the locality model (Section 8).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit
from repro.apps.common import spmv_costs
from repro.apps.spmttkrp import spmttkrp
from repro.apps.spmv import spmv
from repro.core.schedule import LaunchParams, make_schedule
from repro.core.schedules.dynamic_queue import DynamicQueueSchedule
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext
from repro.gpusim.arch import V100
from repro.gpusim.multi_gpu import multi_gpu_plan
from repro.sparse import generators as gen
from repro.sparse.tensor import random_tensor


class TestStaticVsDynamic:
    def test_schedule_family_comparison(self, benchmark, results_dir):
        """Static schedules vs the dynamic queue across imbalance regimes.

        The instructive split: dynamic scheduling fixes *across-tile*
        imbalance (the adversarial striding case) but cannot split a
        single mega-tile across workers -- only intra-tile schedules
        (merge-path) can, which is exactly why the paper's family needs
        both static fine-grained and dynamic members.
        """
        launch = LaunchParams(grid_dim=16, block_dim=256)
        n_threads = launch.num_threads
        striped = np.ones(n_threads * 8, dtype=np.int64)
        striped[::n_threads] = 20_000  # giants all land on thread 0
        cases = {
            "uniform": WorkSpec.from_csr(gen.uniform_random(8000, 8000, 8, seed=0)),
            "adversarial_stripe": WorkSpec.from_counts(striped),
            "mega_tile": WorkSpec.from_csr(
                gen.dense_row_outliers(8000, 8000, 2, 4, 6000, seed=0)
            ),
        }
        kernels = ("thread_mapped", "merge_path", "dynamic_queue")

        def run():
            out = {}
            for case, work in cases.items():
                for k in kernels:
                    opts = {"chunk_size": 1} if k == "dynamic_queue" else {}
                    use_launch = launch if case == "adversarial_stripe" else None
                    out[(case, k)] = (
                        make_schedule(k, work, V100, use_launch, **opts)
                        .plan(spmv_costs(V100))
                        .elapsed_ms
                    )
            return out

        times = benchmark(run)
        lines = ["workload,schedule,elapsed_ms"]
        lines += [f"{c},{k},{v:.6f}" for (c, k), v in times.items()]
        emit(results_dir, "ext_static_vs_dynamic.csv", "\n".join(lines))
        # Across-tile imbalance: the queue restores balance ...
        assert (
            times[("adversarial_stripe", "dynamic_queue")]
            < 0.5 * times[("adversarial_stripe", "thread_mapped")]
        )
        # ... but a single mega-tile defeats tile-granular dynamism, and
        # only intra-tile splitting (merge-path) survives.
        assert times[("mega_tile", "merge_path")] < 0.2 * times[
            ("mega_tile", "dynamic_queue")
        ]

    def test_chunk_size_sweep(self, benchmark, results_dir):
        m = gen.power_law(16_000, 16_000, 10.0, 1.8, seed=1)
        work = WorkSpec.from_csr(m)
        launch = DynamicQueueSchedule.default_launch(work, V100)

        def sweep():
            return {
                chunk: DynamicQueueSchedule(work, V100, launch, chunk_size=chunk)
                .plan(spmv_costs(V100))
                .elapsed_ms
                for chunk in (1, 2, 4, 16, 64, 256)
            }

        times = benchmark(sweep)
        lines = ["chunk_size,elapsed_ms"]
        lines += [f"{k},{v:.6f}" for k, v in times.items()]
        emit(results_dir, "ext_dynamic_chunk.csv", "\n".join(lines))


class TestMultiGpuScaling:
    def test_device_scaling(self, benchmark, results_dir):
        work = WorkSpec.from_csr(
            gen.uniform_random(120_000, 120_000, 32, seed=2)
        )
        costs = spmv_costs(V100)

        def sweep():
            return {
                n: multi_gpu_plan(work, costs, num_devices=n).elapsed_ms
                for n in (1, 2, 4, 8)
            }

        times = benchmark(sweep)
        lines = ["num_devices,elapsed_ms,scaling_vs_1"]
        t1 = times[1]
        lines += [f"{n},{v:.6f},{t1 / v:.2f}" for n, v in times.items()]
        emit(results_dir, "ext_multigpu_scaling.csv", "\n".join(lines))
        assert times[4] < times[1]

    def test_partition_strategy_on_skew(self, benchmark, results_dir):
        counts = np.random.default_rng(3).permutation(
            np.concatenate([np.full(32, 200_000), np.full(100_000, 3)])
        )
        work = WorkSpec.from_counts(counts)
        costs = spmv_costs(V100)

        def run():
            return {
                strat: multi_gpu_plan(
                    work, costs, num_devices=4, partition=strat
                ).device_imbalance
                for strat in ("tiles", "merge_path")
            }

        imb = benchmark(run)
        emit(
            results_dir,
            "ext_multigpu_partition.csv",
            "partition,device_imbalance\n"
            + "\n".join(f"{k},{v:.4f}" for k, v in imb.items()),
        )
        assert imb["merge_path"] <= imb["tiles"] + 1e-9


class TestMttkrp:
    def test_tensor_schedule_landscape(self, benchmark, results_dir):
        t = random_tensor((20_000, 64, 64), 400_000, skew=0.9, seed=4)
        rng = np.random.default_rng(5)
        b = rng.uniform(size=(64, 16))
        c = rng.uniform(size=(64, 16))

        def run():
            return {
                k: spmttkrp(t, b, c, ctx=ExecutionContext(policy=k)).elapsed_ms
                for k in ("thread_mapped", "nonzero_split", "merge_path")
            }

        times = benchmark.pedantic(run, rounds=2, iterations=1)
        lines = ["schedule,elapsed_ms"]
        lines += [f"{k},{v:.6f}" for k, v in times.items()]
        emit(results_dir, "ext_mttkrp.csv", "\n".join(lines))
        # The F-COO observation as a schedule: equal-nonzeros splitting
        # beats slice-per-thread on skewed tensors.
        assert times["nonzero_split"] < times["thread_mapped"]

    def test_mttkrp_wall_clock(self, benchmark):
        t = random_tensor((5000, 32, 32), 100_000, skew=0.5, seed=6)
        rng = np.random.default_rng(7)
        b, c = rng.uniform(size=(32, 8)), rng.uniform(size=(32, 8))
        r = benchmark(lambda: spmttkrp(t, b, c))
        assert r.elapsed_ms > 0


class TestLocalityModel:
    def test_working_set_sweep(self, benchmark, results_dir):
        """SpMV gather cost vs x-vector size: the L2-resident cliff.

        Measured on a compute-bound configuration (a thread-mapped run on
        skewed long rows, where warp cycles dominate the DRAM floor):
        L2-resident vectors make gathers cheap; working sets far beyond
        L2 converge back to the flat pessimistic model.
        """
        from repro.gpusim.cache import effective_gather_cost

        def sweep():
            out = {}
            for cols in (1_000, 100_000, 1_000_000, 10_000_000):
                m = gen.power_law(3000, cols, 40.0, 1.8, seed=8)
                x = np.ones(cols)
                ctx = ExecutionContext(policy="thread_mapped")
                flat = spmv(m, x, ctx=ctx).elapsed_ms
                loc = spmv(m, x, ctx=ctx, locality=True).elapsed_ms
                out[cols] = (flat, loc, effective_gather_cost(V100, cols * 8.0))
            return out

        times = benchmark.pedantic(sweep, rounds=2, iterations=1)
        lines = ["x_cols,elapsed_flat_ms,elapsed_locality_ms,gather_cycles"]
        lines += [
            f"{k},{a:.6f},{b:.6f},{g:.2f}" for k, (a, b, g) in times.items()
        ]
        emit(results_dir, "ext_locality.csv", "\n".join(lines))
        # The gather cost is monotone in the working set ...
        gathers = [g for _, _, g in times.values()]
        assert gathers == sorted(gathers)
        # ... an L2-resident vector speeds up the compute-bound kernel ...
        small_flat, small_loc, _ = times[1_000]
        assert small_loc < small_flat
        # ... and a far-beyond-L2 vector converges to the flat model.
        big_flat, big_loc, big_gather = times[10_000_000]
        assert big_gather == pytest.approx(V100.costs.global_load_random, rel=0.15)
        assert big_loc == pytest.approx(big_flat, rel=0.2)
