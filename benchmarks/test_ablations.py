"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but sweeps over the knobs the paper's design
discussion motivates:

* group size for the group-mapped schedule (Section 5.2.3's arbitrary-
  size claim, including the AMD warp-64 port);
* merge-path items-per-thread grain;
* the heuristic's alpha/beta thresholds (Section 6.2);
* LRB vs plain warp-mapped on bimodal workloads (related work);
* abstraction-tax sensitivity (what Figure 2 would look like if ranges
  were expensive).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit
from repro.apps.common import spmv_costs
from repro.apps.spmv import spmv
from repro.baselines.cusparse_spmv import cusparse_spmv
from repro.core.heuristic import HeuristicParams, select_schedule
from repro.core.schedule import LaunchParams, make_schedule
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext
from repro.gpusim.arch import AMD_WARP64, V100
from repro.gpusim.profiler import geomean
from repro.sparse import generators as gen
from repro.sparse.corpus import build_corpus


@pytest.fixture(scope="module")
def skewed():
    return gen.power_law(8000, 8000, 10.0, 1.8, seed=0)


class TestGroupSizeSweep:
    GROUP_SIZES = (8, 16, 32, 64, 128, 256)

    def test_group_size_sweep(self, benchmark, skewed, results_dir):
        work = WorkSpec.from_csr(skewed)
        costs = spmv_costs(V100)
        launch = LaunchParams(grid_dim=640, block_dim=256)

        def sweep():
            return {
                g: make_schedule(
                    "group_mapped", work, V100, launch, group_size=g
                ).plan(costs).elapsed_ms
                for g in self.GROUP_SIZES
            }

        times = benchmark(sweep)
        lines = ["group_size,elapsed_ms"]
        lines += [f"{g},{t:.6f}" for g, t in times.items()]
        emit(results_dir, "ablation_group_size.csv", "\n".join(lines))
        assert all(t > 0 for t in times.values())

    def test_warp64_port_is_competitive(self, benchmark, skewed):
        """Section 5.2.3: the one-constant AMD port behaves sanely."""
        work = WorkSpec.from_csr(skewed)

        def run():
            s32 = make_schedule(
                "group_mapped", work, V100, group_size=32
            ).plan(spmv_costs(V100))
            s64 = make_schedule(
                "group_mapped", work, AMD_WARP64, group_size=64
            ).plan(spmv_costs(AMD_WARP64))
            return s32, s64

        s32, s64 = benchmark(run)
        assert 0.1 <= s64.elapsed_ms / s32.elapsed_ms <= 10


class TestMergePathGrain:
    # Small grains sit on the bandwidth floor (flat); very large grains
    # starve the device -- the sweep exposes where that cliff begins.
    ITEMS = (1, 4, 16, 64, 256, 1024)

    def test_items_per_thread_sweep(self, benchmark, skewed, results_dir):
        work = WorkSpec.from_csr(skewed)
        costs = spmv_costs(V100)
        total = work.num_atoms + work.num_tiles

        def sweep():
            out = {}
            for ipt in self.ITEMS:
                threads = max(1, -(-total // ipt))
                grid = max(1, -(-threads // 128))
                sched = make_schedule(
                    "merge_path",
                    work,
                    V100,
                    LaunchParams(grid, 128),
                    items_per_thread=ipt,
                )
                out[ipt] = sched.plan(costs).elapsed_ms
            return out

        times = benchmark(sweep)
        lines = ["items_per_thread,elapsed_ms"]
        lines += [f"{k},{v:.6f}" for k, v in times.items()]
        emit(results_dir, "ablation_merge_grain.csv", "\n".join(lines))
        # The sweep must show a real trade-off (not flat): tiny grains pay
        # setup per item; huge grains starve the device.
        vals = list(times.values())
        assert max(vals) > 1.05 * min(vals)


class TestHeuristicThresholds:
    def test_alpha_beta_sweep(self, benchmark, results_dir):
        corpus = build_corpus("smoke")
        xs = {
            d.name: np.random.default_rng(1).uniform(size=d.cols) for d in corpus
        }
        vendor = {
            d.name: cusparse_spmv(d.matrix, xs[d.name])[1].elapsed_ms
            for d in corpus
        }

        def sweep():
            out = {}
            for alpha in (100, 500, 2000):
                for beta in (1000, 10_000, 100_000):
                    params = HeuristicParams(alpha=alpha, beta=beta)
                    speedups = []
                    for d in corpus:
                        sched = select_schedule(d.matrix, params)
                        ctx = ExecutionContext(policy=sched)
                        t = spmv(d.matrix, xs[d.name], ctx=ctx).elapsed_ms
                        speedups.append(vendor[d.name] / t)
                    out[(alpha, beta)] = geomean(speedups)
            return out

        table = benchmark.pedantic(sweep, rounds=1, iterations=1)
        lines = ["alpha,beta,geomean_speedup_vs_cusparse"]
        lines += [f"{a},{b},{v:.3f}" for (a, b), v in table.items()]
        emit(results_dir, "ablation_heuristic_thresholds.csv", "\n".join(lines))
        # The paper's chosen thresholds must not be dominated badly.
        paper = table[(500, 10_000)]
        assert paper >= 0.8 * max(table.values())


class TestLrbBinning:
    def test_scattered_outliers(self, benchmark, results_dir):
        """LRB's sort neutralizes lockstep skew: it matches warp-mapped
        (whose group-level makespan is permutation-invariant under the
        oversubscription model) and decisively beats thread-mapped, whose
        lanes stall on the scattered huge tiles."""
        rng = np.random.default_rng(0)
        counts = rng.permutation(
            np.concatenate([np.full(500, 20_000), np.full(60_000, 4)])
        )
        work = WorkSpec.from_counts(counts)
        costs = spmv_costs(V100)

        def run():
            return {
                name: make_schedule(name, work, V100).plan(costs).elapsed_ms
                for name in ("thread_mapped", "warp_mapped", "lrb")
            }

        times = benchmark(run)
        lines = ["schedule,elapsed_ms"]
        lines += [f"{k},{v:.6f}" for k, v in times.items()]
        emit(results_dir, "ablation_lrb.csv", "\n".join(lines))
        assert times["lrb"] <= times["warp_mapped"] * 1.001
        assert times["lrb"] < 0.5 * times["thread_mapped"]


class TestAbstractionTaxSensitivity:
    def test_fig2_story_robust_to_tax(self, benchmark, results_dir):
        """Sweep the per-iteration range overhead: the Figure 2 "minimal
        overhead" conclusion must hold for plausible tax values and break
        only for implausibly expensive ranges."""
        from repro.baselines.cub_spmv import cub_spmv as cub

        m = gen.power_law(4000, 4000, 8.0, 1.9, seed=2)
        x = np.random.default_rng(3).uniform(size=m.num_cols)

        def sweep():
            out = {}
            for tax in (0.0, 0.6, 1.2, 2.4, 9.6):
                spec = V100.with_costs(range_overhead=tax)
                ctx = ExecutionContext(policy="merge_path", spec=spec)
                ours = spmv(m, x, ctx=ctx).elapsed_ms
                base = cub(m, x, spec)[1].elapsed_ms
                out[tax] = ours / base
            return out

        ratios = benchmark(sweep)
        lines = ["range_overhead_cycles,slowdown_vs_cub"]
        lines += [f"{k},{v:.4f}" for k, v in ratios.items()]
        emit(results_dir, "ablation_abstraction_tax.csv", "\n".join(lines))
        assert ratios[0.0] <= ratios[9.6]
        assert ratios[1.2] < 1.10  # the shipped default stays "minimal"
