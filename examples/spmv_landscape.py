#!/usr/bin/env python3
"""The SpMV performance landscape (Figures 3 and 4 in miniature).

Sweeps three framework schedules plus the vendor-model baseline over a
slice of the corpus, prints the per-dataset winners, and shows what the
Section 6.2 heuristic would pick -- the "facilitate exploration of
optimizations" design goal in action.

Run:  python examples/spmv_landscape.py [scale]
"""

import sys

import numpy as np

from repro import build_corpus, select_schedule, spmv
from repro.baselines import cusparse_spmv
from repro.engine import ExecutionContext
from repro.gpusim import geomean

SCHEDULES = ("thread_mapped", "group_mapped", "merge_path")


def main(scale: str = "smoke") -> None:
    corpus = build_corpus(scale)
    print(f"{len(corpus)} datasets at scale={scale!r}\n")
    header = (
        f"{'dataset':<18} {'nnz':>9} "
        + "".join(f"{s:>15}" for s in SCHEDULES)
        + f"{'cusparse':>12} {'winner':>15} {'heuristic':>15}"
    )
    print(header)
    print("-" * len(header))

    speedups = []
    agreements = 0
    for ds in corpus:
        x = np.random.default_rng(7).uniform(size=ds.cols)
        times = {
            s: spmv(ds.matrix, x, ctx=ExecutionContext(policy=s)).elapsed_ms
            for s in SCHEDULES
        }
        _, vendor_stats = cusparse_spmv(ds.matrix, x)
        vendor = vendor_stats.elapsed_ms
        winner = min(times, key=times.get)
        chosen = select_schedule(ds.matrix)
        agreements += winner == chosen
        speedups.append(vendor / times[chosen])
        row = (
            f"{ds.name:<18} {ds.nnz:>9} "
            + "".join(f"{times[s]:>15.5f}" for s in SCHEDULES)
            + f"{vendor:>12.5f} {winner:>15} {chosen:>15}"
        )
        print(row)

    print("-" * len(header))
    print(f"\nheuristic agrees with the true winner on {agreements}/{len(corpus)} "
          f"datasets")
    print(f"geomean speedup of heuristic vs vendor model: "
          f"{geomean(speedups):.2f}x   (paper Figure 4: 2.7x)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "smoke")
