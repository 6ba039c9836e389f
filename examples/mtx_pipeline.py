#!/usr/bin/env python3
"""The artifact's end-to-end pipeline on a MatrixMarket file.

Reproduces the paper's appendix A.3.1 sanity check:

    bin/loops.spmv.merge_path -m chesapeake.mtx --validate

using the bundled ``datasets/chesapeake.mtx`` stand-in (39 x 39, 340
nonzeros), then emits a results CSV in the paper's schema, like run.sh.

Run:  python examples/mtx_pipeline.py [path/to/matrix.mtx]
"""

import sys
from pathlib import Path

import numpy as np

from repro import read_mtx, spmv
from repro.baselines import dense_spmv_oracle
from repro.engine import ExecutionContext
from repro.sparse import coo_to_csr

DEFAULT = Path(__file__).resolve().parent.parent / "datasets" / "chesapeake.mtx"


def main(path: Path) -> None:
    matrix = coo_to_csr(read_mtx(path))
    x = np.random.default_rng(0).uniform(size=matrix.num_cols)

    result = spmv(matrix, x, ctx=ExecutionContext(policy="merge_path"))
    errors = int(np.sum(~np.isclose(result.output, dense_spmv_oracle(matrix, x))))

    # The artifact's sanity-check output format:
    print(f"Elapsed (ms): {result.elapsed_ms:.6f}")
    print(f"Matrix: {path.name}")
    print(f"Dimensions: {matrix.num_rows} x {matrix.num_cols} ({matrix.nnz})")
    print(f"Errors: {errors}")

    # And the run.sh CSV schema:
    print("\nkernel,dataset,rows,cols,nnzs,elapsed")
    for kernel in ("merge_path", "thread_mapped", "group_mapped"):
        r = spmv(matrix, x, ctx=ExecutionContext(policy=kernel))
        print(
            f"{kernel.replace('_', '-')},{path.stem},{matrix.num_rows},"
            f"{matrix.num_cols},{matrix.nnz},{r.elapsed_ms:.6f}"
        )


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT)
