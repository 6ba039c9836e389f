"""repro: a Python reproduction of "A Programming Model for GPU Load
Balancing" (Osama, Porumbescu & Owens, PPoPP 2023) on a simulated GPU.

Quickstart::

    import numpy as np
    from repro import spmv, load_dataset
    from repro.engine import ExecutionContext

    dataset = load_dataset("power_a19")
    x = np.ones(dataset.cols)
    ctx = ExecutionContext().with_policy("merge_path")
    result = spmv(dataset.matrix, x, ctx=ctx)
    print(result.elapsed_ms, result.stats.simt_efficiency)

Packages:

* :mod:`repro.gpusim` -- the simulated-GPU substrate (SIMT interpreter +
  analytic cost model);
* :mod:`repro.sparse` -- CSR/CSC/COO formats, MatrixMarket IO, corpus;
* :mod:`repro.core` -- the load-balancing abstraction (iterators, ranges,
  work specs, schedules, heuristic);
* :mod:`repro.engine` -- the unified execution layer (app registry,
  vector/SIMT engine dispatch, plan cache, deterministic seeding);
* :mod:`repro.apps` -- SpMV/SpMM/SpGEMM, BFS/SSSP, PageRank, triangles;
* :mod:`repro.baselines` -- hardwired CUB and vendor-model comparators;
* :mod:`repro.evaluation` -- the harness for every table and figure.

Importing :mod:`repro` loads none of them: each name in ``__all__`` is
imported from its package the first time it is read, so a process loads
only the code it runs.
"""

from ._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".apps.bfs": ("bfs",),
    ".apps.pagerank": ("pagerank",),
    ".apps.spgemm": ("spgemm",),
    ".apps.spmm": ("spmm",),
    ".apps.spmv": ("spmv",),
    ".apps.sssp": ("sssp",),
    ".apps.triangle_count": ("triangle_count",),
    ".core": (
        "LaunchParams",
        "Schedule",
        "WorkCosts",
        "WorkSpec",
        "available_schedules",
        "make_schedule",
        "select_schedule",
    ),
    ".engine": ("available_apps", "get_app", "run_app"),
    ".gpusim": ("AMD_WARP64", "TINY_GPU", "V100", "GpuSpec", "KernelStats"),
    ".sparse": (
        "CooMatrix",
        "CscMatrix",
        "CsrGraph",
        "CsrMatrix",
        "build_corpus",
        "load_dataset",
        "random_graph",
        "read_mtx",
        "write_mtx",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "bfs",
    "pagerank",
    "spgemm",
    "spmm",
    "spmv",
    "sssp",
    "triangle_count",
    "LaunchParams",
    "Schedule",
    "WorkCosts",
    "WorkSpec",
    "available_schedules",
    "make_schedule",
    "select_schedule",
    "available_apps",
    "get_app",
    "run_app",
    "AMD_WARP64",
    "TINY_GPU",
    "V100",
    "GpuSpec",
    "KernelStats",
    "CooMatrix",
    "CscMatrix",
    "CsrGraph",
    "CsrMatrix",
    "build_corpus",
    "load_dataset",
    "random_graph",
    "read_mtx",
    "write_mtx",
    "__version__",
]
