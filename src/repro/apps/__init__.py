"""``repro.apps`` -- applications built on the load-balancing abstraction.

Every application here is *declared once* -- work definition, cost
model, vectorized result, SIMT kernel body, oracle -- and registered
with the :mod:`repro.engine` registry, which owns all execution.
Switching the load balancer or the execution engine is a one-identifier
change, the paper's core usability claim.  SpMV is the evaluation
benchmark; SpMM/SpGEMM, BFS/SSSP, PageRank, triangle counting, MTTKRP
and the degree histogram reproduce the paper's Section 5.3 application
space; importing this package registers them all (see
:func:`repro.engine.available_apps`).
"""

from .bfs import bfs, bfs_reference
from .common import AppResult, spmv_costs
from .histogram import degree_histogram, degree_histogram_reference
from .pagerank import pagerank, pagerank_reference
from .spgemm import spgemm, spgemm_reference
from .spmm import spmm, spmm_reference
from .spmttkrp import mttkrp_costs, spmttkrp, spmttkrp_reference
from .spmv import spmv, spmv_reference
from .sssp import sssp, sssp_reference
from .traversal import advance_workspec, run_frontier_loop, traversal_costs
from .triangle_count import triangle_count, triangle_count_reference

__all__ = [
    "AppResult",
    "spmv_costs",
    "bfs",
    "bfs_reference",
    "degree_histogram",
    "degree_histogram_reference",
    "pagerank",
    "pagerank_reference",
    "spgemm",
    "spgemm_reference",
    "spmm",
    "spmm_reference",
    "mttkrp_costs",
    "spmttkrp",
    "spmttkrp_reference",
    "spmv",
    "spmv_reference",
    "sssp",
    "sssp_reference",
    "advance_workspec",
    "run_frontier_loop",
    "traversal_costs",
    "triangle_count",
    "triangle_count_reference",
]
