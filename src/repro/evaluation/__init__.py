"""``repro.evaluation`` -- the harness reproducing the paper's evaluation.

* :mod:`.harness` -- (app x kernel x dataset) sweeps over the app
  registry, paper-schema CSVs, optional process-pool fan-out;
* :mod:`.figures` -- data series + summary stats for Figures 2, 3 and 4;
* :mod:`.loc` -- the lines-of-code measurement behind Table 1.

Importing the package loads none of them; each name in ``__all__`` is
imported from its module the first time it is read, so a sweep (which
imports :mod:`.harness`) never loads the figures or the line counter.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".figures": (
        "Fig2Result",
        "Fig3Result",
        "Fig4Result",
        "FigureSeries",
        "fig2_overhead",
        "fig3_landscape",
        "fig4_heuristic",
    ),
    ".harness": ("SPMV_KERNELS", "SweepRow", "run_cell", "run_suite", "write_csv"),
    ".loc": ("PAPER_TABLE1", "Table1Row", "count_loc", "source_loc", "table1_rows"),
})

__all__ = [
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "FigureSeries",
    "fig2_overhead",
    "fig3_landscape",
    "fig4_heuristic",
    "SPMV_KERNELS",
    "SweepRow",
    "run_cell",
    "run_suite",
    "write_csv",
    "PAPER_TABLE1",
    "Table1Row",
    "count_loc",
    "source_loc",
    "table1_rows",
]
