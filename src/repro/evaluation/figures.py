"""Series builders for the paper's figures.

Each ``figN_*`` function regenerates the data behind one figure of the
evaluation section from harness rows, plus the summary statistics the
paper quotes in prose (geomean slowdown/speedup, win fractions, peaks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import ExecutionContext
from ..gpusim.arch import GpuSpec, V100
from ..gpusim.profiler import geomean
from .harness import SweepRow, run_suite

__all__ = [
    "FigureSeries",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "fig2_overhead",
    "fig3_landscape",
    "fig4_heuristic",
]


@dataclass
class FigureSeries:
    """One scatter series: (nnz, elapsed-or-speedup) per dataset."""

    kernel: str
    datasets: list[str] = field(default_factory=list)
    nnzs: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, dataset: str, nnz: int, value: float) -> None:
        self.datasets.append(dataset)
        self.nnzs.append(nnz)
        self.values.append(value)


def _series(rows: list[SweepRow], kernel: str, elapsed_of=None) -> FigureSeries:
    s = FigureSeries(kernel=kernel)
    for r in rows:
        if r.kernel == kernel:
            s.add(r.dataset, r.nnzs, r.elapsed if elapsed_of is None else elapsed_of(r))
    return s


def _spmv_rows(kernels: list[str], scale: str, spec: GpuSpec) -> list[SweepRow]:
    return run_suite(
        kernels, app="spmv", scale=scale, ctx=ExecutionContext(spec=spec)
    )


def _elapsed_map(rows: list[SweepRow], kernel: str) -> dict[str, float]:
    return {r.dataset: r.elapsed for r in rows if r.kernel == kernel}


# ----------------------------------------------------------------------
# Figure 2: abstraction overhead -- our merge-path vs hardwired CUB.
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    series: dict[str, FigureSeries]
    #: Per-dataset slowdown ours/CUB (>1 means CUB faster).
    slowdowns: dict[str, float]
    geomean_slowdown: float
    #: Fraction of datasets where we achieve >= 90% of CUB's performance.
    frac_within_90pct: float
    #: Datasets where CUB wins by more than 10% (paper: the single-column
    #: sparse vectors, via CUB's specialized heuristic).
    cub_wins: list[str]


def fig2_overhead(
    *, scale: str = "standard", spec: GpuSpec = V100, rows: list[SweepRow] | None = None
) -> Fig2Result:
    if rows is None:
        rows = _spmv_rows(["merge_path", "cub"], scale, spec)
    ours = _elapsed_map(rows, "merge_path")
    cub = _elapsed_map(rows, "cub")
    common = sorted(set(ours) & set(cub))
    if not common:
        raise ValueError("no common datasets between merge_path and cub rows")
    slowdowns = {d: ours[d] / cub[d] for d in common}
    # "achieving at least 90% of CUB's performance" == ours <= cub / 0.9
    within = [d for d in common if ours[d] <= cub[d] / 0.9]
    return Fig2Result(
        series={
            "merge-path": _series(rows, "merge_path"),
            "cub": _series(rows, "cub"),
        },
        slowdowns=slowdowns,
        geomean_slowdown=geomean(slowdowns.values()),
        frac_within_90pct=len(within) / len(common),
        cub_wins=[d for d in common if slowdowns[d] > 1.1],
    )


# ----------------------------------------------------------------------
# Figure 3: performance landscape -- 3 schedules vs cuSparse.
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    series: dict[str, FigureSeries]
    #: For each dataset, the fastest framework schedule.
    best_schedule: dict[str, str]
    #: Fraction of datasets where at least one framework schedule beats
    #: the vendor model.
    frac_some_schedule_wins: float


FIG3_SCHEDULES = ("thread_mapped", "group_mapped", "merge_path")


def fig3_landscape(
    *, scale: str = "standard", spec: GpuSpec = V100, rows: list[SweepRow] | None = None
) -> Fig3Result:
    kernels = list(FIG3_SCHEDULES) + ["cusparse"]
    if rows is None:
        rows = _spmv_rows(kernels, scale, spec)
    maps = {k: _elapsed_map(rows, k) for k in kernels}
    datasets = sorted(set.intersection(*(set(m) for m in maps.values())))
    best = {
        d: min(FIG3_SCHEDULES, key=lambda k: maps[k][d]) for d in datasets
    }
    wins = sum(
        1
        for d in datasets
        if min(maps[k][d] for k in FIG3_SCHEDULES) < maps["cusparse"][d]
    )
    return Fig3Result(
        series={k: _series(rows, k) for k in kernels},
        best_schedule=best,
        frac_some_schedule_wins=wins / len(datasets) if datasets else 0.0,
    )


# ----------------------------------------------------------------------
# Figure 4: heuristic-combined SpMV speedup over cuSparse.
# ----------------------------------------------------------------------
@dataclass
class Fig4Result:
    #: Speedup series (nnz vs cusparse_time / ours_time), split by the
    #: schedule the heuristic chose (the figure's three colours).
    series: dict[str, FigureSeries]
    speedups: dict[str, float]
    chosen: dict[str, str]
    geomean_speedup: float
    peak_speedup: float
    peak_dataset: str


def fig4_heuristic(
    *, scale: str = "standard", spec: GpuSpec = V100, rows: list[SweepRow] | None = None
) -> Fig4Result:
    if rows is None:
        rows = _spmv_rows(["heuristic", "cusparse"], scale, spec)
    ours = {r.dataset: r for r in rows if r.kernel == "heuristic"}
    vendor = _elapsed_map(rows, "cusparse")
    datasets = sorted(set(ours) & set(vendor))
    if not datasets:
        raise ValueError("no common datasets between heuristic and cusparse rows")
    speedups = {d: vendor[d] / ours[d].elapsed for d in datasets}
    chosen = {d: ours[d].meta.get("schedule", "?") for d in datasets}
    series: dict[str, FigureSeries] = {}
    for d in datasets:
        sched = chosen[d]
        series.setdefault(sched, FigureSeries(kernel=sched)).add(
            d, ours[d].nnzs, speedups[d]
        )
    peak_dataset = max(datasets, key=lambda d: speedups[d])
    return Fig4Result(
        series=series,
        speedups=speedups,
        chosen=chosen,
        geomean_speedup=geomean(speedups.values()),
        peak_speedup=speedups[peak_dataset],
        peak_dataset=peak_dataset,
    )
