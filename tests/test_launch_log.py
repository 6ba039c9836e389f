"""One functional pass per dataset: pricing engines sweep from a launch log.

On every engine with ``price`` (vector, compiled, multi_gpu)
``run_suite`` runs each app's driver once per dataset on a
:class:`~repro.engine.dispatch.RecordingRuntime` and prices every other
schedule kernel from the logged launches.  These tests pin that the
logged rows are the per-cell rows, that the kernel bodies run once per
dataset (and still once per cell on SIMT and on launch-only engines),
that validation stays per cell, and that every oracle stands without
the kernel bodies it validates -- the precondition for validating one
shared output.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.core.policy import SchedulePolicy, as_policy
from repro.core.schedule import WorkCosts
from repro.core.work import WorkSpec
from repro.engine import (
    Engine,
    ExecutionContext,
    KernelDecl,
    SimtEngine,
    VectorEngine,
    available_apps,
    compiled,
    get_app,
    run_app,
)
from repro.engine.dispatch import EngineError, RecordingRuntime, Runtime
from repro.gpusim.cost_model import KernelStats
from repro.evaluation import harness
from repro.evaluation.harness import expand_datasets, run_cell, run_suite
from repro.gpusim.arch import TINY_GPU
from repro.sparse.corpus import load_dataset
from repro.sparse.csr import CsrMatrix

FIVE_KERNELS = ["thread_mapped", "group_mapped", "merge_path", "lrb", "heuristic"]

#: One context per engine that prices a launch without running it.
PRICING_CONTEXTS = pytest.mark.parametrize(
    "ctx",
    [ExecutionContext(), ExecutionContext(engine="compiled"), ExecutionContext(gpus=4)],
    ids=["vector", "compiled", "multi_gpu"],
)


@pytest.fixture
def swap_bodies(monkeypatch):
    """``swap(app, make)`` replaces every kernel body of ``app`` -- each
    ``KernelDecl``'s ``arrays`` and ``scalar`` plus any module global
    bound to the same function -- with ``make(original)``, restored at
    teardown (declarations are frozen, so they are swapped in place)."""
    swapped = []

    def swap(app, make):
        for decl in get_app(app).kernels:
            for field in ("arrays", "scalar"):
                body = getattr(decl, field)
                if body is None:
                    continue
                replacement = make(body)
                module = sys.modules[body.__module__]
                for name, value in list(vars(module).items()):
                    if value is body:
                        monkeypatch.setattr(module, name, replacement)
                swapped.append((decl, field, body))
                object.__setattr__(decl, field, replacement)

    yield swap
    for decl, field, body in reversed(swapped):
        object.__setattr__(decl, field, body)


def _counting(counter):
    def make(body):
        def counted(*args):
            counter[0] += 1
            return body(*args)

        return counted

    return make


def _cells(app, kernels, datasets, ctx=None):
    return [run_cell(app, k, d, ctx=ctx) for d in datasets for k in kernels]


@PRICING_CONTEXTS
@pytest.mark.parametrize("app", available_apps())
def test_logged_rows_equal_per_cell_rows(app, ctx):
    """A baseline first, then policies that resolve differently from the
    recording kernel: every row bit-equal to its own ``run_cell``."""
    kernels = [*list(get_app(app).baselines)[:1], "heuristic", "oracle_best", "lrb"]
    datasets = expand_datasets(app, scale="smoke", limit=4)
    rows = run_suite(kernels, app=app, datasets=datasets, ctx=ctx)
    cells = _cells(app, kernels, datasets, ctx=ctx)
    assert [(r.kernel, r.dataset) for r in rows] == [
        (c.kernel, c.dataset) for c in cells
    ]
    for row, cell in zip(rows, cells):
        assert row == cell
        assert row.elapsed.hex() == cell.elapsed.hex(), (row.kernel, row.dataset)
        assert row.meta == cell.meta, (row.kernel, row.dataset)


@PRICING_CONTEXTS
def test_pricing_engine_sweep_runs_kernel_bodies_once_per_dataset(
    swap_bodies, monkeypatch, ctx
):
    monkeypatch.setattr(compiled, "_NUMBA", None)  # count the arrays body
    calls = [0]
    swap_bodies("bfs", _counting(calls))
    datasets = expand_datasets("bfs", scale="smoke", limit=4)
    one_cell = 0
    for dataset in datasets:
        calls[0] = 0
        run_cell("bfs", "merge_path", dataset, ctx=ctx)
        one_cell += calls[0]
    assert one_cell > len(datasets)  # several frontier launches each
    calls[0] = 0
    run_suite(FIVE_KERNELS, app="bfs", datasets=datasets, ctx=ctx)
    assert calls[0] == one_cell


def test_reprice_resolves_each_distinct_launch_once(monkeypatch):
    """The smoke bfs sweep logs 2,072 frontier launches; 156 of them are
    distinct, so the recording pass resolves 156 launches and its four
    repriced kernels 624, not 8,288."""
    calls = {"record": 0, "reprice": 0}
    schedule_for = Runtime.schedule_for

    def counted(self, *args, **kwargs):
        calls["reprice" if type(self) is Runtime else "record"] += 1
        return schedule_for(self, *args, **kwargs)

    monkeypatch.setattr(Runtime, "schedule_for", counted)
    run_suite(FIVE_KERNELS, app="bfs", datasets=expand_datasets("bfs", scale="smoke"))
    assert calls["record"] == 156
    assert calls["reprice"] == (len(FIVE_KERNELS) - 1) * calls["record"]


def test_recording_runtime_holds_one_entry_per_distinct_launch(monkeypatch):
    """However many launches a run logs, the runtime keeps one schedule
    (and one work) per distinct launch."""
    runtimes = []
    init = RecordingRuntime.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    monkeypatch.setattr(RecordingRuntime, "__init__", kept)
    run_suite(FIVE_KERNELS, app="bfs", datasets=expand_datasets("bfs", scale="smoke"))
    assert sum(len(rt.launches) for rt in runtimes) == 2072
    for rt in runtimes:
        distinct = len(set(rt.launches))
        assert len(rt._distinct) <= distinct
        assert len(rt._by_sched) <= distinct
    assert sum(len(rt._distinct) for rt in runtimes) == 156


class _Probe(SchedulePolicy):
    """A fixed schedule that records every launch it is asked to resolve."""

    def __init__(self, name):
        self.name = name
        self.seen = []

    def select(self, work, spec, *, matrix=None, costs=None, plan=None):
        self.seen.append((id(matrix), costs))
        return self.name

    def describe(self):
        return self.name


_NOOP = KernelDecl("noop", lambda: None)


def _record(launches, extras=None):
    """Log ``(counts, matrix, costs)`` launches on a fresh recording
    runtime, naming the result after the first launch's schedule."""
    rt = RecordingRuntime(VectorEngine(), policy=as_policy("thread_mapped"))
    for i, (counts, matrix, costs) in enumerate(launches):
        sched = rt.schedule_for(
            WorkSpec.from_counts(counts), matrix=matrix, costs=costs
        )
        rt.run_launch(sched, costs, _NOOP, (), extras=extras or {"iteration": i})
        if i == 0:
            rt.schedule_name(sched)
    return rt


def _launch_stats(counts, matrix, costs, schedule, extras=None):
    """One launch's stats on a plain runtime: what a per-cell run prices."""
    rt = Runtime(VectorEngine(), policy=as_policy(schedule))
    work = WorkSpec.from_counts(counts)
    sched = rt.schedule_for(work, matrix=matrix, costs=costs)
    return rt.run_launch(sched, costs, _NOOP, (), extras=extras)[1]


def test_reprice_keys_launches_on_costs_and_matrix():
    """Equal offsets alone do not make launches one: a launch with other
    costs, or over another matrix, is resolved on its own."""
    cheap = WorkCosts(atom_cycles=4.0, tile_cycles=2.0)
    dear = WorkCosts(atom_cycles=40.0, tile_cycles=2.0)
    m1, m2 = CsrMatrix.empty((3, 3)), CsrMatrix.empty((3, 3))
    counts = [3, 0, 5]
    launches = [
        (counts, m1, cheap),
        (list(counts), m1, cheap),  # same content, new arrays: one launch
        (counts, m1, dear),
        (counts, m2, cheap),
        (counts, m1, cheap),
    ]
    rt = _record(launches)
    probe = _Probe("merge_path")
    stats, name = rt.reprice(probe)
    assert name == "merge_path"
    assert probe.seen == [(id(m1), cheap), (id(m1), dear), (id(m2), cheap)]
    # The fold still runs over every logged launch, in order.
    per_launch = [
        _launch_stats(counts, matrix, costs, "merge_path")
        for counts, matrix, costs in launches
    ]
    assert stats == KernelStats.chain(per_launch)


def test_one_launch_log_keeps_its_extras():
    costs = WorkCosts(atom_cycles=4.0, tile_cycles=2.0)
    extras = {"app": "one", "k": 3}
    rt = _record([([2, 7, 1], None, costs)], extras=extras)
    stats, name = rt.reprice(as_policy("lrb"))
    direct = _launch_stats([2, 7, 1], None, costs, "lrb", extras=extras)
    assert name == "lrb"
    assert stats == direct
    assert stats.extras == direct.extras
    assert stats.extras.items() >= extras.items()


def _runs_every_cell(ctx, calls):
    """A bfs sweep under ``ctx`` counts as many ``calls`` as its cells
    run one by one, and reports their rows."""
    kernels = ["thread_mapped", "merge_path", "lrb"]
    datasets = expand_datasets("bfs", scale="smoke", limit=2)
    cells = _cells("bfs", kernels, datasets, ctx=ctx)
    per_cell = calls[0]
    calls[0] = 0
    assert run_suite(kernels, app="bfs", datasets=datasets, ctx=ctx) == cells
    assert per_cell > 0 and calls[0] == per_cell


def test_simt_sweep_runs_every_cell(monkeypatch):
    calls = [0]
    launch = SimtEngine.launch

    def counted_launch(self, *args, **kwargs):
        calls[0] += 1
        return launch(self, *args, **kwargs)

    monkeypatch.setattr(SimtEngine, "launch", counted_launch)
    assert SimtEngine.price is None
    _runs_every_cell(ExecutionContext(engine="simt", spec=TINY_GPU), calls)


class _EchoEngine(Engine):
    """A third-party engine defining only ``launch`` (the vector engine's
    result): it promises nothing about the schedule, so it has no price."""

    name = "echo"

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        return VectorEngine().launch(sched, costs, decl, args, extras=extras)


def test_launch_only_engine_sweep_runs_every_cell(swap_bodies):
    calls = [0]
    swap_bodies("bfs", _counting(calls))
    assert _EchoEngine().price is None
    _runs_every_cell(ExecutionContext(engine=_EchoEngine()), calls)


@pytest.mark.parametrize("engine", [SimtEngine(), _EchoEngine()], ids=["simt", "echo"])
def test_recording_runtime_needs_a_pricing_engine(engine):
    with pytest.raises(EngineError, match="cannot be repriced"):
        RecordingRuntime(engine, policy=as_policy("merge_path"))


@pytest.mark.parametrize("failing", ["match", "sample_check"])
def test_validation_failure_names_the_cell(monkeypatch, failing):
    """Every cell validates the shared output with its own checks: a
    failed ``match`` stops the first cell; a sample check failing only
    under ``lrb``'s per-cell seed stops the repriced ``lrb`` cell."""
    [dataset] = expand_datasets("spmv", scale="smoke", limit=1)
    spec = get_app("spmv")
    if failing == "match":
        bad = dataclasses.replace(spec, match=lambda output, expected: False)
        kernel, message = "merge_path", "validation failed"
    else:
        lrb_seed = harness._sample_seed("spmv", "lrb", dataset, 0)
        bad = dataclasses.replace(
            spec,
            sample_check=lambda problem, output, seed: seed != lrb_seed,
        )
        kernel, message = "lrb", "sampled dense check failed"
    monkeypatch.setattr(harness, "get_app", lambda name: bad)
    with pytest.raises(AssertionError) as info:
        run_suite(["merge_path", "lrb"], datasets=[dataset], seed=0)
    assert str(info.value) == (
        f"{message} for app=spmv kernel={kernel} dataset={dataset.name}"
    )


@pytest.mark.parametrize("app", available_apps())
def test_oracle_stands_without_the_kernel_bodies(swap_bodies, app):
    spec = get_app(app)
    problem = spec.sweep_problem(load_dataset("tiny_power_256", "smoke").matrix, 0)
    output = run_app(spec, problem).output

    def make(body):
        def forbidden(*args):
            raise AssertionError(f"the {app} oracle ran a kernel body")

        return forbidden

    swap_bodies(app, make)
    with pytest.raises(AssertionError):
        run_app(spec, problem)  # the bodies really are gone
    assert spec.match(output, spec.oracle(problem))
