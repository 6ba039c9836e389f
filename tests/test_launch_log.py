"""One functional pass per dataset: pricing engines sweep from a launch log.

On every engine with ``price`` (vector, compiled, multi_gpu)
``run_suite`` runs each app's driver once per dataset on a
:class:`~repro.engine.dispatch.Runtime` and prices every other schedule
kernel from the logged launches.  These tests pin that the logged rows
are the per-cell rows, that the kernel bodies run once per dataset (and
still once per cell on SIMT and on launch-only engines), that every run
resolves and prices each distinct launch once, that validation stays
per cell, and that every oracle stands without the kernel bodies it
validates -- the precondition for validating one shared output.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

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
from repro.engine.dispatch import EngineError, Runtime
from repro.engine.multi_gpu import MultiGpuEngine
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
    distinct, so the logged run resolves 156 launches and each of its
    four repriced kernels 156 more, not 8,288 in all."""
    calls = Counter()
    resolve = Runtime._resolve

    def counted(self, policy, *args):
        calls[policy.describe()] += 1
        return resolve(self, policy, *args)

    monkeypatch.setattr(Runtime, "_resolve", counted)
    run_suite(FIVE_KERNELS, app="bfs", datasets=expand_datasets("bfs", scale="smoke"))
    assert calls == {kernel: 156 for kernel in FIVE_KERNELS}


def _kept_runtimes(monkeypatch):
    """Every :class:`Runtime` built from here on, in order."""
    runtimes = []
    init = Runtime.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    monkeypatch.setattr(Runtime, "__init__", kept)
    return runtimes


def test_runtime_holds_one_entry_per_distinct_launch(monkeypatch):
    """However many launches a run logs, the runtime keeps one schedule
    (and one work) per distinct launch."""
    runtimes = _kept_runtimes(monkeypatch)
    run_suite(FIVE_KERNELS, app="bfs", datasets=expand_datasets("bfs", scale="smoke"))
    assert sum(len(rt.launches) for rt in runtimes) == 2072
    for rt in runtimes:
        distinct = len(set(rt.launches))
        assert len(rt._distinct) <= distinct
        assert len(rt._by_sched) <= distinct
    assert sum(len(rt._distinct) for rt in runtimes) == 156


def test_multi_gpu_sweep_prices_each_distinct_launch_once_per_kernel(monkeypatch):
    """Every ``MultiGpuEngine.price`` call rebuilds the shard ensemble:
    the bfs sweep over five kernels makes one per distinct launch and
    kernel, not one per launch."""
    calls = [0]
    price = MultiGpuEngine.price

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return price(self, *args, **kwargs)

    monkeypatch.setattr(MultiGpuEngine, "price", counted)
    run_suite(FIVE_KERNELS, app="bfs", datasets=expand_datasets("bfs", scale="smoke"),
              ctx=ExecutionContext(gpus=4))
    assert calls[0] <= 156 * len(FIVE_KERNELS)


def test_run_app_prices_each_distinct_launch_once(monkeypatch):
    """A per-cell run prices each distinct launch once."""
    runtimes = _kept_runtimes(monkeypatch)
    priced = [0]
    price = VectorEngine.price

    def counted(self, *args, **kwargs):
        priced[0] += 1
        return price(self, *args, **kwargs)

    monkeypatch.setattr(VectorEngine, "price", counted)
    spec = get_app("bfs")
    for dataset in expand_datasets("bfs", scale="smoke"):
        priced[0] = 0
        run_app(spec, spec.sweep_problem(dataset.matrix, 0),
                ctx=ExecutionContext().with_policy("merge_path"))
        assert priced[0] == len(runtimes[-1]._distinct)
    assert sum(len(rt.launches) for rt in runtimes) == 2072
    assert sum(len(rt._distinct) for rt in runtimes) == 156


@PRICING_CONTEXTS
@pytest.mark.parametrize("app", available_apps())
def test_repeated_launch_stats_equal_a_fresh_price(monkeypatch, app, ctx):
    """Every launch of a run -- repeats included -- reports the stats,
    extras and all, a fresh ``engine.price`` gives it; so do the
    per-iteration stats a frontier app keeps in its ``trace``."""
    launches = []
    run_launch = Runtime.run_launch

    def logged(self, sched, costs, decl, args, *, simt=None, extras=None):
        out = run_launch(self, sched, costs, decl, args, simt=simt, extras=extras)
        launches.append((self.engine, sched, costs, decl, extras, out[1]))
        return out

    monkeypatch.setattr(Runtime, "run_launch", logged)
    spec = get_app(app)
    # A band graph: frontier loops and power iteration repeat launches.
    problem = spec.sweep_problem(load_dataset("tiny_band_128", "smoke").matrix, 0)
    result = run_app(spec, problem, ctx=ctx.with_policy("lrb"))
    assert launches
    if app in ("bfs", "sssp", "pagerank"):
        assert len({id(sched) for _, sched, *_ in launches}) < len(launches)
    for engine, sched, costs, decl, extras, stats in launches:
        fresh = engine.price(sched, costs, decl, extras=extras)
        assert stats == fresh
        assert stats.extras == fresh.extras
        assert list(stats.extras) == list(fresh.extras)
    trace = result.stats.extras.get("trace")
    if trace is not None:
        assert [i.stats.extras for i in trace] == [s[-1].extras for s in launches]
        assert [i.stats.extras["iteration"] for i in trace] == list(range(len(trace)))


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
    """Log ``(counts, matrix, costs)`` launches on a fresh runtime,
    naming the result after the first launch's schedule."""
    rt = Runtime(VectorEngine(), policy=as_policy("thread_mapped"))
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
def test_reprice_needs_a_pricing_engine(engine):
    costs = WorkCosts(atom_cycles=4.0, tile_cycles=2.0)
    rt = Runtime(engine, spec=TINY_GPU, policy=as_policy("merge_path"))
    sched = rt.schedule_for(WorkSpec.from_counts([2, 7, 1]), costs=costs)
    rt.schedule_name(sched)
    with pytest.raises(EngineError, match="cannot be repriced"):
        rt.reprice(as_policy("lrb"))


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
def test_oracle_stands_without_the_kernel_bodies(swap_bodies, monkeypatch, app):
    spec = get_app(app)
    problem = spec.sweep_problem(load_dataset("tiny_power_256", "smoke").matrix, 0)
    output = run_app(spec, problem).output

    def make(body):
        def forbidden(*args):
            raise AssertionError(f"the {app} oracle ran a kernel body")

        return forbidden

    swap_bodies(app, make)
    if app == "spgemm":
        # The driver's allocation stage is driver code too.
        monkeypatch.setattr(sys.modules["repro.apps.spgemm"],
                            "_expand_products", make(None))
    with pytest.raises(AssertionError):
        run_app(spec, problem)  # the bodies really are gone
    assert spec.match(output, spec.oracle(problem))
