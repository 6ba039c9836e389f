"""Each schedule declares its work assignment once.

A schedule's per-thread view (``tiles``/``atoms``) is its assignment.
``Schedule.loads`` (atoms and tile visits per thread) and
``Schedule.tile_writers`` (distinct writers per tile) derive from it:
the base class probes the iterators thread by thread, and every
built-in overrides both with a closed form that must equal that probe --
on skewed shapes, under non-default options and explicit launches.  A
schedule that declares nothing but ``tiles``/``atoms`` runs under every
engine, with the default ``cycles`` pricing its probed loads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import spmv
from repro.core.ranges import StepRange
from repro.core.schedule import (
    LaunchParams,
    Schedule,
    available_schedules,
    make_schedule,
)
from repro.core.work import WorkSpec
from repro.engine import ExecutionContext, input_vector
from repro.gpusim.arch import TINY_GPU

SHAPES = {
    "one-empty": [0],
    "mixed": [5, 0, 3, 1, 0, 9, 2],
    "ramp": list(range(33)),
    "heavy-head": [100] + [1] * 60,
    "canonical": [64] + [5] * 12 + [0] * 16 + [1] * 19,
    "empty-heavy": [0, 0, 100, 0, 0, 1, 1, 0, 7],
    "singletons": [1] * 40,
    "alternating": [0, 3, 0, 3, 0, 3, 17, 0, 0, 2, 1],
    "one-tile": [37],
    "all-empty": [0] * 10,
}

#: ``(schedule, launch, options)``: every schedule at its default launch,
#: at two explicit launches (several rounds per thread on the larger
#: shapes), and each schedule option off its default.
CASES = [
    *[(name, None, {}) for name in available_schedules()],
    *[(name, LaunchParams(2, 8), {}) for name in available_schedules()],
    *[(name, LaunchParams(3, 4), {}) for name in available_schedules()],
    ("merge_path", LaunchParams(2, 8), {"items_per_thread": 3}),
    ("nonzero_split", LaunchParams(2, 8), {"atoms_per_thread": 5}),
    ("group_mapped", LaunchParams(2, 8), {"group_size": 2}),
    ("group_mapped", LaunchParams(2, 8), {"group_size": 8}),
    ("dynamic_queue", None, {"chunk_size": 1}),
    ("dynamic_queue", LaunchParams(2, 8), {"chunk_size": 7}),
]


def _case_id(case) -> str:
    name, launch, options = case
    where = "default" if launch is None else f"{launch.grid_dim}x{launch.block_dim}"
    opts = ",".join(f"{k}={v}" for k, v in options.items())
    return "-".join(p for p in (name, where, opts) if p)


def _work(counts) -> WorkSpec:
    return WorkSpec.from_counts(np.asarray(counts, dtype=np.int64))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_closed_forms_equal_the_thread_probe(case, shape):
    name, launch, options = case
    sched = make_schedule(name, _work(SHAPES[shape]), TINY_GPU, launch, **options)
    atoms, visits, writers = Schedule._probe(sched)
    closed_atoms, closed_visits = sched.loads()
    np.testing.assert_array_equal(closed_atoms, atoms)
    np.testing.assert_array_equal(closed_visits, visits)
    np.testing.assert_array_equal(sched.tile_writers(), writers)


@pytest.mark.parametrize("name", available_schedules())
def test_every_registered_schedule_overrides_both_forms(name):
    cls = type(make_schedule(name, _work([1]), TINY_GPU))
    assert cls.loads is not Schedule.loads
    assert cls.tile_writers is not Schedule.tile_writers


class ChunkedTiles(Schedule):
    """One contiguous chunk of tiles per thread -- ``tiles``/``atoms``
    only, never registered."""

    def tiles(self, ctx) -> StepRange:
        per = -(-self.work.num_tiles // ctx.num_threads)
        lo = min(ctx.global_thread_id * per, self.work.num_tiles)
        return StepRange(lo, min(lo + per, self.work.num_tiles))

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        return StepRange(lo, hi)


def test_tiles_and_atoms_alone_run_under_every_engine(csr_from_counts):
    matrix = csr_from_counts([3, 0, 9, 1, 1, 14, 0, 2, 5, 5, 7, 1, 0, 4], cols=16)
    x = input_vector(matrix.num_cols)
    work = WorkSpec.from_csr(matrix)
    sched = ChunkedTiles(work, TINY_GPU, LaunchParams(1, 8))
    runs = {
        engine: spmv(
            matrix, x, ctx=ExecutionContext(engine=engine, spec=TINY_GPU, policy=sched)
        )
        for engine in ("vector", "compiled", "simt")
    }
    assert runs["vector"].elapsed_ms == runs["compiled"].elapsed_ms
    np.testing.assert_array_equal(runs["vector"].output, runs["compiled"].output)
    np.testing.assert_allclose(runs["simt"].output, runs["vector"].output)
    np.testing.assert_allclose(runs["vector"].output, matrix.to_dense() @ x)
