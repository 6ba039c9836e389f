"""Schedule state derived on first use, and the sort-free BFS relax.

merge_path's diagonal partition and lrb's bin permutation are derived on
first use, so a frontier launch whose plan is already cached builds
neither; whichever consumer derives the state first, every view of the
schedule must equal a schedule built with the state computed eagerly.
BFS's vectorized relax must claim exactly what its flat loop claims.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.apps.traversal import traversal_costs
from repro.core.schedule import LaunchParams, make_schedule
from repro.core.schedules import lrb as lrb_module
from repro.core.schedules import merge_path as mp_module
from repro.core.work import WorkSpec
from repro.engine.compiled import materialize_loads, tile_writer_counts
from repro.engine.plan_cache import PlanCache
from repro.gpusim.arch import TINY_GPU, V100

bfs_module = importlib.import_module("repro.apps.bfs")

SKEWED = [0, 1, 40, 3, 3, 0, 17, 2, 2, 2, 90, 0, 5]


def _work(counts=SKEWED):
    return WorkSpec.from_counts(np.asarray(counts, dtype=np.int64))


@pytest.fixture
def builds(monkeypatch):
    """Calls of each schedule's state builder."""
    counts = {"merge_path_partition": 0, "lrb_bins": 0}
    for module, name in ((mp_module, "merge_path_partition"),
                         (lrb_module, "lrb_bins")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _eager(sched):
    """The same schedule with its state computed at construction."""
    eager = make_schedule(sched.name, sched.work, sched.spec, sched.launch,
                          **sched.construction_options)
    work = sched.work
    if sched.name == "merge_path":
        total = work.num_tiles + work.num_atoms
        diagonals = np.minimum(
            np.arange(sched.launch.num_threads + 1, dtype=np.int64)
            * sched.items_per_thread,
            total,
        )
        eager.__dict__["_partition"] = mp_module.merge_path_partition(
            work.tile_offsets, work.num_atoms, diagonals
        )
    else:
        bins = lrb_module.lrb_bins(work.atoms_per_tile())
        eager.__dict__["permutation"] = np.argsort(-bins, kind="stable")
    return eager


CASES = [
    ("merge_path", SKEWED, None, {}),
    ("merge_path", SKEWED, LaunchParams(2, 8), {"items_per_thread": 3}),
    ("merge_path", [], None, {}),
    ("lrb", SKEWED, None, {}),
    ("lrb", SKEWED, LaunchParams(1, 8), {}),
    ("lrb", [], None, {}),
]


def _fresh(name, counts, launch, options):
    return make_schedule(name, _work(counts), TINY_GPU, launch, **options)


class TestLazyState:
    @pytest.mark.parametrize("name", ["merge_path", "lrb"])
    def test_construction_builds_nothing(self, builds, name):
        make_schedule(name, _work(), V100)
        assert builds == {"merge_path_partition": 0, "lrb_bins": 0}

    @pytest.mark.parametrize(
        "name, builder",
        [("merge_path", "merge_path_partition"), ("lrb", "lrb_bins")],
    )
    def test_plan_cache_hit_builds_nothing(self, builds, name, builder):
        cache, costs = PlanCache(), traversal_costs(V100)
        first = cache.plan(make_schedule(name, _work(), V100), costs)
        assert cache.misses == 1 and builds[builder] == 1
        again = cache.plan(make_schedule(name, _work(), V100), costs)
        assert cache.hits == 1 and builds[builder] == 1
        assert again == first

    @pytest.mark.parametrize("name, counts, launch, options", CASES)
    def test_views_equal_an_eager_build(self, name, counts, launch, options):
        costs = traversal_costs(TINY_GPU)
        eager = _eager(_fresh(name, counts, launch, options))
        # Each view runs on a fresh schedule, so it derives the state itself.
        np.testing.assert_array_equal(
            _fresh(name, counts, launch, options).cycles(costs),
            eager.cycles(costs),
        )
        assert _fresh(name, counts, launch, options).plan(costs) == eager.plan(costs)
        for lazy_view, eager_view in zip(
            materialize_loads(_fresh(name, counts, launch, options)),
            materialize_loads(eager),
        ):
            np.testing.assert_array_equal(lazy_view, eager_view)
        np.testing.assert_array_equal(
            tile_writer_counts(_fresh(name, counts, launch, options)),
            tile_writer_counts(eager),
        )
        if name == "merge_path":
            lazy = _fresh(name, counts, launch, options)
            for t in range(lazy.launch.num_threads):
                assert lazy.thread_partition(t) == eager.thread_partition(t)
        else:
            np.testing.assert_array_equal(
                _fresh(name, counts, launch, options).permutation,
                eager.permutation,
            )


def _relax_both(targets, depth, level=3):
    targets = np.asarray(targets, dtype=np.int64)
    depth = np.asarray(depth, dtype=np.int64)
    arrays_depth, scalar_depth = depth.copy(), depth.copy()
    arrays_mask = bfs_module._bfs_relax_arrays(
        targets, arrays_depth, level, depth.size
    )
    scalar_mask = bfs_module._bfs_relax_scalar(
        targets, scalar_depth, level, depth.size
    )
    return (arrays_mask, arrays_depth), (scalar_mask, scalar_depth)


U = bfs_module.UNVISITED


class TestBfsRelaxParity:
    @pytest.mark.parametrize(
        "targets, depth",
        [
            ([2, 2, 2, 4, 4], [0, 1, U, U, U]),  # duplicated targets
            ([0, 1, 1, 3], [0, 1, 2, U]),  # already visited ones
            ([0, 1, 2], [0, 1, 2]),  # nothing fresh
            ([], [0, U, U]),  # empty frontier expansion
            ([4, 3, 4, 0, 3, 1], [0, U, 2, U, U]),  # unsorted mix
        ],
    )
    def test_arrays_equal_scalar(self, targets, depth):
        (a_mask, a_depth), (s_mask, s_depth) = _relax_both(targets, depth)
        assert a_mask.dtype == s_mask.dtype == np.bool_
        np.testing.assert_array_equal(a_mask, s_mask)
        np.testing.assert_array_equal(a_depth, s_depth)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_expansions(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        depth = np.where(rng.random(n) < 0.4, rng.integers(0, 3, n), U)
        targets = rng.integers(0, n, size=200)
        (a_mask, a_depth), (s_mask, s_depth) = _relax_both(targets, depth)
        np.testing.assert_array_equal(a_mask, s_mask)
        np.testing.assert_array_equal(a_depth, s_depth)
