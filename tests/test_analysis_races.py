"""Race verdicts: closed forms, the snapshot matrix, and probe soundness.

Three layers of assurance, strongest last:

1. the closed-form per-schedule tile-writer counts equal a thread-by-
   thread probe of ``tiles()``/``atoms()``/``owns_tile_fully`` on skewed
   instances (``test_schedule_loads.py``, with the loads);
2. the full verdict matrix is pinned as a snapshot, so a new app or
   schedule registration must consciously extend it;
3. soundness: every ``SAFE`` cell of the matrix is validated by the
   shadow-write probe -- the real drivers on the interpreted SIMT path,
   with zero observed cross-thread overlap on the cell's kernel writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    probe_matrix,
    run_probe,
    schedule_profile,
    verdict_matrix,
)
from repro.analysis.races import VERDICTS, canonical_work
from repro.core.schedule import available_schedules, make_schedule
from repro.core.work import WorkSpec
from repro.gpusim.arch import TINY_GPU


def make_work(counts, label="race-test"):
    offsets = np.concatenate(
        ([0], np.cumsum(np.asarray(counts, dtype=np.int64)))
    )
    return WorkSpec.from_offsets(offsets, label=label)


SHAPES = {
    "canonical": [64] + [5] * 12 + [0] * 16 + [1] * 19,
    "empty-heavy": [0, 0, 100, 0, 0, 1, 1, 0, 7],
    "singletons": [1] * 40,
    "alternating": [0, 3, 0, 3, 0, 3, 17, 0, 0, 2, 1],
    "one-tile": [37],
    "all-empty": [0] * 10,
}


class TestTileWriters:
    def test_single_writer_schedules_never_split_tiles(self):
        for name in ("thread_mapped", "dynamic_queue"):
            for shape, counts in SHAPES.items():
                sched = make_schedule(name, make_work(counts), TINY_GPU)
                assert int(sched.tile_writers().max(initial=0)) <= 1, (
                    f"{name} split a tile on {shape}"
                )


class TestScheduleProfiles:
    def test_canonical_work_is_skewed(self):
        work = canonical_work()
        counts = work.atoms_per_tile()
        assert counts.max() >= 64 and (counts == 0).sum() >= 16

    def test_atom_splitting_schedules_show_multiple_writers(self):
        for name in ("merge_path", "nonzero_split", "warp_mapped",
                     "block_mapped", "group_mapped", "lrb"):
            assert schedule_profile(name)["max_tile_writers"] > 1, name

    def test_dynamic_queue_potential_is_chunk_bounded(self):
        profile = schedule_profile("dynamic_queue")
        sched = make_schedule("dynamic_queue", canonical_work(), TINY_GPU)
        assert profile["potential_writers"] == min(
            int(sched.launch.num_threads), int(sched.num_chunks())
        )
        assert profile["potential_writers"] > 1


# The pinned matrix: rows sorted by (app, label), verdicts keyed by
# schedule.  A registration change (new app, new schedule, a kernel
# rewrite that changes a write class) must consciously update this.
EXPECTED_VERDICTS = {
    ("bfs", "advance"): "SCATTER",
    ("histogram", "histogram"): "SCATTER",
    ("spgemm", "compute"): "SCATTER",
    ("sssp", "advance"): "SCATTER",
    ("triangle_count", "intersect"): "REDUCE",
}
TILE_PRIVATE_ROWS = (
    ("pagerank", "spmv"),
    ("spgemm", "count"),
    ("spmm", "spmm"),
    ("spmttkrp", "mttkrp"),
    ("spmv", "spmv"),
)
SINGLE_WRITER_SCHEDULES = ("thread_mapped", "dynamic_queue")


class TestVerdictMatrix:
    def test_snapshot(self):
        matrix = verdict_matrix()
        assert matrix["schedules"] == list(available_schedules())
        rows = {(r["app"], r["label"]): r for r in matrix["rows"]}
        expected_keys = set(EXPECTED_VERDICTS) | set(TILE_PRIVATE_ROWS)
        assert set(rows) == expected_keys, (
            "app/kernel registrations changed: extend the verdict snapshot"
        )
        for key, verdict in EXPECTED_VERDICTS.items():
            for sched in matrix["schedules"]:
                assert rows[key]["verdicts"][sched] == verdict, (key, sched)
        for key in TILE_PRIVATE_ROWS:
            for sched in matrix["schedules"]:
                expected = (
                    "SAFE" if sched in SINGLE_WRITER_SCHEDULES else "REDUCE"
                )
                assert rows[key]["verdicts"][sched] == expected, (key, sched)

    def test_pagerank_row_is_a_delegate(self):
        matrix = verdict_matrix()
        row = next(r for r in matrix["rows"] if r["app"] == "pagerank")
        spmv_row = next(r for r in matrix["rows"] if r["app"] == "spmv")
        assert row["label"] == spmv_row["label"] == "spmv"
        assert row["writes"] == spmv_row["writes"]
        assert row["verdicts"] == spmv_row["verdicts"]

    def test_matrix_is_cached_content_keyed(self):
        first = verdict_matrix()
        assert verdict_matrix() is first
        assert "content_key" in first

    def test_restriction_filters(self):
        matrix = verdict_matrix(apps=["spmv"], schedules=["merge_path"])
        assert [r["app"] for r in matrix["rows"]] == ["spmv"]
        assert matrix["schedules"] == ["merge_path"]

    def test_verdict_order(self):
        assert VERDICTS == ("SAFE", "REDUCE", "SCATTER")


class TestProbeSoundness:
    @pytest.fixture(scope="class")
    def probed(self):
        return probe_matrix()

    @pytest.fixture(scope="class")
    def matrix(self):
        return verdict_matrix()

    def test_matrix_covers_all_apps_and_schedules(self, matrix):
        from repro.engine import available_apps

        apps = {r["app"] for r in matrix["rows"]}
        assert apps == set(available_apps())
        assert len(matrix["schedules"]) == len(available_schedules())

    def test_every_safe_cell_has_no_observed_overlap(self, probed, matrix):
        safe_cells = 0
        for row in matrix["rows"]:
            for sched, verdict in row["verdicts"].items():
                if verdict != "SAFE":
                    continue
                safe_cells += 1
                result = probed[(row["app"], sched)]
                overlaps = result.overlaps_for(row["label"])
                assert overlaps == 0, (
                    f"SAFE cell {row['app']}/{row['label']} x {sched} "
                    f"observed {overlaps} cross-thread overlap(s): "
                    "the static verdict is unsound"
                )
        # The matrix must actually contain SAFE cells to validate: all
        # five tile-private kernels under both single-writer schedules.
        assert safe_cells == len(TILE_PRIVATE_ROWS) * len(
            SINGLE_WRITER_SCHEDULES
        )

    def test_probe_exercised_every_cell(self, probed, matrix):
        for row in matrix["rows"]:
            for sched in matrix["schedules"]:
                result = probed[(row["app"], sched)]
                assert any(launches > 0 for _, launches, _, _ in result.labels), (
                    f"{row['app']} x {sched}: the probe recorded no launches"
                )

    def test_probe_sees_real_overlaps_on_reduce_cells(self):
        # Sanity that the recorder is not blind: an atom-splitting
        # schedule on SpMV must show the overlaps REDUCE predicts.
        result = run_probe("spmv", "merge_path")
        assert result.overlaps_for("spmv") > 0
