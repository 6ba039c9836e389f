"""Kernel effect extraction: per-array write classes from scalar bodies.

The classifier's whole value is getting each app's write provenance
*right* -- a tile-private write misread as a scatter makes every verdict
uselessly conservative, and the reverse is unsound.  These tests pin the
classification of all nine registered apps plus the structural pieces
(params, outputs, shared declarations, declared overrides).
"""

from __future__ import annotations

import pytest

from repro.analysis import kernel_effects
from repro.analysis.effects import WRITE_CLASSES
from repro.engine import KernelDecl, available_apps, get_app


def effects_by_key():
    return {(e.app, e.label): e for e in kernel_effects()}


def write_classes(effects):
    return {w.array: w.write_class for w in effects.writes}


class TestRegistryCoverage:
    def test_every_app_declares_effects(self):
        for app in available_apps():
            assert get_app(app).kernels, app
        assert {e.app for e in kernel_effects()} == set(available_apps())

    def test_write_classes_are_known(self):
        for effects in kernel_effects():
            for w in effects.writes:
                assert w.write_class in WRITE_CLASSES

    def test_effects_sorted_and_filterable(self):
        all_effects = kernel_effects()
        keys = [(e.app, e.label) for e in all_effects]
        assert keys == sorted(keys)
        only = kernel_effects("spmv")
        assert [e.app for e in only] == ["spmv"]


class TestPerAppClassification:
    """The pinned provenance of every kernel's writes."""

    def test_spmv_output_is_tile_private(self):
        effects = effects_by_key()[("spmv", "spmv")]
        assert write_classes(effects) == {"y": "tile_private"}

    def test_spmm_output_is_tile_private(self):
        # c[row, col]: a (tile, dense-column) pair is still per-tile.
        effects = effects_by_key()[("spmm", "spmm")]
        assert write_classes(effects) == {"c": "tile_private"}

    def test_spgemm_count_is_tile_private(self):
        effects = effects_by_key()[("spgemm", "count")]
        assert write_classes(effects) == {"per_row": "tile_private"}

    def test_spgemm_compute_is_declared_scatter(self):
        effects = effects_by_key()[("spgemm", "compute")]
        assert write_classes(effects) == {"c": "scatter"}
        assert all(w.declared for w in effects.writes)

    def test_mttkrp_factor_rows_are_tile_private(self):
        effects = effects_by_key()[("spmttkrp", "mttkrp")]
        assert write_classes(effects) == {"m": "tile_private"}

    def test_histogram_bins_are_scatter(self):
        # The bin index is data-dependent: no schedule makes it safe.
        effects = effects_by_key()[("histogram", "histogram")]
        assert write_classes(effects) == {"hist": "scatter"}

    def test_triangle_count_total_is_global_reduce(self):
        effects = effects_by_key()[("triangle_count", "intersect")]
        assert write_classes(effects) == {"count": "global_reduce"}
        assert effects.outputs == ("count",)

    def test_bfs_depth_and_mask_are_scatter(self):
        effects = effects_by_key()[("bfs", "advance")]
        classes = write_classes(effects)
        assert classes["depth"] == "scatter"
        assert classes["next_mask"] == "scatter"

    def test_sssp_scratch_is_atom_private_outputs_scatter(self):
        effects = effects_by_key()[("sssp", "advance")]
        classes = write_classes(effects)
        assert classes["dist"] == "scatter"
        assert classes["next_mask"] == "scatter"
        # Per-edge snapshots indexed by the flat loop variable.
        assert classes["candidate"] == "atom_private"
        assert classes["before"] == "atom_private"

    def test_pagerank_delegates_to_spmv(self):
        # PageRank lists SpMV's declaration object, so its effects are
        # SpMV's by construction -- no delegation layer in between.
        assert get_app("pagerank").kernels == get_app("spmv").kernels
        effects = effects_by_key()
        pagerank, spmv = effects[("pagerank", "spmv")], effects[("spmv", "spmv")]
        assert pagerank.writes == spmv.writes
        assert write_classes(pagerank) == {"y": "tile_private"}


class TestDeclarationValidation:
    def test_declared_override_rejects_unknown_class(self):
        from repro.analysis.effects import _effects_for_decl

        decl = KernelDecl("y", lambda: None, writes={"out": "sideways"})
        with pytest.raises(ValueError, match="sideways"):
            _effects_for_decl("x", decl)
