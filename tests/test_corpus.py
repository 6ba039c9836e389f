"""Tests for the benchmark corpus."""

import hashlib

import pytest

from repro.sparse.corpus import SCALES, build_corpus, corpus_names, load_dataset


class TestNames:
    def test_names_stable_across_scales(self):
        assert corpus_names("smoke") == corpus_names("standard") == corpus_names("full")

    def test_enough_datasets(self):
        assert len(corpus_names()) >= 30

    def test_scales_tuple(self):
        assert SCALES == ("smoke", "standard", "full")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            corpus_names("huge")


class TestLoadDataset:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("nope")

    def test_deterministic(self):
        a = load_dataset("power_a21", "smoke")
        b = load_dataset("power_a21", "smoke")
        assert a.matrix == b.matrix

    def test_meta_populated(self):
        d = load_dataset("rmat_s", "smoke")
        assert d.meta["scale"] == "smoke"
        assert "cv" in d.meta
        assert d.family == "skewed"

    def test_scale_grows_matrices(self):
        small = load_dataset("uniform_8", "smoke")
        std = load_dataset("uniform_8", "standard")
        assert std.nnz > 4 * small.nnz

    def test_tiny_family_fixed_size(self):
        # Tiny matrices stay tiny at every scale (launch-overhead regime).
        assert (
            load_dataset("tiny_diag_32", "smoke").nnz
            == load_dataset("tiny_diag_32", "full").nnz
        )


class TestBuildCorpus:
    def test_full_build_smoke(self):
        corpus = build_corpus("smoke")
        assert len(corpus) == len(corpus_names())
        for d in corpus:
            d.matrix.validate()
            assert d.nnz > 0

    def test_family_filter(self):
        corpus = build_corpus("smoke", families=["spvec"])
        assert len(corpus) == 3
        assert all(d.cols == 1 for d in corpus)

    def test_limit(self):
        # Mirrors run.sh's "first N datasets" stop condition.
        corpus = build_corpus("smoke", limit=5)
        assert len(corpus) == 5

    def test_zero_limit_builds_nothing(self):
        assert build_corpus("smoke", limit=0) == []

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            build_corpus("smoke", limit=-3)

    def test_covers_imbalance_regimes(self):
        corpus = build_corpus("smoke")
        families = {d.family for d in corpus}
        assert {"tiny", "spvec", "regular", "mild", "skewed", "outlier"} <= families
        cvs = [d.meta["cv"] for d in corpus]
        assert min(cvs) < 0.1  # perfectly balanced exists
        assert max(cvs) > 2.0  # heavily skewed exists

    def test_nnz_spans_orders_of_magnitude(self):
        corpus = build_corpus("standard")
        nnzs = sorted(d.nnz for d in corpus)
        assert nnzs[0] < 100
        assert nnzs[-1] > 100_000


#: SHA-256 over every dataset's name, shape and CSR arrays (dtype + bytes).
#: Any generator change that moves a single bit of the corpus fails here.
CORPUS_SHA256 = {
    "smoke": "84021c9fb13e634b76e1a9b628ff835f46aeb0892222f5dbae743ceb724e2028",
    "standard": "faead1a5ff98c867a571eaa667857998470a886fa3532d9d7cfa127c544fbd36",
}


@pytest.mark.parametrize("scale", sorted(CORPUS_SHA256))
def test_corpus_bits_pinned(scale):
    h = hashlib.sha256()
    for d in build_corpus(scale):
        m = d.matrix
        h.update(f"{d.name}:{m.shape}".encode())
        for arr in (m.row_offsets, m.col_indices, m.values):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    assert h.hexdigest() == CORPUS_SHA256[scale]
