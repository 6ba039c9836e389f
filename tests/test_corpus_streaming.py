"""A serial sweep streams the corpus: each dataset is generated when the
loop reaches it and released after its rows, so peak memory is one
dataset, not the whole corpus.

Every corpus dataset goes through ``corpus.load_dataset``; the fixture
wraps it to count the matrices alive (``weakref.finalize`` on each one
as it is built) and the most alive at any one build.
"""

from __future__ import annotations

import weakref

import pytest

from repro.evaluation.harness import expand_datasets, run_suite
from repro.sparse import corpus


@pytest.fixture
def tracked(monkeypatch):
    counts = {"alive": 0, "built": 0, "peak": 0}
    load = corpus.load_dataset

    def _released(counts=counts):
        counts["alive"] -= 1

    def load_tracked(name, scale="standard"):
        dataset = load(name, scale)
        counts["built"] += 1
        counts["alive"] += 1
        counts["peak"] = max(counts["peak"], counts["alive"])
        weakref.finalize(dataset.matrix, _released)
        return dataset

    monkeypatch.setattr(corpus, "load_dataset", load_tracked)
    return counts


@pytest.mark.parametrize("app", ["spmv", "bfs"])
def test_serial_sweep_holds_at_most_two_matrices(tracked, app):
    rows = run_suite(["merge_path", "thread_mapped"], app=app, scale="smoke")
    built, peak = tracked["built"], tracked["peak"]
    assert built == len(corpus.corpus_names("smoke"))
    assert len(rows) == 2 * len(expand_datasets(app, scale="smoke"))
    assert peak <= 2


def test_named_datasets_build_only_those(tracked, monkeypatch):
    from repro.evaluation import harness

    monkeypatch.setattr(harness, "load_dataset", corpus.load_dataset)
    names = ["rmat_s", "power_a19", "band_27p"]
    datasets = expand_datasets("spmv", scale="smoke", names=names)
    assert [d.name for d in datasets] == names
    assert tracked["built"] == len(names)


def test_expand_datasets_holds_the_list(tracked):
    """The pool and the service need every shard up front."""
    datasets = expand_datasets("spmv", scale="smoke", limit=5)
    assert [d.name for d in datasets] == corpus.corpus_names("smoke")[:5]
    assert tracked["alive"] == 5


@pytest.mark.parametrize("limit", [-1, -3])
def test_negative_limit_raises_before_building(tracked, limit):
    with pytest.raises(ValueError, match="limit"):
        run_suite(["merge_path"], scale="smoke", limit=limit)
    with pytest.raises(ValueError, match="limit"):
        corpus.iter_corpus("smoke", limit=limit)
    with pytest.raises(ValueError, match="limit"):
        corpus.build_corpus("smoke", limit=limit)
    assert tracked["built"] == 0


def test_unknown_scale_raises_before_building(tracked):
    with pytest.raises(ValueError, match="unknown scale"):
        run_suite(["merge_path"], scale="huge")
    with pytest.raises(ValueError, match="unknown scale"):
        corpus.iter_corpus("huge")
    with pytest.raises(ValueError, match="unknown scale"):
        expand_datasets("spmv", scale="huge")
    assert tracked["built"] == 0


def test_zero_limit_builds_nothing(tracked):
    assert run_suite(["merge_path"], scale="smoke", limit=0) == []
    assert list(corpus.iter_corpus("smoke", limit=0)) == []
    assert corpus.build_corpus("smoke", limit=0) == []
    assert tracked["built"] == 0


def test_unknown_names_raise_before_building(tracked):
    with pytest.raises(ValueError, match="unknown datasets"):
        expand_datasets("spmv", scale="smoke", names=["rmat_s", "nope"])
    # A name past ``limit`` is unknown to that sweep, as before.
    with pytest.raises(ValueError, match="unknown datasets"):
        expand_datasets("spmv", scale="smoke", limit=2, names=["rmat_s"])
    assert tracked["built"] == 0


def test_iter_corpus_matches_build_corpus():
    streamed = corpus.iter_corpus("smoke", families=["skewed"], limit=3)
    built = corpus.build_corpus("smoke", families=["skewed"], limit=3)
    assert [(d.name, d.matrix) for d in streamed] == [
        (d.name, d.matrix) for d in built
    ]
