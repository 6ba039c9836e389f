"""The benchmark corpus: a SuiteSparse-like collection of named matrices.

The paper's evaluation runs over ~the entire SuiteSparse Matrix Collection.
Offline, we substitute a deterministic synthetic corpus that spans the same
regimes the paper's scatter plots cover (see ``DESIGN.md``):

* five orders of magnitude in nnz,
* balanced / mildly-skewed / heavy-tailed row-degree distributions,
* the degenerate shapes the paper singles out (single-column sparse
  vectors, tiny matrices, few-dense-row outliers).

Three scale tiers keep runtimes proportionate: ``smoke`` for unit tests,
``standard`` for the benchmark harness (default), ``full`` for longer runs.
Every dataset is generated from a seed derived from its name, so the corpus
is stable across processes.  :func:`iter_corpus` generates the datasets one
at a time, as a serial sweep consumes them; :func:`build_corpus` holds them
all, for callers that need the whole list at once.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import generators as gen
from .csr import CsrMatrix

__all__ = [
    "Dataset",
    "corpus_names",
    "load_dataset",
    "iter_corpus",
    "build_corpus",
    "SCALES",
]

SCALES = ("smoke", "standard", "full")


@dataclass(frozen=True)
class Dataset:
    """A named corpus entry."""

    name: str
    family: str
    matrix: CsrMatrix
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def rows(self) -> int:
        return self.matrix.num_rows

    @property
    def cols(self) -> int:
        return self.matrix.num_cols

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


def _seed(name: str) -> int:
    return zlib.crc32(name.encode()) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Corpus definition.  Each entry: (name, family, builder(scale_mult, seed)).
# ``scale_mult`` multiplies row counts: smoke=1, standard=8, full=32.
# ----------------------------------------------------------------------
_SCALE_MULT = {"smoke": 1, "standard": 8, "full": 32}

_Builder = Callable[[int, int], CsrMatrix]


def _entry(name: str, family: str, builder: _Builder) -> tuple[str, str, _Builder]:
    return (name, family, builder)


_CORPUS_SPEC: list[tuple[str, str, _Builder]] = [
    # --- tiny matrices (launch overhead regime; fixed size at all scales) ---
    _entry("tiny_diag_32", "tiny", lambda m, s: gen.diagonal(32, s)),
    _entry("tiny_uniform_64", "tiny", lambda m, s: gen.uniform_random(64, 64, 4, s)),
    _entry("tiny_band_128", "tiny", lambda m, s: gen.banded(128, 2, s)),
    _entry("tiny_power_256", "tiny", lambda m, s: gen.power_law(256, 256, 6.0, 2.0, s)),
    _entry("tiny_poisson_512", "tiny", lambda m, s: gen.poisson_random(512, 512, 5.0, s)),
    _entry("small_uniform_1k", "tiny", lambda m, s: gen.uniform_random(1024, 1024, 8, s)),
    _entry("small_power_1k", "tiny", lambda m, s: gen.power_law(1024, 1024, 8.0, 1.9, s)),
    # --- single-column sparse vectors (CUB heuristic regime) ---
    _entry("spvec_2k", "spvec", lambda m, s: gen.single_column(2048, 0.6, s)),
    _entry("spvec_16k", "spvec", lambda m, s: gen.single_column(16384, 0.5, s)),
    _entry("spvec_64k", "spvec", lambda m, s: gen.single_column(65536, 0.4, s)),
    # --- regular/balanced (FEM- and stencil-like) ---
    _entry("band_3p", "regular", lambda m, s: gen.banded(1500 * m, 1, s)),
    _entry("band_9p", "regular", lambda m, s: gen.banded(1200 * m, 4, s)),
    _entry("band_27p", "regular", lambda m, s: gen.banded(800 * m, 13, s)),
    _entry("uniform_8", "regular", lambda m, s: gen.uniform_random(1000 * m, 1000 * m, 8, s)),
    _entry("uniform_32", "regular", lambda m, s: gen.uniform_random(700 * m, 700 * m, 32, s)),
    _entry("uniform_128", "regular", lambda m, s: gen.uniform_random(250 * m, 250 * m, 128, s)),
    _entry("blockdiag_16", "regular", lambda m, s: gen.block_diagonal(60 * m, 16, s)),
    _entry("blockdiag_64", "regular", lambda m, s: gen.block_diagonal(8 * m, 64, s)),
    _entry("diag_large", "regular", lambda m, s: gen.diagonal(4000 * m, s)),
    # --- mild skew ---
    _entry("poisson_4", "mild", lambda m, s: gen.poisson_random(1500 * m, 1500 * m, 4.0, s)),
    _entry("poisson_16", "mild", lambda m, s: gen.poisson_random(900 * m, 900 * m, 16.0, s)),
    _entry("poisson_64", "mild", lambda m, s: gen.poisson_random(300 * m, 300 * m, 64.0, s)),
    # --- heavy-tailed (graph-like; merge-path's home turf) ---
    _entry("power_a17", "skewed", lambda m, s: gen.power_law(1000 * m, 1000 * m, 12.0, 1.7, s)),
    _entry("power_a19", "skewed", lambda m, s: gen.power_law(1200 * m, 1200 * m, 10.0, 1.9, s)),
    _entry("power_a21", "skewed", lambda m, s: gen.power_law(1500 * m, 1500 * m, 8.0, 2.1, s)),
    _entry("power_a25", "skewed", lambda m, s: gen.power_law(1500 * m, 1500 * m, 6.0, 2.5, s)),
    _entry("rmat_s", "skewed", lambda m, s: gen.rmat(10 + _log2i(m), 8, seed=s)),
    _entry("rmat_m", "skewed", lambda m, s: gen.rmat(11 + _log2i(m), 12, seed=s)),
    _entry("rmat_wide", "skewed", lambda m, s: gen.rmat(12 + _log2i(m), 4, seed=s)),
    # --- pathological outliers (thread-mapped worst case) ---
    _entry(
        "outlier_few",
        "outlier",
        lambda m, s: gen.dense_row_outliers(800 * m, 800 * m, 3, 4, 600 * m, s),
    ),
    _entry(
        "outlier_many",
        "outlier",
        lambda m, s: gen.dense_row_outliers(600 * m, 600 * m, 5, 24, 200 * m, s),
    ),
    _entry(
        "outlier_extreme",
        "outlier",
        lambda m, s: gen.dense_row_outliers(400 * m, 400 * m, 2, 2, 350 * m, s),
    ),
    # --- empty-row heavy (frontier-like) ---
    _entry("empty_half", "empty", lambda m, s: gen.empty_heavy(1200 * m, 1200 * m, 0.5, 8, s)),
    _entry("empty_most", "empty", lambda m, s: gen.empty_heavy(1500 * m, 1500 * m, 0.9, 16, s)),
    # --- rectangular ---
    _entry("wide_4x", "rect", lambda m, s: gen.poisson_random(400 * m, 1600 * m, 12.0, s)),
    _entry("tall_4x", "rect", lambda m, s: gen.poisson_random(1600 * m, 400 * m, 6.0, s)),
]


def _log2i(m: int) -> int:
    return max(0, m.bit_length() - 1)


def corpus_names(scale: str = "standard") -> list[str]:
    """Names of all datasets in the corpus (same at every scale)."""
    _check_scale(scale)
    return [name for name, _, _ in _CORPUS_SPEC]


def load_dataset(name: str, scale: str = "standard") -> Dataset:
    """Build one corpus dataset by name."""
    _check_scale(scale)
    for entry_name, family, builder in _CORPUS_SPEC:
        if entry_name == name:
            mult = _SCALE_MULT[scale]
            matrix = builder(mult, _seed(f"{name}@{scale}"))
            return Dataset(
                name=name,
                family=family,
                matrix=matrix,
                meta={"scale": scale, **matrix.degree_stats()},
            )
    raise KeyError(f"unknown dataset {name!r}; see corpus_names()")


def iter_corpus(
    scale: str = "standard",
    *,
    families: list[str] | None = None,
    limit: int | None = None,
) -> Iterator[Dataset]:
    """The corpus (optionally filtered by family, truncated), lazily.

    Each dataset is generated when the iterator reaches it, so a loop
    that drops one dataset before taking the next holds one matrix at a
    time, as the artifact's ``run.sh`` loop does.  Mirrors that loop's
    knob limiting the run to the first N datasets (``limit=0`` yields
    none).  An unknown scale or a negative
    limit raises ``ValueError`` here, at the call, not at the first
    ``next``.
    """
    _check_scale(scale)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    names = [
        name for name, family, _ in _CORPUS_SPEC
        if families is None or family in families
    ][:limit]
    return (load_dataset(name, scale) for name in names)


def build_corpus(
    scale: str = "standard",
    *,
    families: list[str] | None = None,
    limit: int | None = None,
) -> list[Dataset]:
    """The whole corpus as a list: :func:`iter_corpus`, every dataset
    built up front and held.  For callers that need every dataset at once
    (the process pool and the sweep service place and publish them all
    before running any); a serial loop should iterate instead."""
    return list(iter_corpus(scale, families=families, limit=limit))


def _check_scale(scale: str) -> None:
    if scale not in _SCALE_MULT:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
