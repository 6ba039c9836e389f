"""``repro.sparse`` -- sparse formats, IO, generators and the corpus.

Implements the data substrate the paper's framework consumes: CSR/CSC/COO
formats (Section 3.1 lists these as built-ins), MatrixMarket IO (the
artifact's dataset format), and the synthetic SuiteSparse-like corpus used
by the evaluation harness.

Importing the package loads the formats and the corpus (every sweep
reads both); the graph view, the sparse tensor and MatrixMarket IO load
when one of their names is first read.
"""

from .convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_coo,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    csr_transpose,
    offsets_from_counts,
)
from .coo import CooMatrix
from .corpus import (
    SCALES,
    Dataset,
    build_corpus,
    corpus_names,
    iter_corpus,
    load_dataset,
)
from .csc import CscMatrix
from .csr import CsrMatrix
from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".graph": ("CsrGraph", "random_graph"),
    ".tensor": ("SparseTensor3", "random_tensor"),
    ".mtx_io": ("MtxFormatError", "read_mtx", "write_mtx"),
})

__all__ = [
    "CooMatrix",
    "CscMatrix",
    "SparseTensor3",
    "random_tensor",
    "CsrMatrix",
    "CsrGraph",
    "random_graph",
    "coo_to_csc",
    "coo_to_csr",
    "csc_to_coo",
    "csc_to_csr",
    "csr_to_coo",
    "csr_to_csc",
    "csr_transpose",
    "offsets_from_counts",
    "MtxFormatError",
    "read_mtx",
    "write_mtx",
    "SCALES",
    "Dataset",
    "build_corpus",
    "corpus_names",
    "iter_corpus",
    "load_dataset",
]
