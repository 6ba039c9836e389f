"""``repro.sparse`` -- sparse formats, IO, generators and the corpus.

Implements the data substrate the paper's framework consumes: CSR/CSC/COO
formats (Section 3.1 lists these as built-ins), MatrixMarket IO (the
artifact's dataset format), and the synthetic SuiteSparse-like corpus used
by the evaluation harness.
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
from .graph import CsrGraph, random_graph
from .tensor import SparseTensor3, random_tensor
from .mtx_io import MtxFormatError, read_mtx, write_mtx

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
