"""Summary statistics for profiled kernels.

The paper reports geomean slowdowns and speedups over per-dataset
:class:`~repro.gpusim.cost_model.KernelStats` timings; :func:`geomean`
is that fold.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["geomean"]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; ignores non-positive entries (undefined for them)."""
    arr = np.asarray([v for v in values if v > 0], dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geomean of an empty (or non-positive) sequence")
    return float(np.exp(np.log(arr).mean()))
