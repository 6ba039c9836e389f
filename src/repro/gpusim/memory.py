"""Per-block shared memory for the SIMT interpreter."""

from __future__ import annotations

import numpy as np

from .arch import GpuSpec


class SharedMemory:
    """A per-block scratchpad used by the SIMT interpreter.

    Named allocation mirrors CUDA's ``__shared__`` declarations: every
    thread in a block asking for the same name receives the same backing
    array.  The total footprint is checked against the spec's limit.
    """

    def __init__(self, spec: GpuSpec):
        self._spec = spec
        self._arrays: dict[str, np.ndarray] = {}
        self._bytes = 0

    def alloc(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        if name in self._arrays:
            return self._arrays[name]
        arr = np.zeros(shape, dtype=dtype)
        self._bytes += arr.nbytes
        if self._bytes > self._spec.shared_mem_per_block:
            raise MemoryError(
                f"shared memory request of {self._bytes} bytes exceeds the "
                f"per-block limit of {self._spec.shared_mem_per_block}"
            )
        self._arrays[name] = arr
        return arr

    @property
    def bytes_allocated(self) -> int:
        return self._bytes

    def reset(self) -> None:
        self._arrays.clear()
        self._bytes = 0
