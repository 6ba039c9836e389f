"""Unit tests for repro.gpusim.memory."""

import numpy as np
import pytest

from repro.gpusim.arch import TINY_GPU, V100
from repro.gpusim.memory import SharedMemory


class TestSharedMemory:
    def test_same_name_same_array(self):
        sm = SharedMemory(V100)
        a = sm.alloc("buf", (16,), np.int64)
        b = sm.alloc("buf", (16,), np.int64)
        assert a is b

    def test_different_names_different_arrays(self):
        sm = SharedMemory(V100)
        assert sm.alloc("a", (4,)) is not sm.alloc("b", (4,))

    def test_limit_enforced(self):
        sm = SharedMemory(TINY_GPU)
        with pytest.raises(MemoryError, match="shared memory"):
            sm.alloc("huge", (TINY_GPU.shared_mem_per_block,), np.float64)

    def test_bytes_tracking_and_reset(self):
        sm = SharedMemory(V100)
        sm.alloc("a", (8,), np.float64)
        assert sm.bytes_allocated == 64
        sm.reset()
        assert sm.bytes_allocated == 0
        # After reset the same name allocates fresh.
        arr = sm.alloc("a", (8,), np.float64)
        assert arr.sum() == 0
