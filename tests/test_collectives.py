"""Unit tests for the collective cost functions in repro.gpusim.collectives."""

import pytest

from repro.gpusim import collectives as col
from repro.gpusim.arch import V100


class TestCosts:
    def test_scan_cost_grows_with_group(self):
        assert col.scan_cost(V100, 64) > col.scan_cost(V100, 8)

    def test_scan_cost_multiple_passes(self):
        one = col.scan_cost(V100, 32, 32)
        two = col.scan_cost(V100, 32, 64)
        assert two == pytest.approx(2 * one)

    def test_scan_cost_rejects_bad_group(self):
        with pytest.raises(ValueError):
            col.scan_cost(V100, 0)

    def test_reduce_cost_log_steps(self):
        # Doubling the group adds one tree step.
        d = col.reduce_cost(V100, 64) - col.reduce_cost(V100, 32)
        d2 = col.reduce_cost(V100, 128) - col.reduce_cost(V100, 64)
        assert d == pytest.approx(d2)
        assert d > 0
