"""Tests for the geomean summary statistic."""

import pytest

from repro.gpusim.profiler import geomean


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_ignores_nonpositive(self):
        assert geomean([2.0, 0.0, -1.0, 8.0]) == pytest.approx(4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geomean([])
