"""Cost parity across engines: one pricing fold, declared residuals.

Every engine turns the work it measured into time through the same
``Schedule.price``, so vector, SIMT and compiled ``elapsed`` differ only
where the planner models the work differently from what the engines
charge per thread.  Each schedule declares that residual as bounds in
``conftest.PRICE_PARITY``; where the planner is exact, the engines'
times are equal.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import PRICE_PARITY
from repro import load_dataset, spmv
from repro.core.schedule import available_schedules
from repro.engine import ExecutionContext
from repro.gpusim.arch import TINY_GPU

DATASETS = (
    "tiny_diag_32",
    "tiny_uniform_64",
    "tiny_band_128",
    "tiny_power_256",
    "tiny_poisson_512",
)


def _elapsed(matrix, schedule, engine):
    ctx = ExecutionContext(engine=engine, policy=schedule, spec=TINY_GPU)
    return spmv(matrix, np.ones(matrix.num_cols), ctx=ctx).stats.elapsed_ms


def test_every_schedule_declares_its_parity():
    assert set(PRICE_PARITY) == set(available_schedules())


@pytest.mark.parametrize("schedule", sorted(PRICE_PARITY))
def test_engines_agree_within_declared_bounds(schedule):
    (vs_lo, vs_hi), (vc_lo, vc_hi) = PRICE_PARITY[schedule]
    for name in DATASETS:
        matrix = load_dataset(name, "smoke").matrix
        vector = _elapsed(matrix, schedule, "vector")
        simt = _elapsed(matrix, schedule, "simt")
        compiled = _elapsed(matrix, schedule, "compiled")
        assert vs_lo <= vector / simt <= vs_hi, (name, vector / simt)
        if vc_lo == vc_hi == 1.0:
            assert vector == compiled, name
        else:
            assert vc_lo <= vector / compiled <= vc_hi, (name, vector / compiled)


def test_bandwidth_floor_binds_every_engine():
    """A floor-bound launch takes the same time under every engine: no
    engine may skip the DRAM bandwidth floor."""
    spec = dataclasses.replace(TINY_GPU, dram_bytes_per_cycle=0.01)
    matrix = load_dataset("tiny_uniform_64", "smoke").matrix
    times = {
        engine: spmv(
            matrix,
            np.ones(matrix.num_cols),
            ctx=ExecutionContext(engine=engine, policy="merge_path", spec=spec),
        ).stats.elapsed_ms
        for engine in ("vector", "simt", "compiled")
    }
    assert times["vector"] == times["simt"] == times["compiled"]
