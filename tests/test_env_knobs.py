"""Numeric environment knobs share one contract: a malformed (or out of
range) value warns with a ``RuntimeWarning`` naming the variable and
yields the knob's default -- it never crashes an import, a sweep or the
daemon."""

from __future__ import annotations

import pytest

from repro import faults
from repro.engine import worker_pool
from repro.service import server


def _problem_cache():
    return worker_pool.ProblemCache.from_env()


def _service():
    return server.SweepService(width=0)


def _fault_registry():
    return faults._build_from_env()


#: ``(variable, read the resolved value, its default)`` for every knob.
KNOBS = [
    (worker_pool.PROBLEM_CACHE_ENTRIES_ENV,
     lambda: _problem_cache().max_entries,
     worker_pool.ProblemCache.DEFAULT_MAX_ENTRIES),
    (worker_pool.PROBLEM_CACHE_BYTES_ENV,
     lambda: _problem_cache().max_bytes,
     worker_pool.ProblemCache.DEFAULT_MAX_BYTES),
    (worker_pool.BATCH_TIMEOUT_ENV,
     lambda: worker_pool.SweepExecutor().batch_timeout,
     worker_pool.DEFAULT_BATCH_TIMEOUT),
    (server.SERVE_QUEUE_DEPTH_ENV,
     lambda: _service().queue_depth,
     server.DEFAULT_QUEUE_DEPTH),
    (server.SERVE_JOB_TIMEOUT_ENV,
     lambda: _service().job_timeout,
     server.DEFAULT_JOB_TIMEOUT),
    (faults.FAULTS_SEED_ENV, lambda: _fault_registry().seed, 0),
    (faults.HANG_SECONDS_ENV,
     lambda: _fault_registry().hang_seconds,
     faults.DEFAULT_HANG_SECONDS),
    (faults.SLOW_SECONDS_ENV,
     lambda: _fault_registry().slow_seconds,
     faults.DEFAULT_SLOW_SECONDS),
]


@pytest.mark.parametrize(
    "name,read,default", KNOBS, ids=[knob[0] for knob in KNOBS]
)
def test_malformed_value_warns_and_yields_the_default(
    monkeypatch, name, read, default
):
    monkeypatch.setenv(name, "abc")
    with pytest.warns(RuntimeWarning, match=name):
        assert read() == default
