"""Numeric environment knobs share one contract: a malformed (or out of
range) value warns with a ``RuntimeWarning`` naming the variable and
yields the knob's default -- it never crashes an import, a sweep or the
daemon.  A variable that has been removed is ignored."""

from __future__ import annotations

import warnings

import pytest

from repro import faults
from repro.engine import worker_pool
from repro.service import server


def _fault_registry():
    return faults._build_from_env()


#: ``(variable, read the resolved value, its default)`` for every knob.
KNOBS = [
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


def _service_width():
    """The width ``repro serve`` gets when ``--width`` is not given."""
    svc = server.SweepService()
    try:
        return svc.width, svc._pool.max_workers
    finally:
        svc._pool.shutdown()


#: ``(variable, read the resolved value, its default)`` for every
#: variable that once tuned a pool, cache or service setting which is now
#: a constructor default.
REMOVED = [
    ("REPRO_BATCH_TIMEOUT",
     lambda: worker_pool.SweepExecutor().batch_timeout,
     worker_pool.DEFAULT_BATCH_TIMEOUT),
    ("REPRO_PROBLEM_CACHE_ENTRIES",
     lambda: worker_pool.ProblemCache().max_entries,
     worker_pool.ProblemCache.DEFAULT_MAX_ENTRIES),
    ("REPRO_PROBLEM_CACHE_BYTES",
     lambda: worker_pool.ProblemCache().max_bytes,
     worker_pool.ProblemCache.DEFAULT_MAX_BYTES),
    ("REPRO_SERVE_QUEUE_DEPTH",
     lambda: server.SweepService(width=0).queue_depth,
     server.DEFAULT_QUEUE_DEPTH),
    ("REPRO_SERVE_JOB_TIMEOUT",
     lambda: server.SweepService(width=0).job_timeout,
     server.DEFAULT_JOB_TIMEOUT),
    ("REPRO_SERVE_WIDTH", _service_width, (None, None)),
]


@pytest.mark.parametrize(
    "name,read,default", REMOVED, ids=[knob[0] for knob in REMOVED]
)
def test_removed_variable_changes_nothing(monkeypatch, name, read, default):
    """A variable that no longer exists is ignored: a well-formed value
    leaves the constructor default in place and warns about nothing."""
    monkeypatch.setenv(name, "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read() == default
