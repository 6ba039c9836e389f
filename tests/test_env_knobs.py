"""Numeric environment knobs share one contract: a malformed (or out of
range) value warns with a ``RuntimeWarning`` naming the variable and
yields the knob's default -- it never crashes an import, a sweep or the
daemon."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.engine import compiled, worker_pool
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
    (compiled.CACHE_ENTRIES_ENV,
     lambda: compiled.CompilationCache().max_entries,
     compiled._DEFAULT_CACHE_ENTRIES),
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


@pytest.mark.parametrize("raw", ["0", "-4"])
def test_compiled_cache_size_below_one_falls_back(monkeypatch, raw):
    monkeypatch.setenv(compiled.CACHE_ENTRIES_ENV, raw)
    with pytest.warns(RuntimeWarning, match=compiled.CACHE_ENTRIES_ENV):
        cache = compiled.CompilationCache()
    assert cache.max_entries == compiled._DEFAULT_CACHE_ENTRIES


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_import_survives_a_bad_compiled_cache_size(raw):
    """The compilation cache is built at import time: a bad value must
    not take ``import repro`` (and so every command) down with it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, REPRO_COMPILED_CACHE_ENTRIES=raw)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.engine.compiled as c; "
         "print(c._CACHE.max_entries)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(compiled._DEFAULT_CACHE_ENTRIES)
    assert "REPRO_COMPILED_CACHE_ENTRIES" in proc.stderr  # the warning
