"""What a fresh sweep process loads, and the registries that load lazily.

``import repro`` plus ``get_app(app)`` imports that app's module and the
layers a serial sweep of it runs, and nothing else: no process pool,
shared memory, fault injection, service, static analysis, figures, line
counter, compiled or multi-GPU engine, or any other app.  The registries
still resolve every built-in by name.  This session has long since
imported everything, so every check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

BUILTIN_APPS = (
    "bfs", "histogram", "pagerank", "spgemm", "spmm", "spmttkrp", "spmv",
    "sssp", "triangle_count",
)

#: Modules (and their submodules) no serial sweep may load.
NOT_IN_A_SERIAL_SWEEP = (
    "multiprocessing",
    "concurrent.futures",
    "repro.engine.worker_pool",
    "repro.faults",
    "repro.service",
    "repro.analysis",
    "repro.evaluation.figures",
    "repro.evaluation.loc",
    "repro.engine.compiled",
    "repro.engine.multi_gpu",
)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter importing this tree's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` after ``code`` runs in a fresh interpreter."""
    out = run_fresh(textwrap.dedent(code)
                    + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    return set(json.loads(out.stdout.splitlines()[-1]))


def under(modules: set[str], prefixes) -> list[str]:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.mark.parametrize("app,kernels", [
    ("spmv", ["merge_path", "thread_mapped", "cub", "cusparse"]),
    ("bfs", ["merge_path", "group_mapped", "heuristic"]),
    ("triangle_count", ["merge_path", "lrb", "heuristic"]),
])
def test_serial_sweep_loads_only_the_code_it_runs(app, kernels):
    loaded = loaded_modules(f"""
        import repro
        from repro.engine import get_app
        get_app({app!r})
        from repro.evaluation.harness import run_suite
        rows = run_suite({kernels!r}, app={app!r}, scale="smoke", limit=2)
        assert rows
    """)
    other_apps = [f"repro.apps.{name}" for name in BUILTIN_APPS if name != app]
    assert f"repro.apps.{app}" in loaded
    assert under(loaded, NOT_IN_A_SERIAL_SWEEP + tuple(other_apps)) == []


def test_import_repro_loads_no_subpackage():
    loaded = loaded_modules("import repro")
    assert sorted(m for m in loaded if m.startswith("repro.")) == ["repro._lazy"]


@pytest.mark.parametrize("app", BUILTIN_APPS)
def test_each_builtin_app_resolves_through_get_app_alone(app):
    loaded = loaded_modules(f"""
        from repro.engine import get_app
        spec = get_app({app!r})
        assert spec.name == {app!r} and spec.sweep_problem and spec.oracle
    """)
    apps_loaded = {m.rpartition(".")[2] for m in under(loaded, ["repro.apps"])}
    # pagerank runs spmv's kernel declaration.
    expected = {app, "spmv"} if app == "pagerank" else {app}
    assert apps_loaded & set(BUILTIN_APPS) == expected


def test_available_apps_lists_every_builtin():
    out = run_fresh("""
        from repro.engine import available_apps
        print(",".join(available_apps()))
    """)
    assert out.stdout.strip().split(",") == sorted(BUILTIN_APPS)


def test_unknown_app_lists_every_builtin_with_a_hint():
    out = run_fresh("""
        from repro.engine import get_app
        try:
            get_app("spmvv")
        except KeyError as exc:
            print(exc.args[0])
    """)
    message = out.stdout.strip()
    assert message.startswith("unknown app 'spmvv'; available: "
                              + ", ".join(sorted(BUILTIN_APPS)))
    assert "did you mean 'spmv'" in message


def test_unknown_engine_lists_every_builtin_with_a_hint():
    out = run_fresh("""
        from repro.engine import UnknownEngineError, get_engine
        try:
            get_engine("compild")
        except UnknownEngineError as exc:
            print(exc)
    """)
    assert out.stdout.strip() == (
        "unknown engine 'compild'; available: compiled, multi_gpu, simt, "
        "vector -- did you mean 'compiled'?")


@pytest.mark.parametrize("engine", ["compiled", "multi_gpu"])
def test_lazy_engines_are_known_cold(engine):
    loaded = loaded_modules(f"""
        from repro.engine import ensure_known_engine, get_engine
        ensure_known_engine({engine!r})
        assert get_engine({engine!r}).name == {engine!r}
    """)
    assert f"repro.engine.{engine}" in loaded


def test_vector_and_simt_load_no_other_engine():
    loaded = loaded_modules("""
        from repro.engine import ensure_known_engine, get_engine
        for name in ("vector", "simt"):
            ensure_known_engine(name)
            get_engine(name)
    """)
    assert under(loaded, ["repro.engine.compiled", "repro.engine.multi_gpu"]) == []


def test_user_app_registered_cold_is_found():
    out = run_fresh("""
        from repro.engine import AppSpec, available_apps, get_app, register_app
        spec = register_app(AppSpec(name="row_sums", driver=lambda p, rt: None))
        assert get_app("row_sums") is spec
        print(",".join(available_apps()))
        try:
            register_app(AppSpec(name="spmv", driver=lambda p, rt: None))
        except ValueError as exc:
            print(exc)
    """)
    listed, rejected = out.stdout.strip().splitlines()
    assert listed.split(",") == sorted(BUILTIN_APPS + ("row_sums",))
    # A built-in's name is taken before its module is imported.
    assert rejected == "app 'spmv' already registered"


@pytest.mark.parametrize("body,error", [
    ("import repro_no_such_dependency", "ModuleNotFoundError"),
    ("raise ImportError('broken app module')", "ImportError"),
])
def test_import_error_inside_an_app_module_surfaces(tmp_path, body, error):
    (tmp_path / "broken_app.py").write_text(body + "\n")
    for call in ("get_app('broken_app')", "available_apps()"):
        out = run_fresh(f"""
            import repro.apps
            repro.apps.__path__.append({str(tmp_path)!r})
            from repro.engine import available_apps, get_app
            try:
                {call}
            except Exception as exc:
                print(type(exc).__name__, exc)
        """)
        kind, _, message = out.stdout.strip().partition(" ")
        assert kind == error, out.stdout
        assert "unknown app" not in message
