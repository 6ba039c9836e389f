"""Shared pieces of the benchmark: workload grids, fresh-process sweep
children, row digests, percentiles and the environment stamp.

Nothing here imports ``repro``: the program is loaded by the processes
this module spawns, and by the serve session's load generator for the
client library.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (results, logs, child TMPDIR).
WORK = ROOT / ".perfbench"

#: The paper-figure kernel list ``benchmarks/conftest.py`` sweeps.
PAPER_KERNELS = ("thread_mapped", "group_mapped", "merge_path", "heuristic",
                 "cub", "cusparse")
GRAPH_KERNELS = ("thread_mapped", "group_mapped", "merge_path", "lrb",
                 "heuristic")
SHORT_KERNELS = ("merge_path", "thread_mapped")

#: Grid sizes.  ``tiny`` exists for the benchmark's self-tests: the same
#: code paths on a few smoke datasets, finishing in seconds.
SIZES = {
    "full": {"spmv": ("standard", None), "graph": ("smoke", None)},
    "tiny": {"spmv": ("smoke", 4), "graph": ("smoke", 4)},
}

CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(extra: dict | None = None) -> dict:
    """Environment for every process that loads the program."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_FAULTS", None)
    env.update(extra or {})
    return env


def read_line(stream, timeout: float) -> str:
    """One line from a child's pipe, or ``BenchError`` after ``timeout``."""
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise BenchError(f"no output from child within {timeout:.0f}s")
    return stream.readline().decode("utf-8", errors="replace")


def run_child(spec: dict) -> tuple[float, dict]:
    """Run one sweep in a fresh interpreter; returns ``(setup_s, result)``.

    ``setup_s`` runs from spawn until the child reports ready: interpreter
    start, ``import repro`` and app registration.  The child then waits for
    a go line, so the sweep itself is timed inside the child alone.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
    )
    try:
        line = read_line(proc.stdout, CHILD_TIMEOUT_S)
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"child did not start: {line!r}")
        # Nothing follows "ready" until the child reads the go line, so
        # the pipe's read buffer holds no output that communicate() skips.
        out, err = proc.communicate(b"go\n", timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child ran over {CHILD_TIMEOUT_S:.0f}s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode("utf-8", errors="replace").strip().splitlines()
    if not lines:
        raise BenchError(f"child printed no result: {err.decode()[-2000:]}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"child exited {proc.returncode}"
    return setup_s, result


def row_key(app, kernel, dataset, rows, cols, nnzs, elapsed) -> list:
    """The part of a result row that a speed-up must leave unchanged."""
    return [str(app), str(kernel), str(dataset), int(rows), int(cols),
            int(nnzs), float(elapsed).hex()]


def wire_key(row: dict) -> list:
    return row_key(row.get("app", "spmv"), row["kernel"], row["dataset"],
                   row["rows"], row["cols"], row["nnzs"], row["elapsed"])


def digest(keys) -> str:
    """Order-independent digest of ``row_key`` lists."""
    canon = sorted(json.dumps(k, separators=(",", ":")) for k in keys)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def recorded_digests(size: str) -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")).get(size, {})


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * pct // 100)))
    return float(ordered[int(rank) - 1])


def tail(values) -> tuple[int, float]:
    """Highest of p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for pct in (90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, percentile(values, pct)
    return 50, median(values)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


#: BLAS threads are left at the library default.  Pinning OpenBLAS to one
#: thread slowed the triangle_count sweep (dense oracle) about 2x without
#: narrowing its run-to-run spread, so the benchmark measures the
#: configuration users get; the stamp records it so runs with a different
#: setting are never compared silently.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy: no dict view of the build config
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_choice": "library default (unpinned)",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }
