"""Signal-path shm cleanup for the persistent default executor.

atexit handlers never run when a process dies on an unhandled
SIGTERM/SIGINT, so a killed default-executor sweep would leak its
named shared-memory segments (dataset bundles) in ``/dev/shm`` until
reboot.  These tests kill real child processes and inspect the segment
namespace from outside.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

needs_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm namespace"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# Runs a default-executor sweep over the shm transport, reports which segments
# it published, then parks until signalled.
_SWEEPING_CHILD = r"""
import json, os, signal, sys
from repro.engine import default_executor
from repro.evaluation.harness import run_suite

before = set(os.listdir("/dev/shm"))
run_suite(["merge_path"], scale="smoke", limit=2, executor="process",
          pool=default_executor())
mine = sorted(set(os.listdir("/dev/shm")) - before)
print(json.dumps(mine), flush=True)
signal.pause()
"""


class TestSigtermCleanup:
    @needs_shm
    def test_sigterm_unlinks_shm_segments(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", _SWEEPING_CHILD],
            stdout=subprocess.PIPE, env=_child_env(), text=True,
        )
        try:
            import json

            segments = json.loads(proc.stdout.readline())
            assert segments, "child published no shm segments"
            assert all(seg in os.listdir("/dev/shm") for seg in segments)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # Killed *by the signal* (the default disposition was chained),
        # yet every segment was unlinked first.
        assert proc.returncode == -signal.SIGTERM
        leaked = [s for s in segments if s in os.listdir("/dev/shm")]
        assert not leaked, f"leaked shm segments: {leaked}"

    @needs_shm
    def test_sigint_cleanup_chains_to_keyboard_interrupt(self):
        # Python's own SIGINT handler must still fire after cleanup:
        # the child exits through KeyboardInterrupt, not by signal.
        child = r"""
import json, os, signal, sys
from repro.engine import default_executor
from repro.evaluation.harness import run_suite

before = set(os.listdir("/dev/shm"))
run_suite(["merge_path"], scale="smoke", limit=1, executor="process",
          pool=default_executor())
mine = sorted(set(os.listdir("/dev/shm")) - before)
try:
    # Announce only once the KeyboardInterrupt net is up, or the
    # parent's SIGINT can land between the print and the try.
    print(json.dumps(mine), flush=True)
    signal.pause()
except KeyboardInterrupt:
    print("interrupted", flush=True)
    sys.exit(42)
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            stdout=subprocess.PIPE, env=_child_env(), text=True,
        )
        try:
            import json

            segments = json.loads(proc.stdout.readline())
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 42
        assert "interrupted" in out
        leaked = [s for s in segments if s in os.listdir("/dev/shm")]
        assert not leaked, f"leaked shm segments: {leaked}"

    def test_previous_handler_still_runs(self):
        # A host application's own SIGTERM handler chains after cleanup.
        child = r"""
import signal, sys
from repro.engine import install_signal_cleanup

def host_handler(signum, frame):
    print("host handler ran", flush=True)
    sys.exit(7)

signal.signal(signal.SIGTERM, host_handler)
assert install_signal_cleanup()
print("ready", flush=True)
signal.pause()
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            stdout=subprocess.PIPE, env=_child_env(), text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 7
        assert "host handler ran" in out


class TestInstallSemantics:
    def test_install_from_worker_thread_is_refused(self):
        from repro.engine import worker_pool

        if worker_pool._SIGNALS_INSTALLED:
            pytest.skip("handlers already installed in this process")
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                worker_pool.install_signal_cleanup()
            )
        )
        thread.start()
        thread.join()
        assert results == [False]

    def test_install_is_idempotent_once_installed(self):
        child = r"""
from repro.engine import install_signal_cleanup
assert install_signal_cleanup()
assert install_signal_cleanup()
print("ok", flush=True)
"""
        out = subprocess.run(
            [sys.executable, "-c", child], capture_output=True,
            env=_child_env(), text=True, timeout=60,
        )
        assert out.returncode == 0
        assert "ok" in out.stdout
