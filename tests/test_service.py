"""Tests for the multi-tenant sweep service (``repro serve``).

Most tests run the service with ``width=0`` (serial in-process unit
execution) on an ephemeral port: the protocol, admission, fairness and
drain machinery are identical to the pooled daemon, without paying
process-pool spawns per test.  The pooled path gets its own crash test.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.evaluation.harness import run_suite
from repro.service import (
    JobRejected,
    ResultsJournal,
    SweepClient,
    SweepService,
)
from repro.service.protocol import row_from_wire, row_to_wire

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SMOKE_JOB = {"app": "spmv", "kernels": ["merge_path"], "scale": "smoke",
             "limit": 2}


def _kill_worker(_):
    """Simulate a worker crash (module-level: picklable by reference)."""
    import os

    os._exit(1)


def _start(svc: SweepService) -> tuple[str, int]:
    svc.start_background()
    return svc.wait_ready()


def _stop(svc: SweepService) -> None:
    svc.request_drain()
    svc.join()


@pytest.fixture
def service():
    svc = SweepService(width=0, queue_depth=8)
    yield svc
    if svc._thread is not None and svc._thread.is_alive():
        _stop(svc)


class TestProtocolBasics:
    def test_hello_ping_info(self, service):
        host, port = _start(service)
        with SweepClient(host, port, idle_timeout=30) as client:
            assert client.server_hello["version"] == 1
            assert client.ping()
            info = client.info()
            assert info["executor"] == {"mode": "serial"}
            assert info["pending"] == 0
        _stop(service)

    def test_row_wire_roundtrip_preserves_equality(self):
        rows = run_suite(["merge_path"], scale="smoke", limit=1,
                         executor="serial")
        rebuilt = [row_from_wire(json.loads(
            json.dumps(row_to_wire(r)))) for r in rows]
        assert rebuilt == rows

    def test_unknown_op_keeps_connection_alive(self, service):
        host, port = _start(service)
        with SweepClient(host, port, idle_timeout=30) as client:
            client._send_message({"op": "frobnicate"})
            answer = client._read_message()
            assert answer["type"] == "error"
            assert client.ping()  # still usable
        _stop(service)


class TestRoundTrip:
    def test_rows_bit_identical_to_direct_run_suite(self, service):
        host, port = _start(service)
        with SweepClient(host, port, idle_timeout=60) as client:
            result = client.run(dict(SMOKE_JOB, kernels=[
                "merge_path", "thread_mapped"]))
        direct = run_suite(["merge_path", "thread_mapped"], scale="smoke",
                           limit=2, executor="serial")
        assert result.ok
        assert result.rows == direct  # SweepRow eq (meta excluded)
        _stop(service)

    def test_two_concurrent_clients_get_their_own_rows(self, service):
        host, port = _start(service)
        jobs = {
            "a": dict(SMOKE_JOB, kernels=["merge_path", "thread_mapped"]),
            "b": dict(SMOKE_JOB, kernels=["group_mapped"], limit=3),
        }
        results: dict[str, object] = {}

        def worker(tag: str) -> None:
            with SweepClient(host, port, idle_timeout=60) as client:
                results[tag] = client.run(jobs[tag])

        threads = [threading.Thread(target=worker, args=(t,)) for t in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        direct_a = run_suite(["merge_path", "thread_mapped"], scale="smoke",
                             limit=2, executor="serial")
        direct_b = run_suite(["group_mapped"], scale="smoke", limit=3,
                             executor="serial")
        assert results["a"].rows == direct_a
        assert results["b"].rows == direct_b
        assert results["a"].ok and results["b"].ok
        _stop(service)

    def test_explicit_dataset_names(self, service):
        host, port = _start(service)
        with SweepClient(host, port, idle_timeout=60) as client:
            result = client.run(dict(SMOKE_JOB, limit=None,
                                     datasets=["tiny_diag_32"]))
        assert result.units == 1
        assert {r.dataset for r in result.rows} == {"tiny_diag_32"}
        _stop(service)


    def test_jobs_share_one_read_only_corpus(self):
        svc = SweepService(width=0)
        first = svc._build_job(dict(SMOKE_JOB, kernels=["merge_path"]))
        second = svc._build_job(dict(SMOKE_JOB, kernels=["thread_mapped"]))
        assert [d.name for d in first.units] == [d.name for d in second.units]
        for a, b in zip(first.units, second.units):
            assert a is b  # expanded once, not per job
            with pytest.raises(ValueError, match="read-only"):
                a.matrix.values[0] = 0.0


class TestAdmission:
    def test_bad_request_rejections(self, service):
        host, port = _start(service)
        with SweepClient(host, port, idle_timeout=30) as client:
            for bad in (
                dict(SMOKE_JOB, app="nope"),
                dict(SMOKE_JOB, kernels=["made_up_kernel"]),
                dict(SMOKE_JOB, engine="warp_drive"),
                dict(SMOKE_JOB, datasets=["no_such_dataset"], limit=None),
                dict(SMOKE_JOB, limit=-3),
            ):
                with pytest.raises(JobRejected) as excinfo:
                    client.submit(bad)
                assert excinfo.value.reason == "bad_request"
            # The connection survives rejections.
            assert client.ping()
        assert service.jobs_accepted == 0
        assert service.jobs_rejected == 5
        _stop(service)

    def test_queue_full_backpressure(self):
        svc = SweepService(width=0, queue_depth=1)
        gate = threading.Event()
        orig = svc._execute_unit

        def gated(job, dataset):
            gate.wait(timeout=60)
            return orig(job, dataset)

        svc._execute_unit = gated
        host, port = _start(svc)
        with SweepClient(host, port, idle_timeout=60) as first, \
                SweepClient(host, port, idle_timeout=60) as second:
            accepted = first.submit(SMOKE_JOB)
            with pytest.raises(JobRejected) as excinfo:
                second.submit(SMOKE_JOB)
            assert excinfo.value.reason == "queue_full"
            gate.set()
            # The occupying job still completes normally.
            rows = [m for m in first.stream(accepted) if m["type"] == "row"]
            assert len(rows) == 2
            # And capacity is back: the same submission now goes through.
            retried = second.submit(SMOKE_JOB)
            assert retried["units"] == 2
            messages = list(second.stream(retried))
            assert messages[-1]["status"] == "ok"
        assert svc.jobs_rejected == 1
        _stop(svc)

    def test_retry_after_queue_full_succeeds(self):
        svc = SweepService(width=0, queue_depth=1)
        gate = threading.Event()
        orig = svc._execute_unit

        def gated(job, dataset):
            gate.wait(timeout=60)
            return orig(job, dataset)

        svc._execute_unit = gated
        host, port = _start(svc)
        with SweepClient(host, port, idle_timeout=60) as occupier:
            occupier.submit(SMOKE_JOB)

            # Open the gate as soon as the retrying client has been
            # bounced once, so its later attempt finds capacity.
            def release_when_rejected():
                while svc.jobs_rejected == 0:
                    time.sleep(0.01)
                gate.set()

            releaser = threading.Thread(target=release_when_rejected)
            releaser.start()
            with SweepClient(host, port, idle_timeout=60) as retrier:
                result = retrier.run(SMOKE_JOB, retries=30, retry_delay=0.05)
            releaser.join(timeout=30)
        assert result.ok
        assert len(result.rows) == 2
        assert svc.jobs_rejected >= 1
        _stop(svc)

    def test_client_reconnects_after_connection_failure(self, service,
                                                        monkeypatch):
        host, port = _start(service)
        original_connect = SweepClient.connect
        failures = {"left": 1}

        def flaky_connect(self):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionRefusedError("synthetic connect failure")
            return original_connect(self)

        monkeypatch.setattr(SweepClient, "connect", flaky_connect)
        client = SweepClient(host, port, idle_timeout=60)
        result = client.run(SMOKE_JOB, retries=2, retry_delay=0.01)
        client.close()
        assert result.ok
        assert len(result.rows) == 2
        assert failures["left"] == 0
        _stop(service)


class TestFairness:
    def test_units_interleave_across_clients(self, service):
        order: list[str] = []
        gate = threading.Event()
        orig = service._execute_unit

        def traced(job, dataset):
            gate.wait(timeout=60)
            order.append(job.job_id)
            return orig(job, dataset)

        service._execute_unit = traced
        host, port = _start(service)
        job = dict(SMOKE_JOB, limit=3)
        with SweepClient(host, port, idle_timeout=120) as first, \
                SweepClient(host, port, idle_timeout=120) as second:
            a = first.submit(job)
            b = second.submit(job)
            gate.set()  # both admitted; now let units run
            rows_a = [m for m in first.stream(a) if m["type"] == "row"]
            rows_b = [m for m in second.stream(b) if m["type"] == "row"]
        assert len(rows_a) == len(rows_b) == 3
        # One dispatcher, one unit per client per rotation: perfect
        # round-robin, so the big-tenant-starves-small-tenant failure
        # mode is structurally impossible.
        assert order == [a["job_id"], b["job_id"]] * 3
        _stop(service)


class TestFailureIsolation:
    def test_worker_crash_becomes_failed_row_not_hung_client(self):
        svc = SweepService(width=1, queue_depth=4)
        orig = svc._execute_unit
        state = {"crashed": False}

        def crashing(job, dataset):
            # Crash the (already spawned) worker on the second unit: the
            # real BrokenProcessPool surfaces mid-job, between healthy
            # units.
            if dataset.name == "tiny_uniform_64" and not state["crashed"]:
                state["crashed"] = True
                list(svc._pool._slots[0].pool.map(_kill_worker, [0]))
            return orig(job, dataset)

        svc._execute_unit = crashing
        host, port = _start(svc)
        with SweepClient(host, port, idle_timeout=120) as client:
            result = client.run(dict(SMOKE_JOB, limit=3))
        assert state["crashed"]
        assert result.status == "partial"
        assert len(result.errors) == 1
        assert result.errors[0]["dataset"] == "tiny_uniform_64"
        assert "BrokenProcessPool" in result.errors[0]["error"]
        # The two healthy units produced their rows (pool respawned for
        # the third), bit-identical to a direct serial run.
        direct = run_suite(["merge_path"], scale="smoke", limit=3,
                           executor="serial")
        survivors = [r for r in direct if r.dataset != "tiny_uniform_64"]
        assert result.rows == survivors
        _stop(svc)


class TestRowErrorMessages:
    def test_failed_units_share_one_shape(self):
        """Every failed unit is journaled and streamed in one shape; only
        the deadline paths add ``status:"timeout"`` to the message."""
        import asyncio
        from collections import deque
        from types import SimpleNamespace

        svc = SweepService(width=0)
        journaled, sent = [], []

        async def send(client, message):
            sent.append(json.dumps(message))

        svc._send = send
        svc._journal_event = lambda event: journaled.append(json.dumps(event))
        d1, d2, d3 = (SimpleNamespace(name=n) for n in ("d1", "d2", "d3"))
        job = SimpleNamespace(job_id="j1", failed_units=0, units=deque([d2, d3]))
        asyncio.run(svc._fail_unit(None, job, d1, "KeyError: 'x'"))
        asyncio.run(svc._flush_timed_out_units(None, job))
        assert job.failed_units == 3 and not job.units
        head = '"job_id": "j1", "dataset": '
        crash = head + '"d1", "error": "KeyError: \'x\'"'
        late = [head + f'"{n}", "error": "job deadline exceeded"'
                for n in ("d2", "d3")]
        assert journaled == [
            '{"event": "row_error", ' + body + "}" for body in [crash, *late]
        ]
        assert sent == ['{"type": "row_error", ' + crash + "}"] + [
            '{"type": "row_error", ' + body + ', "status": "timeout"}'
            for body in late
        ]


class TestDrain:
    def test_drain_finishes_in_flight_jobs_and_rejects_new(self, service):
        gate = threading.Event()
        orig = service._execute_unit

        def gated(job, dataset):
            gate.wait(timeout=60)
            return orig(job, dataset)

        service._execute_unit = gated
        host, port = _start(service)
        with SweepClient(host, port, idle_timeout=60) as client, \
                SweepClient(host, port, idle_timeout=60) as late:
            accepted = client.submit(SMOKE_JOB)
            service.request_drain()
            # Draining: new work is rejected explicitly...
            with pytest.raises(JobRejected) as excinfo:
                late.submit(SMOKE_JOB)
            assert excinfo.value.reason == "draining"
            gate.set()
            # ...but the in-flight job still streams to completion.
            messages = list(client.stream(accepted))
            assert [m["type"] for m in messages] == ["row", "row", "done"]
            assert messages[-1]["status"] == "ok"
        service.join()
        assert service.jobs_done == 1
        # The listener is gone after the drain.
        with pytest.raises(OSError):
            SweepClient(host, port, connect_timeout=5).connect()

    def test_serve_subprocess_drains_on_sigterm(self, tmp_path):
        journal = tmp_path / "results.journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--width", "0", "--journal", str(journal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, f"no listening announcement in {line!r}"
            host, port = match.group(1), int(match.group(2))
            with SweepClient(host, port, idle_timeout=60) as client:
                result = client.run(SMOKE_JOB)
            assert result.ok
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained" in out
        # The journal survived the daemon and replays the whole job.
        jobs = ResultsJournal(journal).jobs()
        (summary,) = jobs.values()
        assert summary["done"] and summary["status"] == "ok"
        assert len(summary["rows"]) == 2


class TestResultsJournal:
    def test_journal_records_jobs_rows_and_completion(self, tmp_path):
        journal = tmp_path / "results.journal"
        svc = SweepService(width=0, queue_depth=4, journal_path=str(journal))
        host, port = _start(svc)
        with SweepClient(host, port, idle_timeout=60) as client:
            result = client.run(SMOKE_JOB)
        _stop(svc)
        reader = ResultsJournal(journal)
        events = list(reader.replay())
        kinds = [e["event"] for e in events]
        assert kinds == ["job", "row", "row", "done"]
        jobs = reader.jobs()
        summary = jobs[result.job_id]
        assert summary["spec"]["kernels"] == ["merge_path"]
        assert [row_from_wire(r) for r in summary["rows"]] == result.rows
        reader.close()

    def test_replay_after_simulated_kill_keeps_whole_records(self, tmp_path):
        journal = tmp_path / "results.journal"
        svc = SweepService(width=0, queue_depth=4, journal_path=str(journal))
        host, port = _start(svc)
        with SweepClient(host, port, idle_timeout=60) as client:
            result = client.run(SMOKE_JOB)
        _stop(svc)
        # Simulate a kill -9 mid-append: a torn half-record at the tail.
        with open(journal, "ab") as fh:
            fh.write(b"\x2a\x00\x00")
        reader = ResultsJournal(journal)
        events = list(reader.replay())
        assert [e["event"] for e in events] == ["job", "row", "row", "done"]
        assert reader.scan_damage  # the tear was seen and contained
        summary = reader.jobs()[result.job_id]
        assert summary["done"]
        assert [row_from_wire(r) for r in summary["rows"]] == result.rows
        reader.close()

    def test_abandoned_jobs_are_journaled(self, tmp_path):
        journal = tmp_path / "results.journal"
        svc = SweepService(width=0, queue_depth=4, journal_path=str(journal))
        gate = threading.Event()
        orig = svc._execute_unit

        def gated(job, dataset):
            gate.wait(timeout=60)
            return orig(job, dataset)

        svc._execute_unit = gated
        host, port = _start(svc)
        client = SweepClient(host, port, idle_timeout=60)
        client.connect()
        client.submit(SMOKE_JOB)
        client.close()  # vanish with the job queued
        gate.set()
        _stop(svc)
        events = [e["event"] for e in ResultsJournal(journal).replay()]
        assert events[0] == "job"
        assert "abandoned" in events
