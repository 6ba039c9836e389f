"""Chaos matrix: injected faults x bounded-time failure semantics.

The contract under test (see ``repro.faults`` and the PR-9 hardening):
every injected failure -- hung worker, crashed worker, corrupt shm
attach, torn journal write, dropped connection, blown job deadline --
degrades to a *typed, bounded-time* outcome (retry, fallback, synthetic
error row, ``status:"timeout"``), never a hang, a wrong row, or a
leaked shm segment.  Surviving rows stay bit-identical to a fault-free
run.

Worker-side faults travel via the ``REPRO_FAULTS`` environment (worker
processes build their own registries from the inherited env, with their
own per-process hit counters); parent/in-process faults use
:func:`repro.faults.configure_faults`.
"""

from __future__ import annotations

import os
import socket
import time
import warnings

import pytest

from repro.engine.worker_pool import (
    BATCH_TIMEOUT_ENV,
    SweepExecutor,
)
from repro.evaluation.harness import run_suite
from repro.faults import (
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    HANG_SECONDS_ENV,
    SLOW_SECONDS_ENV,
    FaultInjected,
    clear_faults,
    configure_faults,
    faults_active,
    inject,
    parse_fault_spec,
)
from repro.service import SweepClient, SweepService
from repro.service.client import ServiceError
from repro.service.journal import RecordJournal
from repro.service.server import SERVE_JOB_TIMEOUT_ENV

KERNELS = ["merge_path"]

SMOKE_JOB = {"app": "spmv", "kernels": KERNELS, "scale": "smoke",
             "limit": 2}


def _key(rows):
    return [(r.app, r.kernel, r.dataset, r.rows, r.cols, r.nnzs, r.elapsed)
            for r in rows]


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Every test starts and ends fault-free, env and registry both.

    Teardown also drops the parent's process-global problem cache: the
    in-parent runs here (serial baselines, degraded shards) warm it,
    and forked workers in *later* test files would inherit that warmth
    and skip the oracle builds those files assert on.
    """
    import repro.engine.worker_pool as worker_pool

    for var in (FAULTS_ENV, FAULTS_SEED_ENV, HANG_SECONDS_ENV,
                SLOW_SECONDS_ENV, BATCH_TIMEOUT_ENV, SERVE_JOB_TIMEOUT_ENV):
        monkeypatch.delenv(var, raising=False)
    clear_faults()
    yield
    clear_faults()
    with worker_pool._PROBLEM_CACHE_LOCK:
        worker_pool._PROBLEM_CACHE = None


@pytest.fixture
def shm_ledger():
    """Assert zero leaked /dev/shm segments across the test body."""
    def _listing():
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:  # pragma: no cover - non-Linux
            return set()

    before = _listing()
    yield
    leaked = _listing() - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def serial_rows():
    clear_faults()
    return run_suite(KERNELS, scale="smoke", limit=2, executor="serial")


class TestFaultSpec:
    def test_parse_kinds_and_triggers(self):
        rules = parse_fault_spec(
            "worker.batch:hang@0.25; shm.attach:crc@2 ;journal.write:torn"
        )
        assert [(r.site, r.kind) for r in rules] == [
            ("worker.batch", "hang"), ("shm.attach", "crc"),
            ("journal.write", "torn"),
        ]
        assert rules[0].probability == 0.25
        assert rules[1].nth == 2
        assert rules[2].nth == 1  # default trigger: first hit

    @pytest.mark.parametrize("bad", [
        "worker.batch",            # no kind
        "worker.batch:sabotage",   # unknown kind
        "worker.batch:hang@soon",  # unparseable trigger
        "worker.batch:hang@1.5",   # probability outside [0, 1]
        "worker.batch:hang@0",     # hit counts start at 1
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_malformed_env_spec_warns_and_disables(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker.batch:sabotage@*")
        clear_faults()
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert inject("worker.batch") is None
        assert not faults_active()["enabled"]

    def test_nth_trigger_fires_exactly_once(self):
        configure_faults("site.x:crc@3")
        hits = [inject("site.x") for _ in range(6)]
        assert hits == [None, None, "crc", None, None, None]

    def test_every_trigger_fires_always(self):
        configure_faults("site.x:drop@*")
        assert [inject("site.x") for _ in range(3)] == ["drop"] * 3

    def test_probability_trigger_is_seed_deterministic(self):
        configure_faults("site.x:crc@0.5", seed=1234)
        first = [inject("site.x") for _ in range(64)]
        configure_faults("site.x:crc@0.5", seed=1234)
        assert [inject("site.x") for _ in range(64)] == first
        assert "crc" in first and None in first  # actually probabilistic
        configure_faults("site.x:crc@0.5", seed=99)
        assert [inject("site.x") for _ in range(64)] != first

    def test_err_kind_raises_fault_injected(self):
        configure_faults("site.x:err@1")
        with pytest.raises(FaultInjected, match="site.x"):
            inject("site.x")
        assert inject("site.x") is None  # fired once, never again

    def test_slow_kind_sleeps(self):
        configure_faults("site.x:slow@1", slow_seconds=0.05)
        start = time.monotonic()
        assert inject("site.x") == "slow"
        assert time.monotonic() - start >= 0.05

    def test_unknown_site_never_fires_and_report_counts(self):
        configure_faults("no.such.site:crash@*;site.x:crc@1")
        assert inject("site.y") is None  # crash would have killed us
        inject("site.x")
        report = faults_active()
        assert report["enabled"]
        rule = report["sites"]["site.x"][0]
        assert (rule["kind"], rule["hits"], rule["fires"]) == ("crc", 1, 1)
        assert report["sites"]["no.such.site"][0]["hits"] == 0

    def test_clear_faults_returns_to_noop(self):
        configure_faults("site.x:err@*")
        clear_faults()
        assert inject("site.x") is None


class TestExecutorChaos:
    """Hang / crash / corrupt-attach against the process executor."""

    def _sweep(self, pool):
        return run_suite(KERNELS, scale="smoke", limit=2,
                         executor="process", pool=pool)

    def test_hung_batch_is_killed_and_retried(self, monkeypatch, shm_ledger,
                                              serial_rows):
        # batch_atoms=1 pins one shard per batch: the single slot runs
        # batch 1 clean (hit 1), hangs on batch 2 (hit 2), the watchdog
        # SIGKILLs it, and the respawned worker (fresh counters, hit 1)
        # completes the retry.
        monkeypatch.setenv(FAULTS_ENV, "worker.batch:hang@2")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        start = time.monotonic()
        pool = SweepExecutor(max_workers=1, batch_atoms=1, batch_timeout=1.0)
        try:
            rows = self._sweep(pool)
            info = pool.info()
        finally:
            pool.shutdown()
        assert time.monotonic() - start < 25  # bounded: never slept 30 s
        assert _key(rows) == _key(serial_rows)
        assert info["batch_timeouts"] >= 1
        assert info["batch_retries"] >= 1
        assert info["pool_spawns"] == 2
        assert info["error_rows"] == 0
        attempts = sorted(r.meta["attempts"] for r in rows)
        assert attempts == [1, 2]
        assert not any(r.meta["degraded"] for r in rows)

    def test_crashed_batch_is_retried_on_respawned_slot(
            self, monkeypatch, shm_ledger, serial_rows):
        monkeypatch.setenv(FAULTS_ENV, "worker.batch:crash@2")
        pool = SweepExecutor(max_workers=1, batch_atoms=1, batch_timeout=30.0)
        try:
            rows = self._sweep(pool)
            info = pool.info()
        finally:
            pool.shutdown()
        assert _key(rows) == _key(serial_rows)
        assert info["batch_retries"] >= 1
        assert info["pool_spawns"] == 2
        assert sorted(r.meta["attempts"] for r in rows) == [1, 2]
        assert all(r.meta["status"] == "ok" for r in rows)

    def test_persistent_crash_degrades_to_in_parent_rows(
            self, monkeypatch, shm_ledger, serial_rows):
        # Every worker batch crashes, on every attempt: round 1 dies,
        # the retry (fresh worker, fresh counters) dies again, and the
        # shards degrade to bounded in-parent execution -- which still
        # produces the *real* rows, stamped degraded.
        monkeypatch.setenv(FAULTS_ENV, "worker.batch:crash@*")
        start = time.monotonic()
        pool = SweepExecutor(max_workers=2, batch_timeout=30.0)
        try:
            rows = self._sweep(pool)
            info = pool.info()
        finally:
            pool.shutdown()
        assert time.monotonic() - start < 60
        assert _key(rows) == _key(serial_rows)
        assert info["degraded_shards"] >= 1
        assert info["error_rows"] == 0
        assert all(r.meta["attempts"] == 3 for r in rows)
        assert all(r.meta["degraded"] for r in rows)
        assert all(r.meta["placement"]["mode"] == "degraded" for r in rows)
        assert all(r.meta["placement"]["slot"] == -1 for r in rows)

    @pytest.mark.parametrize("kind", ["crc", "drop"])
    def test_shm_attach_failure_falls_back_to_pickle(
            self, monkeypatch, shm_ledger, serial_rows, kind):
        import repro.engine.worker_pool as wp

        monkeypatch.setenv(FAULTS_ENV, f"shm.attach:{kind}@1")
        monkeypatch.setattr(wp, "_TRANSPORT_FALLBACK_WARNED", False)
        pool = SweepExecutor(max_workers=1, batch_timeout=30.0)
        try:
            with pytest.warns(RuntimeWarning, match="pickle"):
                rows = self._sweep(pool)
            info = pool.info()
        finally:
            pool.shutdown()
        assert _key(rows) == _key(serial_rows)
        assert info["transport_fallbacks"] == 1
        fallback = [r for r in rows if r.meta.get("transport_fallback")]
        assert fallback and all(r.meta["attempts"] == 2 for r in fallback)
        clean = [r for r in rows if not r.meta.get("transport_fallback")]
        assert all(r.meta["attempts"] == 1 for r in clean)

    def test_faults_off_rows_are_first_attempt_only(self, shm_ledger,
                                                    serial_rows):
        pool = SweepExecutor(max_workers=2)
        try:
            rows = self._sweep(pool)
            info = pool.info()
        finally:
            pool.shutdown()
        assert _key(rows) == _key(serial_rows)
        assert all(r.meta["attempts"] == 1 for r in rows)
        assert all(not r.meta["degraded"] for r in rows)
        assert info["batch_timeouts"] == 0
        assert info["batch_retries"] == 0
        assert info["degraded_shards"] == 0
        assert info["transport_fallbacks"] == 0


#: Fault kinds the randomized draw may place at each site.  Every kind
#: here is survivable: a crashed batch is retried and then degraded, a
#: slow one just finishes late, refused publishes and failed attaches
#: fall back to pickling.
_FAULT_MENU = {
    "worker.batch": ("crash", "slow"),
    "shm.publish": ("drop",),
    "shm.attach": ("crc", "drop"),
}


def _draw_fault_spec(rng) -> str:
    sites = rng.choice(sorted(_FAULT_MENU), size=int(rng.integers(1, 3)),
                       replace=False)
    return ";".join(
        f"{site}:{rng.choice(_FAULT_MENU[site])}"
        f"@{rng.choice(['*', '1', '2', '0.5'])}"
        for site in sites
    )


def _draw_datasets(rng) -> list:
    """A few smoke CSR datasets plus at least one native tensor corpus."""
    from repro.sparse.corpus import Dataset, build_corpus
    from repro.sparse.tensor import random_tensor

    corpus = build_corpus("smoke", limit=8)
    picks = rng.choice(len(corpus), size=int(rng.integers(1, 4)),
                       replace=False)
    tensors = [
        Dataset(
            name=f"tensor_{i}",
            family="tensor",
            matrix=random_tensor((32 + 8 * i, 24, 10), 300 + 50 * i,
                                 skew=0.6, seed=int(rng.integers(1 << 16))),
        )
        for i in range(int(rng.integers(1, 3)))
    ]
    return [corpus[int(i)] for i in sorted(picks)] + tensors


class TestRandomizedDifferential:
    """Seeded random (width, fault spec, dataset subset) draws.

    Whatever the draw, every row a faulted process sweep reports as
    ``ok`` equals the serial row of the same cell, and ``/dev/shm``
    gains no segments.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_surviving_rows_equal_serial_rows(self, seed, monkeypatch,
                                              shm_ledger):
        import numpy as np

        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 3))
        spec = _draw_fault_spec(rng)
        kwargs = dict(app="spmttkrp", datasets=_draw_datasets(rng), seed=seed)
        grid = ["merge_path", "thread_mapped"]
        serial = run_suite(grid, executor="serial", **kwargs)

        monkeypatch.setenv(FAULTS_ENV, spec)
        monkeypatch.setenv(SLOW_SECONDS_ENV, "0.05")
        clear_faults()  # the parent rebuilds its registry from the env
        pool = SweepExecutor(max_workers=width, batch_timeout=30.0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rows = run_suite(grid, executor="process", pool=pool,
                                 **kwargs)
        finally:
            pool.shutdown()

        expected = {(r.dataset, r.kernel): _key([r]) for r in serial}
        assert sorted((r.dataset, r.kernel) for r in rows) == sorted(expected)
        survivors = [r for r in rows if r.meta["status"] == "ok"]
        assert survivors, spec
        for row in survivors:
            assert _key([row]) == expected[(row.dataset, row.kernel)], spec


class TestSharingFaults:
    """Publish and warmup faults degrade to the pickle path or a respawn.

    A refused publish (``shm.publish``) means the caller pickles the
    dataset into its task, and a ``worker.start`` fault surfaces as the
    warmup error the pool's respawn logic handles -- never a wrong row
    or leaked segment.
    """

    def test_shm_publish_refusal_returns_none(self, shm_ledger):
        from repro.engine.worker_pool import publish_dataset
        from repro.sparse.corpus import build_corpus

        dataset = build_corpus("smoke")[0]
        configure_faults("shm.publish:drop@*")
        assert publish_dataset(dataset) is None
        clear_faults()
        published = publish_dataset(dataset)
        assert published is not None  # the refusal was the fault, not shm
        published.unlink()

    def test_worker_start_fault_raises_in_warmup(self):
        from repro.engine.worker_pool import _worker_warmup

        configure_faults("worker.start:err@1")
        with pytest.raises(FaultInjected, match="worker.start"):
            _worker_warmup()
        _worker_warmup()  # fired once; the respawned slot warms up


class TestJournalChaos:
    def test_torn_write_loses_exactly_one_record(self, tmp_path):
        configure_faults("journal.write:torn@2")
        journal = RecordJournal(tmp_path / "j.journal", magic=b"RPTEST01")
        try:
            journal.append(b"one")
            journal.append(b"two")       # torn: half the record hits disk
            assert journal.scan_damage   # the tear is known immediately
            journal.append(b"three")     # heals: truncates the tear first
            assert journal.payloads() == [b"one", b"three"]
            assert not journal.scan_damage
        finally:
            journal.close()

    def test_torn_write_is_invisible_to_a_fresh_reader(self, tmp_path):
        configure_faults("journal.write:torn@2")
        journal = RecordJournal(tmp_path / "j.journal", magic=b"RPTEST01")
        journal.append(b"one")
        journal.append(b"two")
        journal.close()
        clear_faults()
        reader = RecordJournal(tmp_path / "j.journal", magic=b"RPTEST01")
        try:
            assert reader.payloads() == [b"one"]
            assert reader.scan_damage
        finally:
            reader.close()


class TestServiceChaos:
    def _run_service(self, svc):
        svc.start_background()
        return svc.wait_ready()

    def _stop(self, svc):
        svc.request_drain()
        svc.join()

    def test_job_deadline_yields_timeout_status(self):
        # Unit 2 hangs past the 1 s job deadline; the service stops
        # waiting, fails every remaining unit, and closes the job with
        # status:"timeout" -- a bounded stream, not a hung client.
        configure_faults("serve.dispatch:hang@2", hang_seconds=4.0)
        svc = SweepService(width=0, job_timeout=1.0)
        host, port = self._run_service(svc)
        start = time.monotonic()
        try:
            with SweepClient(host, port, idle_timeout=30) as client:
                result = client.run({**SMOKE_JOB, "limit": 3})
        finally:
            self._stop(svc)
        assert time.monotonic() - start < 30
        assert result.status == "timeout"
        assert len(result.errors) == 2  # the hung unit + the flushed one
        assert all("deadline" in e["error"] for e in result.errors)
        assert result.rows  # unit 1 completed before the deadline
        assert svc.jobs_timed_out == 1

    def test_connection_drop_is_survived_by_client_retry(self):
        # hello(1) + accepted(2) stream fine; the first row write (3)
        # drops the connection.  SweepClient.run reconnects with backoff
        # and the resubmitted job streams to completion.
        configure_faults("serve.connection:drop@3")
        svc = SweepService(width=0)
        host, port = self._run_service(svc)
        try:
            client = SweepClient(host, port, idle_timeout=30)
            result = client.run(SMOKE_JOB, retries=3, retry_delay=0.05,
                                seed=7)
            client.close()
        finally:
            self._stop(svc)
        assert result.ok
        assert len(result.rows) == 2 * len(KERNELS)
        assert svc.jobs_accepted == 2  # the dropped attempt + the retry

    @pytest.mark.parametrize(
        "fault", ["serve.journal:err@*", "journal.write:err@*"]
    )
    def test_journal_fault_loses_the_record_not_the_job(self, tmp_path, fault):
        configure_faults(fault)
        svc = SweepService(width=0, journal_path=str(tmp_path / "r.journal"))
        host, port = self._run_service(svc)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with SweepClient(host, port, idle_timeout=30) as client:
                    result = client.run(SMOKE_JOB)
        finally:
            self._stop(svc)
        assert result.ok and len(result.rows) == 2 * len(KERNELS)
        assert svc.journal_errors > 0

    def test_status_probe_reports_gauges_and_faults(self):
        configure_faults("worker.batch:hang@0.5", seed=11)
        svc = SweepService(width=0)
        host, port = self._run_service(svc)
        try:
            with SweepClient(host, port, idle_timeout=30) as client:
                client.run(SMOKE_JOB)
                status = client.status()
        finally:
            self._stop(svc)
        assert status["pending"] == 0 and status["in_flight"] == []
        assert status["width"] == 0 and not status["draining"]
        assert status["jobs"] == {"accepted": 1, "done": 1, "rejected": 0,
                                  "timed_out": 0}
        assert status["rows_streamed"] == 2 * len(KERNELS)
        assert set(status["retries"]) == {
            "batch_timeouts", "batch_retries", "degraded_shards",
            "error_rows", "transport_fallbacks",
        }
        assert all(v == 0 for v in status["retries"].values())
        assert status["faults"]["enabled"]
        assert "worker.batch" in status["faults"]["sites"]

    def test_wait_ready_timeout_raises_instead_of_hanging(self):
        svc = SweepService(width=0)  # never started
        with pytest.raises(TimeoutError, match="did not come up"):
            svc.wait_ready(timeout=0.05)


class TestClientBackoff:
    @pytest.fixture
    def dead_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_backoff_is_seeded_capped_and_exponential(self, monkeypatch,
                                                      dead_port):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        client = SweepClient("127.0.0.1", dead_port, connect_timeout=0.5)

        def _attempt():
            with pytest.raises(ServiceError, match="did not complete"):
                client.run(SMOKE_JOB, retries=4, retry_delay=0.1,
                           max_delay=0.3, seed=42)

        _attempt()
        first = sleeps[:]
        sleeps.clear()
        _attempt()
        assert sleeps == first  # same seed, same job: same delays
        assert len(first) == 4
        assert all(0.05 <= s <= 0.3 for s in first)  # jittered, capped
        assert first[0] < first[1]  # exponential below the cap

    def test_deadline_bounds_total_retry_time(self, monkeypatch, dead_port):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        client = SweepClient("127.0.0.1", dead_port, connect_timeout=0.5)
        with pytest.raises(ServiceError, match="did not complete"):
            client.run(SMOKE_JOB, retries=50, deadline=0.0, seed=1)
        assert sleeps == []  # the deadline already passed: no sleeps

    def test_single_timeout_knob_rejected(self):
        with pytest.raises(TypeError):
            SweepClient("h", 1, timeout=17.0)
        assert not hasattr(SweepClient, "timeout")
        split = SweepClient("h", 1, connect_timeout=2.0, idle_timeout=40.0)
        assert split.connect_timeout == 2.0 and split.idle_timeout == 40.0
