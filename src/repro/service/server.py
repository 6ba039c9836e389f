"""``repro serve`` -- the long-running multi-tenant sweep service.

Everything the sweep executor caches (warm worker slots with their
in-memory plan and problem caches, sticky HRW placement, shm dataset
bundles) only pays off *inside one process*.  This module is that
process: an asyncio TCP front-end (JSON lines,
:mod:`repro.service.protocol`) over one persistent
:class:`~repro.engine.worker_pool.SweepExecutor`, so many clients hit
the same warm instance instead of each paying the cold start.

Design:

* **Jobs, not requests.**  A ``submit`` names an app, kernels and
  datasets; the server expands it into per-dataset *units* (the same
  shard granularity the worker pool batches) and streams each unit's
  :class:`~repro.evaluation.harness.SweepRow` results back as they
  complete -- a client sees its first rows while later datasets are
  still queued.
* **Bounded admission + backpressure.**  At most ``queue_depth``
  (default 16) jobs may be pending; past that,
  ``submit`` answers an explicit ``rejected/queue_full`` instead of
  buffering unboundedly.  Rejection is cheap and immediate -- clients
  retry with backoff.
* **Per-client round-robin fairness.**  The dispatcher rotates over
  clients one *unit* at a time, so a tenant with a 100-dataset job
  cannot starve one with a single dataset: the small job's units
  interleave and finish first.
* **Failure isolation.**  A unit that dies (worker crash, validation
  failure) becomes a ``row_error`` message and a failed row in the
  journal; the job's remaining units still run, the pool respawns the
  dead slot, and the client gets a ``done`` with ``status:"partial"``
  instead of a hang.
* **Crash-safe results journal.**  Every accepted job, streamed row and
  completion is appended to a :class:`~repro.service.journal.
  ResultsJournal` (CRC-framed records), so a kill -9 loses at most the
  record being written.
* **Graceful drain.**  SIGTERM/SIGINT (or :meth:`SweepService.
  begin_drain`) stops admission (``rejected/draining``), finishes every
  in-flight job, then shuts the executor down -- unlinking every shm
  dataset block -- before exiting.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..engine.context import ExecutionContext
from ..faults import faults_active, inject
from ..engine.worker_pool import SweepExecutor
from ..evaluation.harness import ensure_known_kernels, expand_datasets, run_suite
from ..sparse.corpus import Dataset, build_corpus
from .journal import ResultsJournal
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    row_to_wire,
)

__all__ = [
    "SweepService",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_JOB_TIMEOUT",
]

#: Default bounded job-queue depth (pending = accepted, not yet done);
#: past it, submissions are rejected with ``queue_full``.
DEFAULT_QUEUE_DEPTH = 16

#: Default wall-clock deadline for one accepted job, start of execution
#: to ``done`` (``0`` disables).  A job past it stops consuming units and
#: finishes with ``status:"timeout"`` -- bounded-time failure, not a
#: hung stream.
DEFAULT_JOB_TIMEOUT = 600.0


def _read_only_corpus(scale: str, limit: int | None) -> list[Dataset]:
    """``build_corpus`` with read-only arrays: a kernel that writes into
    its input fails loudly instead of corrupting the next job's."""
    corpus = build_corpus(scale, limit=limit)
    for d in corpus:
        for arr in (d.matrix.row_offsets, d.matrix.col_indices, d.matrix.values):
            arr.setflags(write=False)
    return corpus


@dataclass(eq=False)
class _Job:
    """One admitted sweep job, expanded into per-dataset units."""

    job_id: str
    spec: dict  # the sanitized submission (journaled for replay)
    app: str
    kernels: tuple
    seed: int
    validate: bool
    ctx: ExecutionContext
    units: deque  # Dataset instances still to run
    total_units: int
    rows_streamed: int = 0
    failed_units: int = 0
    #: Absolute monotonic deadline (set at admission; ``None`` = none).
    deadline: float | None = None
    timed_out: bool = False


@dataclass(eq=False)
class _ClientState:
    """Server-side connection state for one client."""

    client_id: str
    writer: Any
    jobs: deque = field(default_factory=deque)
    closed: bool = False
    #: True while this client sits in the dispatcher's round-robin ring
    #: (kept exactly in sync to avoid double entries).
    scheduled: bool = False
    write_lock: Any = None


class SweepService:
    """The sweep daemon: one warm executor stack, many clients.

    ``width`` selects the execution mode: ``0`` runs every unit serially
    in-process (no worker pool -- deterministic and spawn-free, the
    test/bench fast path), ``None`` or ``N >= 1`` owns a persistent
    :class:`~repro.engine.worker_pool.SweepExecutor` of that width whose
    caches all jobs share.

    Run it with :meth:`serve` (asyncio; the CLI path installs
    SIGTERM/SIGINT drain handlers) or :meth:`start_background` (own
    thread + loop; tests, benches and embedders).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        width: int | None = None,
        queue_depth: int | None = None,
        journal_path: str | None = None,
        job_timeout: float | None = None,
    ):
        if width is not None and width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        self.host = host
        self.port = port
        self.width = width
        self.queue_depth = (
            DEFAULT_QUEUE_DEPTH if queue_depth is None else int(queue_depth)
        )
        self.job_timeout = (
            DEFAULT_JOB_TIMEOUT if job_timeout is None else float(job_timeout)
        )
        self._journal = (
            None if journal_path is None else ResultsJournal(journal_path)
        )
        self._pool: SweepExecutor | None = (
            None if width == 0 else SweepExecutor(max_workers=width)
        )
        self._clients: set[_ClientState] = set()
        self._conn_tasks: set = set()
        self._rr: deque[_ClientState] = deque()
        self._pending = 0
        self._draining = False
        self._job_ids = itertools.count(1)
        self._client_ids = itertools.count(1)
        self._job_prefix = f"j{os.getpid():x}"
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._thread_error: BaseException | None = None
        self.jobs_accepted = 0
        self.jobs_rejected = 0
        self.jobs_done = 0
        self.jobs_timed_out = 0
        self.rows_streamed = 0
        self.journal_errors = 0
        self._journal_error_warned = False
        #: Job ids currently executing a unit (the ``status`` gauge).
        self._in_flight: set[str] = set()
        #: Corpora built once per ``(scale, limit)`` and shared by jobs.
        self._corpus = functools.lru_cache(maxsize=4)(_read_only_corpus)

    # ------------------------------------------------------------------
    # Job admission
    # ------------------------------------------------------------------
    def _build_job(self, spec: dict) -> _Job:
        """Validate one submission and expand it into dataset units.

        Raises ``ValueError``/``KeyError`` with a client-presentable
        message on anything malformed; admission turns that into a
        ``rejected/bad_request`` answer.
        """
        if not isinstance(spec, dict):
            raise ValueError("job must be a JSON object")
        app = str(spec.get("app", "spmv"))
        kernels = spec.get("kernels") or ["merge_path"]
        if not isinstance(kernels, (list, tuple)) or not all(
            isinstance(k, str) for k in kernels
        ):
            raise ValueError("job kernels must be a list of kernel names")
        scale = str(spec.get("scale", "smoke"))
        limit = spec.get("limit")
        if limit is not None:
            limit = int(limit)
        names = spec.get("datasets")
        if names is not None and (
            not isinstance(names, (list, tuple))
            or not all(isinstance(n, str) for n in names)
        ):
            raise ValueError("job datasets must be a list of dataset names")
        seed = spec.get("seed")
        validate = bool(spec.get("validate", True))
        engine = str(spec.get("engine", "vector"))
        gpus = int(spec.get("gpus", 1))

        from ..engine import DEFAULT_SEED
        from ..engine.dispatch import ensure_known_engine

        ensure_known_kernels(kernels, app)  # KeyError on unknown apps too
        ensure_known_engine(engine)
        datasets = expand_datasets(
            app, scale=scale, datasets=self._corpus(scale, limit),
            names=list(names) if names else None,
        )
        ctx = ExecutionContext(engine=engine, gpus=gpus)
        job_id = f"{self._job_prefix}-{next(self._job_ids)}"
        sanitized = {
            "app": app,
            "kernels": list(kernels),
            "scale": scale,
            "limit": limit,
            "datasets": names if names is None else list(names),
            "seed": seed,
            "validate": validate,
            "engine": engine,
            "gpus": gpus,
        }
        return _Job(
            job_id=job_id,
            spec=sanitized,
            app=app,
            kernels=tuple(kernels),
            seed=DEFAULT_SEED if seed is None else int(seed),
            validate=validate,
            ctx=ctx,
            units=deque(datasets),
            total_units=len(datasets),
        )

    def _admit(self, client: _ClientState, spec: dict) -> dict:
        """Admission control: the bounded queue and the drain gate."""
        if self._draining:
            self.jobs_rejected += 1
            return {"type": "rejected", "reason": "draining"}
        if self._pending >= self.queue_depth:
            self.jobs_rejected += 1
            return {
                "type": "rejected",
                "reason": "queue_full",
                "queue_depth": self.queue_depth,
                "pending": self._pending,
            }
        try:
            job = self._build_job(spec)
        except Exception as exc:
            self.jobs_rejected += 1
            return {
                "type": "rejected",
                "reason": "bad_request",
                "error": f"{exc}",
            }
        if self.job_timeout > 0:
            job.deadline = time.monotonic() + self.job_timeout
        client.jobs.append(job)
        self._pending += 1
        self.jobs_accepted += 1
        self._journal_event({
            "event": "job",
            "job_id": job.job_id,
            "client": client.client_id,
            "spec": job.spec,
        })
        if not client.scheduled:
            client.scheduled = True
            self._rr.append(client)
        if self._wake is not None:
            self._wake.set()
        return {
            "type": "accepted",
            "job_id": job.job_id,
            "units": job.total_units,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_unit(self, job: _Job, dataset: Dataset) -> list:
        """Run one dataset unit of a job (called from a worker thread).

        The bridge from service jobs to the evaluation harness: every
        unit is a plain :func:`~repro.evaluation.harness.run_suite` call
        over a one-dataset list, through the shared persistent pool when
        the service owns one -- so rows are bit-identical to a direct
        library call and inherit every warm-path cache.
        """
        inject("serve.dispatch")
        pool = self._pool
        fan_out = {} if pool is None else {"executor": "process", "pool": pool}
        return run_suite(
            job.kernels,
            app=job.app,
            datasets=[dataset],
            seed=job.seed,
            validate=job.validate,
            ctx=job.ctx,
            **fan_out,
        )

    async def _dispatch(self) -> None:
        """The fairness loop: one unit per client per rotation."""
        assert self._wake is not None and self._stopped is not None
        while True:
            if not self._rr:
                if self._draining and self._pending == 0:
                    break
                self._wake.clear()
                # Re-check under the cleared flag: a submit between the
                # check above and clear() would otherwise be lost.
                if not self._rr and not (
                    self._draining and self._pending == 0
                ):
                    await self._wake.wait()
                continue
            client = self._rr.popleft()
            client.scheduled = False
            if client.closed:
                self._drop_jobs(client)
                continue
            job = client.jobs[0]
            if job.units:
                dataset = job.units.popleft()
                await self._run_one_unit(client, job, dataset)
            if client.closed:
                self._drop_jobs(client)
                continue
            if job.timed_out:
                # The deadline fell mid-job: every remaining unit fails
                # immediately (bounded time beats completeness here).
                await self._flush_timed_out_units(client, job)
            if not job.units:
                self._finish_job(client, job)
                await self._send(client, {
                    "type": "done",
                    "job_id": job.job_id,
                    "rows": job.rows_streamed,
                    "failed": job.failed_units,
                    "status": self._job_status(job),
                })
            if client.jobs and not client.scheduled:
                client.scheduled = True
                self._rr.append(client)
            if self._draining and self._pending == 0 and not self._rr:
                break
        self._stopped.set()

    @staticmethod
    def _job_status(job: _Job) -> str:
        if job.timed_out:
            return "timeout"
        return "partial" if job.failed_units else "ok"

    async def _fail_unit(
        self, client: _ClientState, job: _Job, dataset: Dataset, error: str,
        status: str | None = None,
    ) -> None:
        """Count one failed unit, journal it and tell the client: the
        ``row_error`` message carries ``status`` when one is given."""
        job.failed_units += 1
        fields = {"job_id": job.job_id, "dataset": dataset.name, "error": error}
        self._journal_event({"event": "row_error", **fields})
        message = {"type": "row_error", **fields}
        if status is not None:
            message["status"] = status
        await self._send(client, message)

    async def _flush_timed_out_units(
        self, client: _ClientState, job: _Job
    ) -> None:
        """Fail every not-yet-run unit of a job past its deadline."""
        while job.units:
            await self._fail_unit(client, job, job.units.popleft(),
                                  "job deadline exceeded", "timeout")

    async def _run_one_unit(
        self, client: _ClientState, job: _Job, dataset: Dataset
    ) -> None:
        remaining: float | None = None
        if job.deadline is not None:
            remaining = job.deadline - time.monotonic()
            if remaining <= 0:
                job.timed_out = True
                self.jobs_timed_out += 1
                job.units.appendleft(dataset)  # flushed with the rest
                return
        self._in_flight.add(job.job_id)
        try:
            coro = asyncio.to_thread(self._execute_unit, job, dataset)
            if remaining is None:
                rows = await coro
            else:
                # The abandoned thread keeps running to completion in the
                # background (to_thread cannot be killed), but the job
                # stops waiting: its stream stays bounded in time.
                rows = await asyncio.wait_for(coro, timeout=remaining)
        except (TimeoutError, asyncio.TimeoutError):
            job.timed_out = True
            self.jobs_timed_out += 1
            await self._fail_unit(
                client, job, dataset,
                f"job deadline exceeded ({self.job_timeout:g}s)", "timeout",
            )
            return
        except BaseException as exc:
            if isinstance(exc, asyncio.CancelledError):
                raise
            # A worker crash (BrokenProcessPool), validation failure or
            # engine error kills this unit only: the client gets an
            # explicit failed row instead of a hung stream, and the next
            # sweep through the pool respawns any dead slot.
            await self._fail_unit(
                client, job, dataset, f"{type(exc).__name__}: {exc}"
            )
            return
        finally:
            self._in_flight.discard(job.job_id)
        for row in rows:
            wire = row_to_wire(row)
            job.rows_streamed += 1
            self.rows_streamed += 1
            self._journal_event({
                "event": "row",
                "job_id": job.job_id,
                "seq": job.rows_streamed,
                "row": wire,
            })
            await self._send(client, {
                "type": "row",
                "job_id": job.job_id,
                "seq": job.rows_streamed,
                "row": wire,
            })

    def _finish_job(self, client: _ClientState, job: _Job) -> None:
        client.jobs.popleft()
        self._pending -= 1
        self.jobs_done += 1
        self._journal_event({
            "event": "done",
            "job_id": job.job_id,
            "rows": job.rows_streamed,
            "failed": job.failed_units,
            "status": self._job_status(job),
        })

    def _drop_jobs(self, client: _ClientState) -> None:
        """Abandon a disconnected client's jobs (results have no reader)."""
        while client.jobs:
            job = client.jobs.popleft()
            self._pending -= 1
            self._journal_event({"event": "abandoned", "job_id": job.job_id})

    def _journal_event(self, event: dict) -> None:
        """Append one event; a journal failure costs the *record*, never
        the job -- results still stream, and the miss is counted."""
        if self._journal is None:
            return
        try:
            inject("serve.journal")
            self._journal.append(event)
        except Exception as exc:
            self.journal_errors += 1
            if not self._journal_error_warned:
                self._journal_error_warned = True
                import warnings

                warnings.warn(
                    f"results-journal append failed "
                    f"({type(exc).__name__}: {exc}); job results still "
                    f"stream but this event was not journaled",
                    RuntimeWarning,
                    stacklevel=3,
                )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(self, client: _ClientState, message: dict) -> None:
        if client.closed:
            return
        if inject("serve.connection") == "drop":
            # Simulate the peer vanishing mid-stream: the writer closes
            # and the dispatcher's closed-client path abandons the jobs.
            client.closed = True
            with contextlib.suppress(Exception):
                client.writer.close()
            return
        data = encode_message(message)
        async with client.write_lock:
            try:
                client.writer.write(data)
                await client.writer.drain()
            except (ConnectionError, OSError):
                client.closed = True

    async def _handle_client(self, reader, writer) -> None:
        client = _ClientState(
            client_id=f"c{next(self._client_ids)}",
            writer=writer,
            write_lock=asyncio.Lock(),
        )
        self._clients.add(client)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        await self._send(client, {
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "server": "repro-serve",
            "client_id": client.client_id,
        })
        try:
            while not client.closed:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError as exc:
                    await self._send(client, {"type": "error", "error": str(exc)})
                    continue
                op = message.get("op")
                if op == "ping":
                    await self._send(client, {"type": "pong"})
                elif op == "info":
                    await self._send(client, {"type": "info", "info": self.info()})
                elif op == "status":
                    await self._send(
                        client, {"type": "status", **self.status()}
                    )
                elif op == "submit":
                    response = self._admit(client, message.get("job") or {})
                    await self._send(client, response)
                else:
                    await self._send(client, {
                        "type": "error",
                        "error": f"unknown op {op!r}",
                    })
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Teardown cancels handler tasks; end them quietly -- older
            # 3.11s log any handler task that finishes cancelled.
            pass
        finally:
            client.closed = True
            self._clients.discard(client)
            if task is not None:
                self._conn_tasks.discard(task)
            if self._wake is not None:
                self._wake.set()  # let the dispatcher drop abandoned jobs
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admission, finish in-flight jobs, then shut down.

        Safe to call from a signal handler on the service's loop; from
        another thread use :meth:`request_drain`.
        """
        self._draining = True
        if self._wake is not None:
            self._wake.set()

    async def serve(
        self, *, install_signals: bool = False, on_ready=None
    ) -> None:
        """Run the service until drained (the daemon main loop).

        ``install_signals=True`` (the CLI path) turns SIGTERM/SIGINT
        into :meth:`begin_drain`; ``on_ready`` is called with the
        service once the listener is bound (the daemon announces its
        port there -- required for ``--port 0``).
        """
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(
                    NotImplementedError, ValueError, RuntimeError
                ):
                    self._loop.add_signal_handler(sig, self.begin_drain)
        dispatcher = asyncio.create_task(self._dispatch())
        self._ready.set()
        if on_ready is not None:
            on_ready(self)
        try:
            await self._stopped.wait()
        finally:
            server.close()
            await server.wait_closed()
            for client in list(self._clients):
                client.closed = True
                with contextlib.suppress(Exception):
                    client.writer.close()
            for conn_task in list(self._conn_tasks):
                conn_task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
            if not dispatcher.done():
                dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dispatcher
            self._shutdown_resources()

    def _shutdown_resources(self) -> None:
        """Drain epilogue: unlink every shm segment, close the journal."""
        if self._pool is not None:
            self._pool.shutdown()
        if self._journal is not None:
            self._journal.close()

    # -- background-thread embedding (tests, benches, notebooks) --------
    def start_background(self) -> None:
        """Run :meth:`serve` on a dedicated thread with its own loop."""
        if self._thread is not None:
            raise RuntimeError("service already started")

        def _main() -> None:
            try:
                asyncio.run(self.serve())
            except BaseException as exc:  # surfaced by join()
                self._thread_error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=_main, name="repro-serve", daemon=True
        )
        self._thread.start()

    def wait_ready(self, timeout: float = 30.0) -> tuple[str, int]:
        """Block until the listener is bound; returns ``(host, port)``.

        On timeout the background thread is drained (releasing any port
        it did manage to bind) before ``TimeoutError`` is raised, so a
        failed startup never leaks a listener.
        """
        if not self._ready.wait(timeout):
            self.request_drain()
            if self._thread is not None:
                self._thread.join(5.0)
            raise TimeoutError("sweep service did not come up in time")
        if self._thread_error is not None:
            raise RuntimeError(
                f"sweep service failed to start: {self._thread_error!r}"
            ) from self._thread_error
        return self.host, self.port

    def request_drain(self) -> None:
        """Thread-safe :meth:`begin_drain` (for embedders and tests)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.begin_drain)
        else:
            self.begin_drain()

    def join(self, timeout: float = 120.0) -> None:
        """Wait for a backgrounded service to finish draining.

        On timeout a drain is (re)requested and the thread given one
        short grace period; if it still will not die, ``TimeoutError``
        carries that fact instead of the caller hanging forever.
        """
        if self._thread is None:
            return
        self._thread.join(timeout)
        if self._thread.is_alive():
            self.request_drain()
            self._thread.join(5.0)
        if self._thread.is_alive():
            raise TimeoutError("sweep service did not drain in time")
        if self._thread_error is not None:
            raise RuntimeError(
                f"sweep service died: {self._thread_error!r}"
            ) from self._thread_error

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def info(self) -> dict:
        executor = (
            {"mode": "serial"} if self._pool is None
            else {"mode": "pool", **self._pool.info()}
        )
        return {
            "version": PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "queue_depth": self.queue_depth,
            "pending": self._pending,
            "in_flight": len(self._in_flight),
            "draining": self._draining,
            "clients": len(self._clients),
            "job_timeout": self.job_timeout,
            "jobs_accepted": self.jobs_accepted,
            "jobs_rejected": self.jobs_rejected,
            "jobs_done": self.jobs_done,
            "jobs_timed_out": self.jobs_timed_out,
            "rows_streamed": self.rows_streamed,
            "journal_errors": self.journal_errors,
            "journal": None if self._journal is None else str(self._journal.path),
            "executor": executor,
        }

    def status(self) -> dict:
        """The liveness probe: queue/fault/retry gauges in one message.

        Unlike :meth:`info` (static configuration + lifetime totals),
        ``status`` is what an operator polls during an incident: current
        queue depth, which jobs are actually executing, and every
        degradation counter the executor and fault registry keep.
        """
        pool = self._pool.info() if self._pool is not None else {}
        return {
            "queue_depth": self.queue_depth,
            "pending": self._pending,
            "in_flight": sorted(self._in_flight),
            "width": pool.get("width", 0),
            "draining": self._draining,
            "clients": len(self._clients),
            "jobs": {
                "accepted": self.jobs_accepted,
                "done": self.jobs_done,
                "rejected": self.jobs_rejected,
                "timed_out": self.jobs_timed_out,
            },
            "rows_streamed": self.rows_streamed,
            "journal_errors": self.journal_errors,
            "retries": {
                "batch_timeouts": pool.get("batch_timeouts", 0),
                "batch_retries": pool.get("batch_retries", 0),
                "degraded_shards": pool.get("degraded_shards", 0),
                "error_rows": pool.get("error_rows", 0),
                "transport_fallbacks": pool.get("transport_fallbacks", 0),
            },
            "faults": faults_active(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SweepService({self.host}:{self.port}, "
            f"pending={self._pending}, done={self.jobs_done})"
        )
