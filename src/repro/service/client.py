"""Client library for the sweep service (and ``repro submit``).

A deliberately small synchronous client over one TCP connection: connect,
check the server's ``hello``, ``submit`` a job, iterate streamed rows.
:meth:`SweepClient.run` adds the retry loop reconnect-and-resubmit
clients want -- sweep jobs are pure computation, so resubmitting after a
dropped connection is always safe (the worst case is recomputing rows
the client never saw).

    with SweepClient(host, port) as client:
        result = client.run({"app": "spmv", "kernels": ["merge_path"],
                             "scale": "smoke"})
        for row in result.rows:
            ...

Exceptions map the protocol's failure vocabulary: :class:`JobRejected`
(admission said no -- carries the ``queue_full`` / ``draining`` /
``bad_request`` reason), :class:`ServiceError` (the stream broke or the
server spoke garbage).  Connection errors raise the usual ``OSError``
family from :meth:`SweepClient.connect`.
"""

from __future__ import annotations

import random
import socket
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator

from ..evaluation.harness import SweepRow
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    row_from_wire,
)

__all__ = [
    "SweepClient",
    "JobResult",
    "ServiceError",
    "JobRejected",
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_IDLE_TIMEOUT",
]

#: How long :meth:`SweepClient.connect` waits for the TCP handshake --
#: a dead host should fail in seconds, not the per-message budget.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: How long a read may sit with no bytes from the server before the
#: stream is declared broken (rows arrive one unit at a time, so this
#: bounds *silence*, not job duration).
DEFAULT_IDLE_TIMEOUT = 300.0


class ServiceError(RuntimeError):
    """The server misbehaved: broken stream, protocol garbage, timeout."""


class JobRejected(ServiceError):
    """Admission control said no; ``reason`` tells the client what to do.

    ``queue_full`` -> back off and retry; ``draining`` -> find another
    instance; ``bad_request`` -> fix the job, retrying is pointless.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"job rejected: {reason}" + (f" ({detail})" if detail else "")
        )


@dataclass
class JobResult:
    """Everything one job streamed back, in arrival order."""

    job_id: str
    units: int
    rows: list[SweepRow] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    status: str = "unknown"  # "ok" | "partial"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class SweepClient:
    """One synchronous JSON-lines connection to a :class:`SweepService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 connect_timeout: float | None = None,
                 idle_timeout: float | None = None):
        self.host = host
        self.port = int(port)
        #: Connecting to a dead host and a quiet-but-healthy stream
        #: deserve very different budgets; ``None`` takes the default.
        self.connect_timeout = (
            DEFAULT_CONNECT_TIMEOUT if connect_timeout is None
            else connect_timeout
        )
        self.idle_timeout = (
            DEFAULT_IDLE_TIMEOUT if idle_timeout is None else idle_timeout
        )
        self._sock: socket.socket | None = None
        self._file = None
        self.server_hello: dict | None = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> dict:
        """Open the connection and verify the server's ``hello``."""
        self.close()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.idle_timeout)
        self._sock = sock
        self._file = sock.makefile("rb")
        hello = self._read_message()
        if hello.get("type") != "hello":
            raise ServiceError(f"expected hello, got {hello.get('type')!r}")
        if hello.get("version") != PROTOCOL_VERSION:
            raise ServiceError(
                f"protocol version mismatch: server speaks "
                f"{hello.get('version')!r}, client speaks {PROTOCOL_VERSION}"
            )
        self.server_hello = hello
        return hello

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self.server_hello = None

    def __enter__(self) -> "SweepClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------
    def _send_message(self, message: dict) -> None:
        if self._sock is None:
            raise ServiceError("client is not connected")
        self._sock.sendall(encode_message(message))

    def _read_message(self) -> dict:
        if self._file is None:
            raise ServiceError("client is not connected")
        line = self._file.readline()
        if not line:
            raise ServiceError("server closed the connection")
        try:
            return decode_message(line)
        except ProtocolError as exc:
            raise ServiceError(f"bad server message: {exc}") from exc

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        self._send_message({"op": "ping"})
        return self._read_message().get("type") == "pong"

    def info(self) -> dict:
        self._send_message({"op": "info"})
        answer = self._read_message()
        if answer.get("type") != "info":
            raise ServiceError(f"expected info, got {answer.get('type')!r}")
        return answer.get("info") or {}

    def status(self) -> dict:
        """The server's liveness probe: queue/fault/retry gauges."""
        self._send_message({"op": "status"})
        answer = self._read_message()
        if answer.get("type") != "status":
            raise ServiceError(f"expected status, got {answer.get('type')!r}")
        return {k: v for k, v in answer.items() if k != "type"}

    def submit(self, job: dict) -> dict:
        """Submit one job; returns the ``accepted`` message.

        Raises :class:`JobRejected` when admission refuses (queue full,
        draining, malformed job) -- nothing was queued in that case.
        """
        if not self.connected:
            self.connect()
        self._send_message({"op": "submit", "job": job})
        answer = self._read_message()
        kind = answer.get("type")
        if kind == "accepted":
            return answer
        if kind == "rejected":
            raise JobRejected(
                answer.get("reason", "unknown"), answer.get("error", "")
            )
        raise ServiceError(f"expected accepted/rejected, got {kind!r}")

    def stream(self, accepted: dict) -> Iterator[dict]:
        """Yield this job's ``row`` / ``row_error`` / ``done`` messages.

        Terminates after ``done``.  Messages for other job ids on the
        same connection (interleaved submissions) are skipped here --
        use one connection per concurrent job for simplicity.
        """
        job_id = accepted.get("job_id")
        while True:
            message = self._read_message()
            if message.get("job_id") != job_id:
                continue
            kind = message.get("type")
            if kind in ("row", "row_error"):
                yield message
            elif kind == "done":
                yield message
                return

    def run(self, job: dict, *, retries: int = 0,
            retry_delay: float = 0.2, max_delay: float = 5.0,
            deadline: float | None = None, seed: int = 0) -> JobResult:
        """Submit, stream to completion, and collect a :class:`JobResult`.

        ``retries`` reconnect-and-resubmit attempts cover dropped
        connections and ``queue_full`` rejections (jobs are pure, so a
        resubmission at worst recomputes).  ``bad_request`` rejections
        never retry -- the job itself is wrong.

        Backoff between attempts is exponential from ``retry_delay``,
        capped at ``max_delay``, with deterministic jitter drawn from a
        ``random.Random`` seeded by ``seed`` and the job -- the same
        seed replays the same delays (chaos tests stay reproducible),
        while different clients still decorrelate.  ``deadline`` bounds
        the *total* wall clock across every attempt: no sleep extends
        past it, and once it passes the last error is raised instead of
        retrying.
        """
        attempts = retries + 1
        start = time.monotonic()
        rng = random.Random(
            seed ^ zlib.crc32(repr(sorted(job.items())).encode())
        )
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                delay = min(max_delay, retry_delay * (2 ** (attempt - 1)))
                delay *= 0.5 + rng.random() / 2  # jitter in [0.5, 1.0)
                if deadline is not None:
                    remaining = deadline - (time.monotonic() - start)
                    if remaining <= 0:
                        break
                    delay = min(delay, remaining)
                time.sleep(delay)
            try:
                if not self.connected:
                    self.connect()
                accepted = self.submit(job)
                result = JobResult(
                    job_id=accepted["job_id"], units=int(accepted["units"])
                )
                for message in self.stream(accepted):
                    kind = message.get("type")
                    if kind == "row":
                        result.rows.append(row_from_wire(message["row"]))
                    elif kind == "row_error":
                        result.errors.append(message)
                    else:  # done
                        result.status = message.get("status", "unknown")
                return result
            except JobRejected as exc:
                if exc.reason == "bad_request":
                    raise
                last_error = exc
                self.close()
            except (ServiceError, OSError) as exc:
                last_error = exc
                self.close()
        raise ServiceError(
            f"job did not complete after {attempts} attempt(s): {last_error}"
        ) from last_error
