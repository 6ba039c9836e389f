"""The sweep service's JSON-lines wire protocol.

One JSON object per ``\\n``-terminated line, both directions, over a
plain TCP stream -- inspectable with ``nc`` and implementable from any
language.  The schema is deliberately small:

Client -> server operations (``{"op": ...}``):

``submit``
    ``{"op": "submit", "job": {...}}`` -- ask the server to run one
    sweep job (see :class:`JobSpec` for the job fields).  Answered by
    ``accepted`` or ``rejected``; an accepted job later streams ``row``
    / ``row_error`` messages and ends with ``done``.
``ping`` / ``info``
    Liveness probe / server statistics.  Answered by ``pong`` / ``info``.
``status``
    Operational probe: queue depth, pool width, in-flight job ids,
    job counters, executor retry/degradation counters and the fault-
    injection registry (:func:`repro.faults.faults_active`).  Answered
    by ``{"type": "status", ...}``.

Server -> client messages (``{"type": ...}``):

``hello``
    Sent once per connection: protocol version + server identity.  A
    client must check ``version`` before submitting.
``accepted``
    ``{"type": "accepted", "job_id": ..., "units": N}`` -- the job is
    queued; ``units`` is the number of dataset shards it will run.
``rejected``
    ``{"type": "rejected", "reason": "queue_full" | "draining" |
    "bad_request", ...}`` -- admission failed; nothing was queued.
    ``queue_full`` is the backpressure signal (the bounded job queue is
    at its ``queue_depth``); clients retry with backoff.
``row``
    One completed :class:`~repro.evaluation.harness.SweepRow`, streamed
    as its dataset shard finishes -- the same schema ``repro sweep
    --rows-jsonl`` writes (see :func:`row_to_wire`), so placement and
    cache counters flow to clients through ``meta``.
``row_error``
    One dataset shard failed (worker crash, validation failure, or the
    job's ``job_timeout`` deadline); the job carries on
    with its remaining shards -- unless the deadline passed, in which
    case every remaining shard fails immediately (bounded time).
``done``
    The job finished: ``{"type": "done", "job_id": ..., "rows": R,
    "failed": F, "status": "ok" | "partial" | "timeout"}``.
``error``
    The *request* was malformed (undecodable line, unknown op).  The
    connection stays usable.

Serialization helpers here are shared by the server, the client library
and the CLI (``sweep --rows-jsonl`` emits :func:`row_to_wire` objects),
so "the schema the service streams" is defined exactly once.
"""

from __future__ import annotations

import json
from typing import Any

from ..evaluation.harness import SweepRow

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "json_safe",
    "row_to_wire",
    "row_from_wire",
]

#: Bump on incompatible wire changes; the client refuses a mismatched
#: server instead of misreading its stream.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A line that is not a valid protocol message."""


def json_safe(value: Any) -> Any:
    """Coerce ``value`` into something ``json.dumps`` accepts, lossily.

    Row ``meta`` carries whatever engines stamp into launch extras --
    NumPy scalars, tuples, nested dicts, occasionally richer objects.
    The wire format keeps numbers as numbers (NumPy scalars have
    ``item()``), sequences as lists, and falls back to ``repr`` for
    anything else: diagnostics must never make a row unstreamable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return json_safe(item())
        except Exception:
            pass
    return repr(value)


def encode_message(message: dict) -> bytes:
    """One protocol message as a ``\\n``-terminated JSON line."""
    return (json.dumps(json_safe(message), separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_message(line: bytes | str) -> dict:
    """Parse one received line; raises :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol messages are JSON objects, got {type(message).__name__}"
        )
    return message


def row_to_wire(row: SweepRow) -> dict:
    """One :class:`SweepRow` as its wire/JSONL object.

    The paper's CSV schema plus ``app`` and the ``meta`` diagnostics --
    exactly what the service streams per row and what ``repro sweep
    --rows-jsonl`` writes per line.
    """
    return {
        "app": row.app,
        "kernel": row.kernel,
        "dataset": row.dataset,
        "rows": int(row.rows),
        "cols": int(row.cols),
        "nnzs": int(row.nnzs),
        "elapsed": float(row.elapsed),
        "meta": json_safe(row.meta),
    }


def row_from_wire(obj: dict) -> SweepRow:
    """Rebuild a :class:`SweepRow` from its wire object.

    The dataclass compares everything except ``meta``, so a rebuilt row
    equals the row a direct :func:`~repro.evaluation.harness.run_suite`
    call produces (floats survive the JSON round trip bit-exactly).
    """
    return SweepRow(
        app=obj.get("app", "spmv"),
        kernel=obj["kernel"],
        dataset=obj["dataset"],
        rows=int(obj["rows"]),
        cols=int(obj["cols"]),
        nnzs=int(obj["nnzs"]),
        elapsed=float(obj["elapsed"]),
        meta=dict(obj.get("meta") or {}),
    )
