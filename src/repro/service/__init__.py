"""``repro serve`` -- the multi-tenant sweep service over the warm stack.

Public surface:

* :class:`~repro.service.server.SweepService` -- the asyncio daemon (one
  persistent executor, bounded admission, round-robin fairness,
  streaming results, crash-safe journal, drain-on-signal).
* :class:`~repro.service.client.SweepClient` -- the synchronous client
  library behind ``repro submit``.
* :mod:`repro.service.protocol` -- the JSON-lines wire schema, shared by
  both plus ``repro sweep --rows-jsonl``.
* :class:`~repro.service.journal.ResultsJournal` -- the CRC-framed
  results log and its replay/aggregation helpers.
"""

from .client import JobRejected, JobResult, ServiceError, SweepClient
from .journal import RESULTS_FORMAT_VERSION, RESULTS_MAGIC, ResultsJournal
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    json_safe,
    row_from_wire,
    row_to_wire,
)
from .server import (
    DEFAULT_JOB_TIMEOUT,
    DEFAULT_QUEUE_DEPTH,
    SweepService,
)

__all__ = [
    "SweepService",
    "SweepClient",
    "JobResult",
    "ServiceError",
    "JobRejected",
    "ResultsJournal",
    "RESULTS_MAGIC",
    "RESULTS_FORMAT_VERSION",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "json_safe",
    "row_to_wire",
    "row_from_wire",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_JOB_TIMEOUT",
]
