"""Crash-safe results journal for the sweep service.

Every accepted job, streamed row, per-shard failure and completion is
appended as one JSON event record to a :class:`RecordJournal`, so a
service killed mid-write loses at most the half-written tail record and
nothing before it.  Replay after a crash recovers every completed row
without re-running anything.

Record format
-------------
::

    header  := magic (8 bytes) | version (<I)
    record  := payload_len (<I) | crc32(payload) (<I) | payload

Records are only ever appended, each in a single ``write(2)`` on an
``O_APPEND`` descriptor -- so concurrent writers interleave whole
records, never bytes.  A journal can only ever lose tail records
written mid-crash, never serve corrupt payloads:

* a truncated tail (a writer died mid-append) stops the scan at the
  last whole record; the next append truncates the garbage away first;
* a corrupt record (CRC mismatch) also stops the scan -- framing after
  a flipped length byte cannot be trusted -- and everything from that
  point is invisible;
* a foreign or version-bumped header reads the whole file as empty; the
  first append rotates it to a fresh header.

Event schema (one JSON object per record)::

    {"event": "job",  "job_id": ..., "client": ..., "spec": {...}}
    {"event": "row",  "job_id": ..., "seq": N, "row": {row_to_wire...}}
    {"event": "row_error", "job_id": ..., "dataset": ..., "error": "..."}
    {"event": "done", "job_id": ..., "rows": R, "failed": F, "status": ...}

``replay()`` yields raw events; :meth:`ResultsJournal.jobs` aggregates
them into per-job summaries (spec, recovered rows, completion state) --
what an operator inspects after a kill, and what the tests assert.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Iterator

from ..faults import inject

__all__ = [
    "RecordJournal",
    "ResultsJournal",
    "RESULTS_MAGIC",
    "RESULTS_FORMAT_VERSION",
    "JOURNAL_HEADER",
    "JOURNAL_RECORD",
]

#: Header layout: 8-byte magic + little-endian format version.
JOURNAL_HEADER = struct.Struct("<8sI")

#: Record framing: little-endian payload length + crc32(payload).
JOURNAL_RECORD = struct.Struct("<II")

#: Every journal magic is exactly this long (the header struct is fixed).
MAGIC_LENGTH = 8

#: Sanity bound on one record's payload; a declared length beyond this is
#: treated as framing garbage, not an allocation request.
_MAX_PAYLOAD = 256 * 1024 * 1024

RESULTS_MAGIC = b"RPSERVE1"

#: Bump when the event schema changes incompatibly; old files then read
#: as foreign and are rotated on the first append.
RESULTS_FORMAT_VERSION = 1


class RecordJournal:
    """One append-only file of CRC-framed records behind a magic header.

    Thread-safe; cross-process safety comes from whole-record
    ``O_APPEND`` writes.  Payloads are opaque bytes.
    """

    def __init__(self, path: str | Path, *, magic: bytes, version: int = 1):
        if len(magic) != MAGIC_LENGTH:
            raise ValueError(
                f"journal magic must be exactly {MAGIC_LENGTH} bytes, "
                f"got {magic!r}"
            )
        self.path = Path(path)
        self.magic = bytes(magic)
        self.version = int(version)
        #: True when the last scan hit a truncated tail or corrupt record.
        self.scan_damage = False
        #: True when the file is not ours (bad magic/version); the first
        #: append rotates it to a fresh header.
        self.foreign = False
        self._lock = threading.RLock()
        self._write_fd: int | None = None
        self._read_fh = None
        #: Byte offset one past the last whole, CRC-valid record.
        self._good_end = JOURNAL_HEADER.size
        #: Lazily set by the first scan; appends force one so damage and
        #: foreign headers are handled before any write lands.
        self._scanned = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            self._write_header_if_empty(fd)
        finally:
            os.close(fd)
        self._open_fds()

    def _open_fds(self) -> None:
        self._write_fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        self._read_fh = open(self.path, "rb")

    def _write_header_if_empty(self, fd: int) -> None:
        """Initialize a brand-new journal, serializing concurrent creators."""
        try:
            import fcntl

            fcntl.flock(fd, fcntl.LOCK_EX)
        except (ImportError, OSError):  # non-POSIX: best effort
            pass
        if os.fstat(fd).st_size == 0:
            os.write(fd, JOURNAL_HEADER.pack(self.magic, self.version))

    def _scan(self, keep: bool) -> list[bytes]:
        """One pass over the file; collects the payloads when ``keep``,
        and always refreshes ``scan_damage``/``foreign``/the good end."""
        fh = self._read_fh
        assert fh is not None
        out: list[bytes] = []
        self.scan_damage = False
        self.foreign = False
        self._good_end = JOURNAL_HEADER.size
        self._scanned = True
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(0)
        head = fh.read(JOURNAL_HEADER.size)
        if len(head) < JOURNAL_HEADER.size:
            self.foreign, self._good_end = True, 0
            return out
        magic, version = JOURNAL_HEADER.unpack(head)
        if magic != self.magic or version != self.version:
            self.foreign, self._good_end = True, 0
            return out
        pos = JOURNAL_HEADER.size
        while pos < size:
            hdr = fh.read(JOURNAL_RECORD.size)
            if len(hdr) < JOURNAL_RECORD.size:
                self.scan_damage = True  # truncated tail
                break
            length, crc = JOURNAL_RECORD.unpack(hdr)
            if (
                length == 0
                or length > _MAX_PAYLOAD
                or pos + JOURNAL_RECORD.size + length > size
            ):
                self.scan_damage = True  # implausible framing
                break
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                # A flipped byte poisons everything downstream: record
                # lengths after this point cannot be trusted, so the
                # scan stops and later records are invisible.
                self.scan_damage = True
                break
            pos += JOURNAL_RECORD.size + length
            self._good_end = pos
            if keep:
                out.append(payload)
        return out

    def payloads(self) -> list[bytes]:
        """Every whole, CRC-valid record payload, in file order."""
        with self._lock:
            if self._read_fh is None:
                raise ValueError("journal is closed")
            return self._scan(keep=True)

    def append(self, payload: bytes) -> None:
        """Append one record in a single ``write(2)``.  A foreign header
        is rotated away and a damaged tail truncated first, so the new
        record is always scannable."""
        payload = bytes(payload)
        record = JOURNAL_RECORD.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            if self._write_fd is None:
                raise ValueError("journal is closed")
            if not self._scanned:
                self._scan(keep=False)
            if self.foreign:
                self._rotate()
            elif self.scan_damage:
                self._truncate_damage()
            # With O_APPEND the kernel picks the final offset; under a
            # concurrent writer in another process this guess can be
            # stale, which only moves where a later heal truncates.
            offset = os.fstat(self._write_fd).st_size
            if inject("journal.write") == "torn":
                # Write only part of the record -- a crash mid-append.
                # The good end stays where it was and the damage flag is
                # raised, so the *next* append truncates the torn bytes
                # away: exactly one record is lost, never the file.
                os.write(self._write_fd, record[: max(1, len(record) // 2)])
                self.scan_damage = True
                return
            os.write(self._write_fd, record)
            self._good_end = offset + len(record)

    def _truncate_damage(self) -> None:
        """Drop a damaged tail so new appends stay scannable."""
        try:
            os.truncate(self.path, self._good_end)
        except OSError:
            pass
        self.scan_damage = False

    def _rotate(self) -> None:
        """Atomically replace a foreign file with a fresh, empty journal.

        A temp file + ``os.replace``; a concurrent writer holding the old
        inode keeps appending to the orphan, losing only its records'
        visibility here.
        """
        tmp = self.path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        with open(tmp, "wb") as fh:
            fh.write(JOURNAL_HEADER.pack(self.magic, self.version))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._close_fds()
        self._open_fds()
        self.foreign = False
        self.scan_damage = False
        self._good_end = JOURNAL_HEADER.size

    def _close_fds(self) -> None:
        if self._write_fd is not None:
            os.close(self._write_fd)
            self._write_fd = None
        if self._read_fh is not None:
            self._read_fh.close()
            self._read_fh = None

    def close(self) -> None:
        with self._lock:
            self._close_fds()


class ResultsJournal:
    """Append-only JSON event log over :class:`RecordJournal`."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._journal = RecordJournal(
            self.path, magic=RESULTS_MAGIC, version=RESULTS_FORMAT_VERSION
        )

    def append(self, event: dict) -> None:
        """Durably record one event (single ``O_APPEND`` write)."""
        self._journal.append(json.dumps(event, separators=(",", ":")).encode("utf-8"))

    def replay(self) -> Iterator[dict]:
        """Every whole, CRC-valid event in write order.

        A truncated or corrupt tail (the crash case) silently ends the
        stream; an undecodable-but-framed payload is skipped.
        """
        for payload in self._journal.payloads():
            try:
                event = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue
            if isinstance(event, dict):
                yield event

    def jobs(self) -> dict[str, dict]:
        """Aggregate the event stream into per-job recovery summaries."""
        jobs: dict[str, dict[str, Any]] = {}
        for event in self.replay():
            job_id = event.get("job_id")
            if job_id is None:
                continue
            job = jobs.setdefault(
                job_id,
                {"spec": None, "client": None, "rows": [], "errors": [],
                 "done": False, "status": None},
            )
            kind = event.get("event")
            if kind == "job":
                job["spec"] = event.get("spec")
                job["client"] = event.get("client")
            elif kind == "row":
                job["rows"].append(event.get("row"))
            elif kind == "row_error":
                job["errors"].append(event)
            elif kind == "done":
                job["done"] = True
                job["status"] = event.get("status")
        return jobs

    @property
    def scan_damage(self) -> bool:
        return self._journal.scan_damage

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "ResultsJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
