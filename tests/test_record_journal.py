"""Tests for the CRC-framed record journal under the results journal."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service.journal import (
    JOURNAL_HEADER,
    JOURNAL_RECORD,
    MAGIC_LENGTH,
    RecordJournal,
)

MAGIC = b"RPTESTJ1"


@pytest.fixture
def path(tmp_path) -> Path:
    return tmp_path / "test.journal"


class TestBasics:
    def test_magic_must_be_eight_bytes(self, path):
        with pytest.raises(ValueError, match="8 bytes"):
            RecordJournal(path, magic=b"short")

    def test_new_file_gets_header(self, path):
        j = RecordJournal(path, magic=MAGIC, version=3)
        j.close()
        raw = path.read_bytes()
        assert raw == JOURNAL_HEADER.pack(MAGIC, 3)
        assert len(MAGIC) == MAGIC_LENGTH

    def test_append_and_scan_roundtrip(self, path):
        j = RecordJournal(path, magic=MAGIC)
        payloads = [b"alpha", b"beta", b"x" * 1000]
        for payload in payloads:
            j.append(payload)
        assert j.payloads() == payloads
        j.close()

    def test_reopen_sees_everything(self, path):
        j = RecordJournal(path, magic=MAGIC)
        j.append(b"persisted")
        j.close()
        j2 = RecordJournal(path, magic=MAGIC)
        assert j2.payloads() == [b"persisted"]
        assert not j2.scan_damage
        assert not j2.foreign
        j2.close()

    def test_closed_journal_raises(self, path):
        j = RecordJournal(path, magic=MAGIC)
        j.close()
        with pytest.raises(ValueError, match="closed"):
            j.append(b"nope")
        with pytest.raises(ValueError, match="closed"):
            j.payloads()


class TestDamageTolerance:
    def test_truncated_tail_stops_scan(self, path):
        j = RecordJournal(path, magic=MAGIC)
        j.append(b"whole")
        j.append(b"will-be-cut")
        j.close()
        os.truncate(path, os.path.getsize(path) - 3)
        j2 = RecordJournal(path, magic=MAGIC)
        assert j2.payloads() == [b"whole"]
        assert j2.scan_damage
        j2.close()

    def test_corrupt_record_stops_scan(self, path):
        j = RecordJournal(path, magic=MAGIC)
        j.append(b"good")
        j.append(b"flipped")
        j.append(b"after")
        j.close()
        raw = bytearray(path.read_bytes())
        second = JOURNAL_HEADER.size + JOURNAL_RECORD.size + len(b"good")
        raw[second + JOURNAL_RECORD.size] ^= 0xFF  # corrupt record 2's payload
        path.write_bytes(bytes(raw))
        j2 = RecordJournal(path, magic=MAGIC)
        # Framing after a bad CRC cannot be trusted: record 3 is invisible.
        assert j2.payloads() == [b"good"]
        assert j2.scan_damage
        j2.close()

    def test_append_truncates_damaged_tail(self, path):
        j = RecordJournal(path, magic=MAGIC)
        j.append(b"keep")
        j.close()
        with open(path, "ab") as fh:
            fh.write(b"\x07")  # torn write
        j2 = RecordJournal(path, magic=MAGIC)
        assert j2.payloads() == [b"keep"]
        j2.append(b"fresh")
        assert j2.payloads() == [b"keep", b"fresh"]
        assert not j2.scan_damage
        j2.close()

    #: Cut points inside the last record: ``(bytes kept, from where)``.
    CUTS = {
        "one-header-byte": (1, "header"),
        "header-less-one": (JOURNAL_RECORD.size - 1, "header"),
        "header-only": (JOURNAL_RECORD.size, "header"),
        "one-payload-byte": (JOURNAL_RECORD.size + 1, "header"),
        "last-byte-missing": (1, "end"),
    }

    @pytest.mark.parametrize("cut", list(CUTS))
    def test_torn_last_record_is_dropped_then_healed(self, path, cut):
        j = RecordJournal(path, magic=MAGIC)
        j.append(b"first")
        start = os.path.getsize(path)
        j.append(b"torn-record")
        j.close()
        kept, origin = self.CUTS[cut]
        end = start + kept if origin == "header" else os.path.getsize(path) - kept
        os.truncate(path, end)
        j2 = RecordJournal(path, magic=MAGIC)
        assert j2.payloads() == [b"first"]
        assert j2.scan_damage
        j2.append(b"fresh")
        assert j2.payloads() == [b"first", b"fresh"]
        assert not j2.scan_damage
        assert os.path.getsize(path) == start + JOURNAL_RECORD.size + len(b"fresh")
        j2.close()

    @pytest.mark.parametrize("field", ["length", "crc", "payload"])
    def test_flipped_byte_in_any_field_stops_scan(self, path, field):
        j = RecordJournal(path, magic=MAGIC)
        for payload in (b"good", b"flipped", b"after"):
            j.append(payload)
        j.close()
        second = JOURNAL_HEADER.size + JOURNAL_RECORD.size + len(b"good")
        offset = {"length": 0, "crc": 4, "payload": JOURNAL_RECORD.size}[field]
        raw = bytearray(path.read_bytes())
        raw[second + offset] ^= 0x01
        path.write_bytes(bytes(raw))
        j2 = RecordJournal(path, magic=MAGIC)
        assert j2.payloads() == [b"good"]
        assert j2.scan_damage
        j2.close()

    def test_implausible_length_is_damage(self, path):
        j = RecordJournal(path, magic=MAGIC)
        j.append(b"fine")
        j.close()
        with open(path, "ab") as fh:
            fh.write(JOURNAL_RECORD.pack(2**31, 0))
        j2 = RecordJournal(path, magic=MAGIC)
        assert j2.payloads() == [b"fine"]
        assert j2.scan_damage
        j2.close()


class TestForeignFiles:
    def test_wrong_magic_reads_cold(self, path):
        other = RecordJournal(path, magic=b"OTHERMAG")
        other.append(b"not-ours")
        other.close()
        j = RecordJournal(path, magic=MAGIC)
        assert j.payloads() == []
        assert j.foreign
        j.close()

    def test_wrong_version_reads_cold_and_rotates(self, path):
        old = RecordJournal(path, magic=MAGIC, version=1)
        old.append(b"v1-data")
        old.close()
        j = RecordJournal(path, magic=MAGIC, version=2)
        assert j.payloads() == []
        j.append(b"v2-data")
        assert j.payloads() == [b"v2-data"]
        assert not j.foreign
        j.close()
        # The file now carries the new version header.
        magic, version = JOURNAL_HEADER.unpack(
            path.read_bytes()[: JOURNAL_HEADER.size]
        )
        assert (magic, version) == (MAGIC, 2)


    @pytest.mark.parametrize(
        "content",
        [b"", b"RPTE", JOURNAL_HEADER.pack(b"OTHERMAG", 1)],
        ids=["empty-file", "short-header", "wrong-magic"],
    )
    def test_empty_or_foreign_file_takes_our_header(self, path, content):
        path.write_bytes(content)
        j = RecordJournal(path, magic=MAGIC)
        if content:
            assert j.payloads() == []
            assert j.foreign
        j.append(b"ours")
        assert j.payloads() == [b"ours"]
        assert not j.foreign
        j.close()
        assert path.read_bytes()[: JOURNAL_HEADER.size] == JOURNAL_HEADER.pack(
            MAGIC, 1
        )
        assert list(path.parent.iterdir()) == [path]  # no temp file left


#: A writer process: appends ``count`` tagged records to the journal.
_WRITER = """
import sys
from repro.service.journal import RecordJournal
j = RecordJournal(sys.argv[1], magic=sys.argv[2].encode())
for i in range(int(sys.argv[4])):
    j.append(f"{sys.argv[3]}:{i}".encode() * 8)
j.close()
"""


class TestConcurrency:
    def test_process_appends_interleave_whole_records(self, path):
        RecordJournal(path, magic=MAGIC).close()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(path), MAGIC.decode(), tag, "50"],
                env=env,
            )
            for tag in ("a", "b")
        ]
        for writer in writers:
            assert writer.wait(timeout=120) == 0
        j = RecordJournal(path, magic=MAGIC)
        payloads = j.payloads()
        assert not j.scan_damage
        assert sorted(payloads) == sorted(
            f"{tag}:{i}".encode() * 8 for tag in ("a", "b") for i in range(50)
        )
        # Each writer's records land in its own append order.
        for tag in (b"a", b"b"):
            mine = [p for p in payloads if p.startswith(tag)]
            assert mine == [f"{tag.decode()}:{i}".encode() * 8 for i in range(50)]
        j.close()

    def test_threaded_appends_all_survive(self, path):
        j = RecordJournal(path, magic=MAGIC)

        def writer(tag: int) -> None:
            for i in range(25):
                j.append(f"{tag}:{i}".encode())

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        payloads = j.payloads()
        assert len(payloads) == 100
        assert len(set(payloads)) == 100
        assert not j.scan_damage
        j.close()
