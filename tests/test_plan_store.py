"""Tests for the append-only single-file plan store (journal layout).

The store is the plan cache's one disk layer, and it is *pure
acceleration*.  Truncated tails, corrupt records, version bumps, foreign
files and concurrent writers can only ever read as misses -- never as an
error, never as a wrong plan.
"""

from __future__ import annotations

import os
import pickle
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from repro.apps.common import spmv_costs
from repro.core.schedule import make_schedule
from repro.core.work import WorkSpec
from repro.engine import (
    PLAN_STORE_ENV,
    PlanCache,
    PlanStore,
    configure_global_plan_cache,
)
from repro.engine.plan_store import STORE_MAGIC, _HEADER, _RECORD
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _record_bytes(key, value) -> bytes:
    payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


class TestRoundTrip:
    def test_put_get_same_instance(self, tmp_path):
        store = PlanStore(tmp_path / "plans.journal")
        store.put(("k", 1), {"v": 1})
        assert store.get(("k", 1)) == {"v": 1}
        assert store.get(("missing",)) is None
        assert len(store) == 1

    def test_journal_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "plans.journal"
        writer = PlanStore(path)
        writer.put(("a",), 1)
        writer.put(("b",), {"nested": [1, 2]})
        writer.close()

        reader = PlanStore(path)
        assert reader.get(("a",)) == 1
        assert reader.get(("b",)) == {"nested": [1, 2]}
        assert len(reader) == 2
        # One file on disk, nothing else.
        assert [p.name for p in tmp_path.iterdir()] == ["plans.journal"]

    def test_newest_record_wins(self, tmp_path):
        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        for v in range(5):
            store.put(("k",), v)
        assert store.get(("k",)) == 4
        assert store.dead_records == 4
        store.close()
        assert PlanStore(path).get(("k",)) == 4

    def test_closed_store_rejects_puts(self, tmp_path):
        store = PlanStore(tmp_path / "s.journal")
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.put(("k",), 1)


class TestDamageTolerance:
    def _seeded(self, tmp_path) -> Path:
        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.close()
        return path

    def test_truncated_tail_reads_fall_through(self, tmp_path):
        path = self._seeded(tmp_path)
        with open(path, "ab") as fh:
            fh.write(_record_bytes(("c",), 3)[:-5])  # writer died mid-append

        store = PlanStore(path)
        assert store.scan_damage
        assert store.get(("a",)) == 1 and store.get(("b",)) == 2
        assert store.get(("c",)) is None  # falls through to live planning

    def test_append_after_truncated_tail_recovers(self, tmp_path):
        path = self._seeded(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00partial")
        store = PlanStore(path)
        store.put(("c",), 3)  # truncates the garbage, then appends
        store.close()
        fresh = PlanStore(path)
        assert not fresh.scan_damage
        assert [fresh.get(k) for k in [("a",), ("b",), ("c",)]] == [1, 2, 3]

    def test_corrupt_record_stops_scan_benignly(self, tmp_path):
        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        store.put(("a",), 1)
        offset_after_a = os.path.getsize(path)
        store.put(("b",), 2)
        store.put(("c",), 3)
        store.close()
        # Flip one payload byte of record "b": CRC breaks, framing after
        # it cannot be trusted, so "b" and "c" read as misses while "a"
        # still serves.
        data = bytearray(path.read_bytes())
        data[offset_after_a + _RECORD.size + 2] ^= 0xFF
        path.write_bytes(bytes(data))

        reader = PlanStore(path)
        assert reader.scan_damage
        assert reader.get(("a",)) == 1
        assert reader.get(("b",)) is None and reader.get(("c",)) is None

    def test_foreign_file_reads_cold_and_rotates_on_put(self, tmp_path):
        path = tmp_path / "plans.journal"
        path.write_bytes(b"this is not a plan store at all")
        store = PlanStore(path)
        assert len(store) == 0
        assert store.get(("a",)) is None
        store.put(("a",), 1)  # rotates to a fresh journal
        store.close()
        fresh = PlanStore(path)
        assert fresh.get(("a",)) == 1 and not fresh.scan_damage

    def test_version_bump_reads_cold(self, tmp_path):
        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        store.put(("a",), 1)
        store.close()
        data = bytearray(path.read_bytes())
        data[: _HEADER.size] = _HEADER.pack(STORE_MAGIC, 999)
        path.write_bytes(bytes(data))
        assert len(PlanStore(path)) == 0

    def test_get_reverifies_crc(self, tmp_path):
        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        store.put(("a",), 1)
        # Corrupt the payload *behind the live index*: the read-time CRC
        # check must degrade to a miss, not return garbage.
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(("a",)) is None
        assert len(store) == 0  # stale index entry dropped


class TestCompaction:
    def test_compaction_keeps_newest_record_per_key(self, tmp_path):
        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        for v in range(10):
            store.put(("k", v % 2), v)
        size_before = os.path.getsize(path)
        dropped = store.compact()
        assert dropped == 8
        assert os.path.getsize(path) < size_before
        assert store.get(("k", 0)) == 8 and store.get(("k", 1)) == 9
        assert store.dead_records == 0
        store.close()
        fresh = PlanStore(path)
        assert len(fresh) == 2
        assert fresh.get(("k", 0)) == 8 and fresh.get(("k", 1)) == 9

    def test_store_usable_after_compaction(self, tmp_path):
        store = PlanStore(tmp_path / "plans.journal")
        store.put(("a",), 1)
        store.compact()
        store.put(("b",), 2)
        assert store.get(("a",)) == 1 and store.get(("b",)) == 2


class TestAutoCompaction:
    def test_put_auto_compacts_past_the_dead_ratio(self, tmp_path):
        from repro.engine.plan_store import AUTO_COMPACT_MIN_DEAD

        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        # Rewrite one key until the dead-record floor is crossed; with
        # the default ratio (0.5) the journal then compacts itself.
        for v in range(AUTO_COMPACT_MIN_DEAD + 2):
            store.put(("hot",), v)
        assert store.auto_compactions >= 1
        assert store.dead_records < AUTO_COMPACT_MIN_DEAD
        assert store.get(("hot",)) == AUTO_COMPACT_MIN_DEAD + 1
        assert store.info()["auto_compactions"] == store.auto_compactions

    def test_small_journals_never_auto_compact(self, tmp_path):
        """Ratio alone would thrash tiny journals ("50% dead" after two
        puts of one key); the dead-record floor keeps them alone."""
        store = PlanStore(tmp_path / "plans.journal")
        for v in range(10):
            store.put(("k",), v)
        assert store.auto_compactions == 0
        assert store.dead_records == 9

    def test_non_positive_ratio_disables_auto_compaction(self, tmp_path):
        from repro.engine.plan_store import AUTO_COMPACT_MIN_DEAD

        store = PlanStore(tmp_path / "plans.journal", compact_ratio=0)
        for v in range(AUTO_COMPACT_MIN_DEAD + 16):
            store.put(("k",), v)
        assert store.auto_compactions == 0
        assert store.dead_records == AUTO_COMPACT_MIN_DEAD + 15

    def test_ratio_env_knob(self, tmp_path, monkeypatch):
        from repro.engine.plan_store import PLAN_STORE_COMPACT_RATIO_ENV

        monkeypatch.setenv(PLAN_STORE_COMPACT_RATIO_ENV, "0.25")
        assert PlanStore(tmp_path / "a.journal").compact_ratio == 0.25
        monkeypatch.setenv(PLAN_STORE_COMPACT_RATIO_ENV, "0")
        assert PlanStore(tmp_path / "b.journal").compact_ratio == 0

    def test_malformed_ratio_env_warns_and_defaults(self, tmp_path, monkeypatch):
        from repro.engine.plan_store import (
            DEFAULT_COMPACT_RATIO,
            PLAN_STORE_COMPACT_RATIO_ENV,
        )

        monkeypatch.setenv(PLAN_STORE_COMPACT_RATIO_ENV, "half")
        with pytest.warns(RuntimeWarning, match="COMPACT_RATIO"):
            store = PlanStore(tmp_path / "plans.journal")
        assert store.compact_ratio == DEFAULT_COMPACT_RATIO

    def test_explicit_ratio_overrides_env(self, tmp_path, monkeypatch):
        from repro.engine.plan_store import PLAN_STORE_COMPACT_RATIO_ENV

        monkeypatch.setenv(PLAN_STORE_COMPACT_RATIO_ENV, "0.9")
        store = PlanStore(tmp_path / "plans.journal", compact_ratio=0.1)
        assert store.compact_ratio == 0.1


class TestConcurrentWriters:
    def test_threaded_writers_interleave_benignly(self, tmp_path):
        path = tmp_path / "plans.journal"
        stores = [PlanStore(path) for _ in range(2)]

        def write(store, base):
            for i in range(50):
                store.put((base, i), {"writer": base, "i": i})

        threads = [
            threading.Thread(target=write, args=(s, n))
            for n, s in enumerate(stores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for s in stores:
            s.close()

        reader = PlanStore(path)
        assert not reader.scan_damage
        assert len(reader) == 100
        for base in (0, 1):
            for i in range(50):
                assert reader.get((base, i)) == {"writer": base, "i": i}

    def test_process_writers_interleave_benignly(self, tmp_path):
        path = tmp_path / "plans.journal"
        script = (
            "import sys\n"
            "from repro.engine import PlanStore\n"
            "store = PlanStore(sys.argv[1])\n"
            "base = sys.argv[2]\n"
            "for i in range(40):\n"
            "    store.put((base, i), i)\n"
            "store.close()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), base], env=env
            )
            for base in ("x", "y")
        ]
        assert all(p.wait() == 0 for p in procs)

        reader = PlanStore(path)
        assert not reader.scan_damage
        assert len(reader) == 80
        assert reader.get(("x", 39)) == 39 and reader.get(("y", 0)) == 0


@pytest.fixture
def matrix():
    return gen.power_law(24, 24, 3.0, 1.9, seed=3)


def _plan_once(cache: PlanCache, matrix):
    work = WorkSpec.from_csr(matrix)
    sched = make_schedule("merge_path", work, TINY_GPU)
    return cache.plan(sched, spmv_costs(TINY_GPU), options_key=("merge_path",))


class TestPlanCacheIntegration:
    def test_store_backed_cache_round_trips(self, tmp_path, matrix):
        path = tmp_path / "plans.journal"
        cold = PlanCache(store_path=path)
        stats = _plan_once(cold, matrix)
        assert cold.misses == 1 and cold.disk_hits == 0

        warm = PlanCache(store_path=path)
        replayed = _plan_once(warm, matrix)
        assert warm.misses == 0 and warm.disk_hits == 1
        assert replayed == stats
        assert warm.info()["store_path"] == str(path)
        assert warm.info()["store_records"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["plans.journal"]

    def test_attaching_another_store_closes_the_first(self, tmp_path):
        cache = PlanCache(store_path=tmp_path / "a.journal")
        first = cache.store
        cache.set_store_path(tmp_path / "b.journal")
        assert cache.store_path == tmp_path / "b.journal"
        with pytest.raises(ValueError):
            first.put(("k",), 1)  # closed on detach
        cache.set_store_path(None)
        assert cache.store is None

    def test_reattaching_same_store_is_a_noop(self, tmp_path, matrix):
        path = tmp_path / "plans.journal"
        cache = PlanCache(store_path=path)
        _plan_once(cache, matrix)
        store = cache.store
        cache.set_store_path(path)  # what warm pool workers do per shard
        assert cache.store is store  # same open journal, index kept

    def test_configure_global_with_store(self, tmp_path):
        cache = configure_global_plan_cache(store_path=tmp_path / "s.journal")
        try:
            assert cache.store_path == tmp_path / "s.journal"
        finally:
            configure_global_plan_cache(None)
        assert cache.store_path is None


class TestCrossProcess:
    def _sweep_info(self, store_path: Path) -> dict:
        script = (
            "import json, sys\n"
            "from repro.evaluation.harness import run_suite\n"
            "from repro.engine import global_plan_cache\n"
            "from repro.engine import ExecutionContext\n"
            "run_suite(['merge_path', 'thread_mapped'], scale='smoke',\n"
            "          limit=3, ctx=ExecutionContext(plan_store=sys.argv[1]))\n"
            "print(json.dumps(global_plan_cache().info()))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(PLAN_STORE_ENV, None)
        out = subprocess.run(
            [sys.executable, "-c", script, str(store_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        import json

        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_fresh_process_starts_warm_from_store(self, tmp_path):
        store_path = tmp_path / "plans.journal"
        cold = self._sweep_info(store_path)
        assert cold["misses"] > 0 and cold["disk_hits"] == 0
        warm = self._sweep_info(store_path)
        assert warm["misses"] == 0
        assert warm["disk_hits"] == cold["misses"]  # misses avoided
        assert [p.name for p in tmp_path.iterdir()] == ["plans.journal"]

    def test_env_var_attaches_store(self, tmp_path):
        script = (
            "import json\n"
            "from repro.engine import global_plan_cache\n"
            "print(json.dumps(global_plan_cache().info()))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env[PLAN_STORE_ENV] = str(tmp_path / "env.journal")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        import json

        info = json.loads(out.stdout.strip().splitlines()[-1])
        assert info["store_path"] == str(tmp_path / "env.journal")

    def test_unusable_env_store_never_breaks_import(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        script = (
            "import json\n"
            "from repro.engine import global_plan_cache\n"
            "print(json.dumps(global_plan_cache().info()))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env[PLAN_STORE_ENV] = str(blocker / "nested.journal")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        import json

        info = json.loads(out.stdout.strip().splitlines()[-1])
        assert info["store_path"] is None  # fell back to memory-only

    def test_struct_layout_stable(self):
        """The on-disk framing is load-bearing; freeze its sizes."""
        assert _HEADER.size == 12
        assert _RECORD.size == 8
        assert struct.calcsize("<8sI") == 12
