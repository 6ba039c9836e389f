"""Tests for the artifact-style CLI (``python -m repro``)."""

import csv
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import build_parser, main

CHESAPEAKE = Path(__file__).resolve().parent.parent / "datasets" / "chesapeake.mtx"


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestSpmvCommand:
    def test_dataset_run_validates(self):
        code, out = run_cli(
            "spmv", "--dataset", "tiny_diag_32", "--scale", "smoke", "--validate"
        )
        assert code == 0
        assert "Errors: 0" in out
        assert "Dimensions: 32 x 32 (32)" in out
        assert "Elapsed (ms):" in out

    def test_mtx_run_matches_artifact_output(self):
        # The paper's A.3.1 sanity check via the CLI.
        code, out = run_cli(
            "spmv", "-m", str(CHESAPEAKE), "--schedule", "merge_path", "--validate"
        )
        assert code == 0
        assert "Dimensions: 39 x 39 (340)" in out
        assert "Errors: 0" in out

    def test_heuristic_schedule(self):
        code, out = run_cli(
            "spmv", "--dataset", "tiny_uniform_64", "--scale", "smoke",
            "--schedule", "heuristic",
        )
        assert code == 0
        assert "Schedule: thread_mapped" in out

    def test_spec_selection(self):
        code, out = run_cli(
            "spmv", "--dataset", "tiny_diag_32", "--scale", "smoke",
            "--spec", "AMD-WARP64",
        )
        assert code == 0

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            run_cli("spmv")


class TestSweepCommand:
    def test_stdout_csv(self):
        code, out = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke", "--limit", "3"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert rows[0]["kernel"] == "merge_path"

    def test_file_output(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out = run_cli(
            "sweep", "--kernels", "cub", "cusparse", "--scale", "smoke",
            "--limit", "2", "-o", str(target),
        )
        assert code == 0
        assert "wrote 4 rows" in out
        assert target.exists()

    def test_non_spmv_app_adds_app_column(self):
        code, out = run_cli(
            "sweep", "--app", "histogram", "--kernels", "thread_mapped",
            "--scale", "smoke", "--limit", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["app"] == "histogram"

    def test_plan_store_knob(self, tmp_path):
        store = tmp_path / "plans.journal"
        code, out = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "2", "--plan-store", str(store),
        )
        assert code == 0
        assert store.is_file()  # one journal, no plan-*.pkl directory
        assert not list(tmp_path.glob("plan-*.pkl"))

    @pytest.mark.parametrize("flags", [
        ["--executor", "process"],
        ["--keep-pool"],
        ["--transport", "shm"],
        ["--plan-cache-dir", "plans"],
    ], ids=["executor", "keep-pool", "transport", "plan-cache-dir"])
    def test_removed_flags_exit_2(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--kernels", "merge_path", "--scale", "smoke",
                    "--limit", "1", *flags)
        assert excinfo.value.code == 2  # argparse: unrecognized arguments

    def test_negative_workers_exit_2(self, capsys):
        code, _ = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "1", "--workers", "-1",
        )
        assert code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_workers_sweep_through_default_executor(self):
        from repro.engine import default_executor, shutdown_default_executor

        args = ("sweep", "--kernels", "merge_path", "--scale", "smoke",
                "--limit", "3")
        shutdown_default_executor()
        try:
            code, pooled = run_cli(*args, "--workers", "3")
            assert code == 0
            pool = default_executor()
            assert pool.sweeps == 1 and pool.width == 3
        finally:
            shutdown_default_executor()
        code, serial = run_cli(*args, "--workers", "0")
        assert code == 0
        assert pooled == serial
        assert len(list(csv.DictReader(io.StringIO(pooled)))) == 3

    def test_parallel_workers(self):
        from repro.engine import shutdown_default_executor

        try:
            code, out = run_cli(
                "sweep", "--app", "histogram", "--kernels", "merge_path",
                "--scale", "smoke", "--limit", "3", "--workers", "2",
            )
        finally:
            shutdown_default_executor()
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {r["app"] for r in rows} == {"histogram"}

    def test_zero_workers_sweeps_without_a_pool(self):
        from repro.engine import shutdown_default_executor, worker_pool

        shutdown_default_executor()
        code, out = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "2", "--workers", "0",
        )
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 2
        assert worker_pool._DEFAULT is None  # serial: no pool was spawned


class TestInfoCommands:
    def test_datasets_listing(self):
        code, out = run_cli("datasets", "--scale", "smoke")
        assert code == 0
        assert "power_a19" in out
        assert "spvec_2k" in out

    def test_table1(self):
        code, out = run_cli("table1")
        assert code == 0
        assert "merge_path" in out
        assert "503" in out  # paper's CUB number

    def test_schedules(self):
        code, out = run_cli("schedules")
        assert code == 0
        listed = out.split()
        assert "merge_path" in listed
        assert "dynamic_queue" in listed

    def test_apps_listing(self):
        code, out = run_cli("apps")
        assert code == 0
        for name in ("spmv", "bfs", "spgemm", "histogram"):
            assert name in out


class TestPlansCommand:
    @pytest.fixture
    def journal(self, tmp_path):
        from repro.engine import PlanStore

        path = tmp_path / "plans.journal"
        store = PlanStore(path)
        for v in range(5):
            store.put(("hot",), v)  # 4 dead records
        store.put(("cold",), 0)
        store.close()
        return path

    def test_info_reports_live_and_dead(self, journal):
        code, out = run_cli("plans", str(journal))
        assert code == 0
        assert "2 live, 4 dead" in out
        assert str(journal) in out
        assert "scan damage:  no" in out

    def test_compact_drops_dead_records(self, journal):
        size_before = journal.stat().st_size
        code, out = run_cli("plans", "compact", str(journal))
        assert code == 0
        assert "dropped 4 dead records" in out
        assert journal.stat().st_size < size_before
        code, out = run_cli("plans", str(journal))
        assert code == 0
        assert "2 live, 0 dead" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code, _ = run_cli("plans", str(tmp_path / "nope.journal"))
        assert code == 2
        assert "no plan store" in capsys.readouterr().err

    def test_directory_exits_2(self, tmp_path, capsys):
        code, _ = run_cli("plans", str(tmp_path))
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_foreign_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"not a journal at all")
        code, _ = run_cli("plans", str(path))
        assert code == 2
        assert "bad header" in capsys.readouterr().err

    def test_compact_missing_path_exits_2(self, tmp_path, capsys):
        code, _ = run_cli("plans", "compact", str(tmp_path / "nope"))
        assert code == 2

    def test_too_many_arguments_exits_2(self, journal, capsys):
        code, _ = run_cli("plans", str(journal), "extra")
        assert code == 2
        assert "usage" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401


class TestRowsJsonl:
    def test_rows_jsonl_matches_service_schema(self, tmp_path):
        import json

        from repro.service.protocol import row_from_wire
        from repro.evaluation.harness import run_suite

        out_path = tmp_path / "rows.jsonl"
        code, _ = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "2", "--rows-jsonl", str(out_path),
            "-o", str(tmp_path / "rows.csv"),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        rows = [row_from_wire(json.loads(line)) for line in lines]
        direct = run_suite(["merge_path"], scale="smoke", limit=2,
                           executor="serial")
        assert rows == direct
        # meta rides along even though equality ignores it
        assert all(json.loads(line)["meta"] for line in lines)

    def test_unwritable_rows_jsonl_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "rows.jsonl"
        code, _ = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "1", "--rows-jsonl", str(target),
        )
        assert code == 2
        assert "rows-jsonl" in capsys.readouterr().err

    def test_directory_rows_jsonl_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "1", "--rows-jsonl", str(tmp_path),
        )
        assert code == 2


class TestServeSubmitCommands:
    """serve/submit validation paths; the live round trip is covered by
    tests/test_service.py (including the SIGTERM subprocess test)."""

    def test_submit_unknown_kernel_exits_2(self, capsys):
        code, _ = run_cli("submit", "--kernels", "merge_psth")
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_submit_unknown_engine_exits_2(self, capsys):
        code, _ = run_cli("submit", "--kernels", "merge_path",
                          "--engine", "warp_drive")
        assert code == 2

    def test_submit_no_server_exits_1(self, capsys):
        # Nothing listens on this port: a connection failure is a
        # runtime failure (1), not a usage error.
        code, _ = run_cli("submit", "--port", "1", "--kernels", "merge_path")
        assert code == 1
        assert "submit failed" in capsys.readouterr().err

    def test_submit_queue_full_exits_3(self, capsys):
        import threading

        from repro.service import SweepService

        svc = SweepService(width=0, queue_depth=1)
        gate = threading.Event()
        orig = svc._execute_unit

        def gated(job, dataset):
            gate.wait(timeout=60)
            return orig(job, dataset)

        svc._execute_unit = gated
        svc.start_background()
        host, port = svc.wait_ready()
        try:
            from repro.service import SweepClient

            with SweepClient(host, port, timeout=60) as occupier:
                occupier.submit({"app": "spmv", "kernels": ["merge_path"],
                                 "scale": "smoke", "limit": 1})
                code, _ = run_cli(
                    "submit", "--host", host, "--port", str(port),
                    "--kernels", "merge_path", "--scale", "smoke",
                    "--limit", "1",
                )
        finally:
            gate.set()
            svc.request_drain()
            svc.join()
        assert code == 3
        assert "queue_full" in capsys.readouterr().err

    def test_serve_negative_width_exits_2(self, capsys):
        code, _ = run_cli("serve", "--width", "-2")
        assert code == 2
        assert "width" in capsys.readouterr().err

    def test_serve_transport_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("serve", "--port", "0", "--transport", "pickle")
        assert excinfo.value.code == 2  # argparse: unrecognized arguments

    def test_serve_bad_width_env_exits_2(self, capsys, monkeypatch):
        from repro.service.server import SERVE_WIDTH_ENV

        monkeypatch.setenv(SERVE_WIDTH_ENV, "lots")
        code, _ = run_cli("serve", "--port", "0")
        assert code == 2
