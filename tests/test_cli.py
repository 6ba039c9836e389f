"""Tests for the artifact-style CLI (``python -m repro``)."""

import csv
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import build_parser, main

CHESAPEAKE = Path(__file__).resolve().parent.parent / "datasets" / "chesapeake.mtx"

_SWEEP = ("sweep", "--kernels", "merge_path", "--scale", "smoke", "--limit", "1")


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

    @pytest.mark.parametrize("argv", [
        [*_SWEEP, "--executor", "process"],
        [*_SWEEP, "--keep-pool"],
        [*_SWEEP, "--transport", "shm"],
        [*_SWEEP, "--plan-cache-dir", "plans"],
        [*_SWEEP, "--plan-store", "plans.journal"],
        ["serve", "--plan-store", "plans.journal"],
        ["plans", "plans.journal"],
    ], ids=["executor", "keep-pool", "transport", "plan-cache-dir",
            "plan-store", "serve-plan-store", "plans-command"])
    def test_removed_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2  # argparse: unrecognized arguments

    def test_negative_workers_exit_2(self, capsys):
        code, _ = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "1", "--workers", "-1",
        )
        assert code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_zero_limit_sweeps_nothing(self):
        code, out = run_cli("sweep", "--app", "spmv", "--scale", "smoke",
                            "--limit", "0")
        assert code == 0
        assert out.strip().splitlines() == [
            "kernel,dataset,rows,cols,nnzs,elapsed"
        ]

    @pytest.mark.parametrize("command", ["sweep", "submit"])
    def test_negative_limit_exit_2(self, command, capsys):
        code, _ = run_cli(command, "--kernels", "merge_path", "--scale",
                          "smoke", "--limit", "-3")
        assert code == 2
        assert "--limit must be >= 0" in capsys.readouterr().err

    def test_workers_sweep_owns_its_pool(self, tmp_path):
        """``--workers 2`` runs on a pool built for the sweep and shut
        down after it: no live executor and no new /dev/shm entry
        remain, and its CSV equals the ``--workers 0`` sweep's."""
        import json
        import os

        from repro.engine import worker_pool

        def shm():
            try:
                return set(os.listdir("/dev/shm"))
            except OSError:  # pragma: no cover - non-Linux
                return set()

        args = ("sweep", "--kernels", "merge_path", "--scale", "smoke",
                "--limit", "3")
        jsonl = tmp_path / "rows.jsonl"
        before = shm()
        code, pooled = run_cli(*args, "--workers", "2",
                               "--rows-jsonl", str(jsonl))
        assert code == 0
        assert not worker_pool._LIVE
        assert shm() - before == set()
        pids = {json.loads(line)["meta"]["placement"]["pid"]
                for line in jsonl.read_text().splitlines()}
        assert os.getpid() not in pids  # the rows ran in pool workers
        code, serial = run_cli(*args, "--workers", "0")
        assert code == 0
        assert not worker_pool._LIVE
        assert pooled == serial
        assert len(list(csv.DictReader(io.StringIO(pooled)))) == 3

    def test_parallel_workers(self):
        code, out = run_cli(
            "sweep", "--app", "histogram", "--kernels", "merge_path",
            "--scale", "smoke", "--limit", "3", "--workers", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {r["app"] for r in rows} == {"histogram"}

    def test_zero_workers_sweeps_without_a_pool(self, monkeypatch):
        from repro.engine import worker_pool

        def no_pool(*args, **kwargs):
            raise AssertionError("--workers 0 built a SweepExecutor")

        monkeypatch.setattr(worker_pool, "SweepExecutor", no_pool)
        code, out = run_cli(
            "sweep", "--kernels", "merge_path", "--scale", "smoke",
            "--limit", "2", "--workers", "0",
        )
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 2
        assert not worker_pool._LIVE  # serial: no pool was spawned


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

            with SweepClient(host, port, idle_timeout=60) as occupier:
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
