"""Repo lints and the ``repro analyze`` CLI.

Two directions: the real repository must pass every lint (the merge
gate CI enforces), and a deliberately broken fixture tree must fail --
a lint that cannot fail is not guarding anything.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.analysis import available_lints, lint_descriptions, run_lints
from repro.cli import main


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_fixture_tree(root, *, undocumented_env=True, rogue_site=True,
                       stale_doc=True):
    """A minimal repo tree violating the lints on demand."""
    src = root / "src" / "pkg"
    src.mkdir(parents=True)
    env_line = (
        'timeout = os.environ.get("REPRO_FIXTURE_TIMEOUT", "1")\n'
        if undocumented_env
        else 'limit = os.environ.get("REPRO_FIXTURE_LIMIT", "1")\n'
    )
    site_line = (
        'inject("fixture.bogus_site")\n' if rogue_site else ""
    )
    (src / "mod.py").write_text(
        "import os\n"
        "from repro.faults import inject\n" + env_line + site_line
    )
    readme = "# fixture\n\n| Variable | Effect |\n| --- | --- |\n"
    if not undocumented_env:
        readme += "| `REPRO_FIXTURE_LIMIT` | documented. |\n"
    if stale_doc:
        readme += "| `REPRO_FIXTURE_RETIRED` | no code reads this. |\n"
    (root / "README.md").write_text(readme)
    (root / "tests").mkdir()
    (root / "tests" / "test_faults.py").write_text("# no sites exercised\n")
    return root


class TestLintRegistry:
    def test_available_lints(self):
        assert available_lints() == ("env-docs", "fault-sites")

    def test_descriptions_cover_every_lint(self):
        descriptions = lint_descriptions()
        assert set(descriptions) == set(available_lints())
        assert all(descriptions.values())

    def test_unknown_lint_raises(self):
        with pytest.raises(KeyError, match="env-docs"):
            run_lints(["no-such-lint"])


class TestRepoIsClean:
    def test_all_lints_pass_on_this_repository(self):
        findings = run_lints()
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.lint}] {f.message}" for f in findings
        )

    def test_results_are_deterministic(self):
        first = run_lints()
        second = run_lints()
        assert first == second


class TestFixtureTreeFails:
    def test_undocumented_env_var_is_flagged(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=True,
                                  rogue_site=False, stale_doc=False)
        findings = run_lints(["env-docs"], root=root)
        assert len(findings) == 1
        assert findings[0].lint == "env-docs"
        assert "REPRO_FIXTURE_TIMEOUT" in findings[0].message

    def test_documented_env_var_passes(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=False, stale_doc=False)
        assert run_lints(["env-docs"], root=root) == []

    def test_documented_but_unread_env_var_is_flagged(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=False, stale_doc=True)
        findings = run_lints(["env-docs"], root=root)
        assert len(findings) == 1
        assert findings[0].path == "README.md"
        assert findings[0].line == 6  # the stale table row
        assert "REPRO_FIXTURE_RETIRED" in findings[0].message
        assert "nothing under src/ or benchmarks/ reads it" in findings[0].message

    def test_env_var_read_only_by_benchmarks_counts_as_read(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=False, stale_doc=True)
        (root / "benchmarks").mkdir()
        (root / "benchmarks" / "bench.py").write_text(
            'import os\nos.environ.get("REPRO_FIXTURE_RETIRED")\n'
        )
        assert run_lints(["env-docs"], root=root) == []

    def test_env_var_read_only_by_tests_is_flagged(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=False, stale_doc=True)
        (root / "tests" / "test_env.py").write_text(
            'import os\nos.environ.get("REPRO_FIXTURE_RETIRED")\n'
        )
        findings = run_lints(["env-docs"], root=root)
        assert [f.path for f in findings] == ["README.md"]
        assert "REPRO_FIXTURE_RETIRED" in findings[0].message

    def test_unregistered_fault_site_is_flagged(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=True)
        findings = run_lints(["fault-sites"], root=root)
        assert len(findings) == 1
        assert "fixture.bogus_site" in findings[0].message
        assert "KNOWN_SITES" in findings[0].message

    def test_known_but_unexercised_site_is_flagged(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=False)
        (root / "src" / "pkg" / "used.py").write_text(
            'from repro.faults import inject\ninject("worker.batch")\n'
        )
        findings = run_lints(["fault-sites"], root=root)
        assert len(findings) == 1
        assert "never exercised" in findings[0].message

    def test_env_prefix_globs_are_skipped(self, tmp_path):
        root = write_fixture_tree(tmp_path, undocumented_env=False,
                                  rogue_site=False, stale_doc=False)
        (root / "src" / "pkg" / "globby.py").write_text(
            '# resets every REPRO_PROBLEM_CACHE_* override\n'
            'PREFIX = "REPRO_FIXTURE_"\n'
        )
        assert run_lints(["env-docs"], root=root) == []


class TestAnalyzeCli:
    def test_analyze_prints_matrix_and_exits_zero(self):
        code, out, _err = run_cli("analyze")
        assert code == 0
        assert "spmv/spmv" in out
        assert "SAFE" in out and "REDUCE" in out and "SCATTER" in out
        assert "pagerank/spmv" in out  # pagerank lists spmv's kernel

    def test_strict_lint_passes_on_this_repository(self):
        code, out, _err = run_cli("analyze", "--lint", "--strict")
        assert code == 0
        assert "0 finding(s)" in out

    def test_strict_fails_on_broken_fixture(self, tmp_path):
        root = write_fixture_tree(tmp_path)
        code, _out, err = run_cli(
            "analyze", "--lint", "env-docs", "fault-sites", "--strict",
            "--root", str(root),
        )
        assert code == 1
        assert "REPRO_FIXTURE_TIMEOUT" in err
        assert "REPRO_FIXTURE_RETIRED" in err
        assert "fixture.bogus_site" in err

    def test_probe_validates_safe_cells(self):
        code, out, _err = run_cli(
            "analyze", "--apps", "spmv", "--schedules", "thread_mapped",
            "dynamic_queue", "--probe", "--strict",
        )
        assert code == 0
        assert "2 SAFE, 0 violation(s)" in out

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["analyze", "--apps", "spvm"], "did you mean 'spmv'"),
            (["analyze", "--schedules", "merge_pth"], "did you mean"),
            (["analyze", "--lint", "env-doc"], "did you mean 'env-docs'"),
        ],
    )
    def test_unknown_names_exit_two_with_suggestion(self, argv, fragment):
        code, _out, err = run_cli(*argv)
        assert code == 2
        assert fragment in err

    def test_json_report_schema(self, tmp_path):
        report_path = tmp_path / "report.json"
        code, _out, _err = run_cli(
            "analyze", "--apps", "spmv", "--schedules", "thread_mapped",
            "--probe", "--lint", "--json", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"verdicts", "lints", "probe", "violations"}
        assert report["lints"] == []
        assert report["violations"] == []
        row = report["verdicts"]["rows"][0]
        assert row["app"] == "spmv"
        assert row["verdicts"]["thread_mapped"] == "SAFE"
        (entry,) = report["probe"]
        assert entry["overlaps"] == 0 and entry["verdict"] == "SAFE"
