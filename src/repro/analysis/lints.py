"""Repo lints: cheap static invariants the codebase promises to keep.

Each lint is a pure function from a repo root to findings, registered in
a table exactly like schedules and engines, so adding an invariant is a
registration -- ``repro analyze --lint`` and CI pick it up with no
plumbing.  The built-ins guard the contracts earlier PRs introduced:

``env-docs``
    Every ``REPRO_*`` environment variable read anywhere under ``src/``
    or ``benchmarks/`` must appear (backticked) in README's environment
    table, and every one README names must still be read there -- a
    row cannot outlive the code that read it.  Prefix globs
    (``REPRO_FAULTS_*`` spellings) are skipped on both sides.
``fault-sites``
    Every ``faults.inject("...")`` site string must be declared in
    :data:`repro.faults.KNOWN_SITES` and exercised by name in
    ``tests/test_faults.py`` -- an injection point nobody can schedule
    or test is dead armor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "LintFinding",
    "available_lints",
    "lint_descriptions",
    "repo_root",
    "run_lints",
]


@dataclass(frozen=True)
class LintFinding:
    """One violated invariant, pointing at the offending location."""

    lint: str
    path: str
    line: int
    message: str


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


_ENV_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def _python_files(root: Path, subdirs) -> list[Path]:
    files: list[Path] = []
    for sub in subdirs:
        base = root / sub
        if base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
    return files


def _env_vars(path: Path):
    """Yield ``(line_number, var)`` for every env var named in a file.

    Skips prefix globs: a match immediately followed by ``*`` (e.g. the
    ``REPRO_FAULTS_*`` family) or ending in ``_`` is a pattern over
    variables, not a variable.
    """
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in _ENV_VAR.finditer(line):
            var = match.group(0)
            end = match.end()
            if var.endswith("_"):
                continue
            if end < len(line) and line[end] == "*":
                continue
            yield lineno, var


def _first_mentions(paths) -> dict[str, tuple[Path, int]]:
    """``{var: (path, line)}`` of each variable's first mention."""
    first: dict[str, tuple[Path, int]] = {}
    for path in paths:
        for lineno, var in _env_vars(path):
            first.setdefault(var, (path, lineno))
    return first


def _lint_env_docs(root: Path) -> list[LintFinding]:
    readme = root / "README.md"
    documented = _first_mentions([readme] if readme.is_file() else [])
    read = _first_mentions(_python_files(root, ("src", "benchmarks")))
    findings = []
    for var, (path, lineno) in read.items():
        if var not in documented:
            findings.append(LintFinding(
                lint="env-docs",
                path=str(path.relative_to(root)),
                line=lineno,
                message=(
                    f"environment variable {var} is read here but missing "
                    "from README.md's environment table"
                ),
            ))
    for var, (path, lineno) in documented.items():
        if var not in read:
            findings.append(LintFinding(
                lint="env-docs",
                path=str(path.relative_to(root)),
                line=lineno,
                message=(
                    f"environment variable {var} is documented here but "
                    "nothing under src/ or benchmarks/ reads it"
                ),
            ))
    return findings


_INJECT_CALL = re.compile(
    r"""\binject\(\s*["']([a-z0-9_]+(?:\.[a-z0-9_]+)+)["']"""
)


def _lint_fault_sites(root: Path) -> list[LintFinding]:
    from ..faults import KNOWN_SITES

    findings = []
    test_file = root / "tests" / "test_faults.py"
    test_text = test_file.read_text() if test_file.is_file() else ""
    exercised: set[str] = set()
    for path in _python_files(root, ("src",)):
        if path.name == "faults.py":
            continue
        text = path.read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in _INJECT_CALL.finditer(line):
                site = match.group(1)
                rel = str(path.relative_to(root))
                if site not in KNOWN_SITES:
                    findings.append(
                        LintFinding(
                            lint="fault-sites",
                            path=rel,
                            line=lineno,
                            message=(
                                f"fault site {site!r} is injected here but "
                                "not declared in repro.faults.KNOWN_SITES"
                            ),
                        )
                    )
                elif site not in test_text:
                    if site not in exercised:
                        exercised.add(site)
                        findings.append(
                            LintFinding(
                                lint="fault-sites",
                                path=rel,
                                line=lineno,
                                message=(
                                    f"fault site {site!r} is never exercised "
                                    "in tests/test_faults.py"
                                ),
                            )
                        )
    return findings


LINTS = {
    "env-docs": (
        "REPRO_* variables read in src/ or benchmarks/ and those documented "
        "in README.md are the same set",
        _lint_env_docs,
    ),
    "fault-sites": (
        "every faults.inject() site is declared in KNOWN_SITES and "
        "exercised in tests/test_faults.py",
        _lint_fault_sites,
    ),
}


def available_lints() -> tuple[str, ...]:
    """Names of every registered lint."""
    return tuple(sorted(LINTS))


def lint_descriptions() -> dict[str, str]:
    """``{name: one-line description}`` for CLI listings."""
    return {name: LINTS[name][0] for name in available_lints()}


def run_lints(names=None, root: Path | str | None = None) -> list[LintFinding]:
    """Run the named lints (all by default) against a repo root.

    Findings come back sorted by (lint, path, line); an empty list means
    the invariants hold.  Unknown names raise ``KeyError`` with the
    available set, mirroring the schedule/engine registries.
    """
    root = Path(root) if root is not None else repo_root()
    selected = list(names) if names else list(available_lints())
    for name in selected:
        if name not in LINTS:
            raise KeyError(
                f"unknown lint {name!r}; available: {available_lints()}"
            )
    findings: list[LintFinding] = []
    for name in selected:
        findings.extend(LINTS[name][1](root))
    findings.sort(key=lambda f: (f.lint, f.path, f.line))
    return findings
