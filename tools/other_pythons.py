"""Run the repository's checks under other Python interpreters, offline.

Usage: python tools/other_pythons.py PY [PY ...]

For each interpreter PY (a path, or a name on PATH) this runs, from the
repository's root:

    PY -m pytest -q --continue-on-collection-errors    (tier-1)
    PY -m pytest benchmarks -q
    PY tools/memory_probe.py --mb 10

PY needs no packages of its own. The pure-Python test packages of the
interpreter that runs this tool (pytest, hypothesis and what they import)
are linked, each with its dist-info, into a temporary directory that goes
on PYTHONPATH after src; the dist-info carries the entry point of hypothesis's pytest
plugin. Bytecode goes to a temporary PYTHONPYCACHEPREFIX, so nothing is
written beside the linked packages. An interpreter that does not start
(such as a version manager's shim for a version not installed) is reported
as not run, and one that starts but cannot import pytest from them (one
that needs a backport the running interpreter does not have) by its version.

Prints one line per step and exits 1 if an interpreter was not run or a
step failed.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Top-level names of the test packages; each one's dist-info is linked too.
# pytest imports its own "py" shim module, which has no dist-info of its own.
PACKAGES = (
    "pytest", "_pytest", "py", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "_hypothesis_*", "attr", "attrs", "sortedcontainers", "typing_extensions",
)
STEPS = (
    ("tier-1", ["-m", "pytest", "-q", "--continue-on-collection-errors"]),
    ("benchmarks", ["-m", "pytest", "benchmarks", "-q"]),
    ("memory probe", ["tools/memory_probe.py", "--mb", "10"]),
)


def link_packages(target: Path) -> None:
    """Symlink the test packages of this interpreter, and their dist-info, into target."""
    site = Path(importlib.util.find_spec("pytest").origin).parent.parent
    for entry in site.iterdir():
        if entry.name.endswith(".dist-info"):
            name = entry.name.split("-")[0].lower()
        elif entry.is_dir() or entry.suffix == ".py":
            name = entry.name.removesuffix(".py")
        else:
            continue
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in PACKAGES):
            (target / entry.name).symlink_to(entry)


def last_line(output: str) -> str:
    lines = output.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run_checks(python: str, packages: Path, pycache: Path) -> bool:
    """Run every step under python; True when all of them pass."""
    env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}{packages}",
               PYTHONPYCACHEPREFIX=str(pycache))
    try:
        probe = subprocess.run(
            [python, "-c", "import sys; print(sys.version.split()[0]); import pytest"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    except OSError as exc:
        print(f"{python}: not run: {exc}")
        return False
    version = probe.stdout.strip()
    if not version:
        print(f"{python}: not run: cannot start: {last_line(probe.stderr)}")
        return False
    if probe.returncode:
        print(f"{python}: Python {version}: cannot import pytest: {last_line(probe.stderr)}")
        return False
    print(f"{python}: Python {version}")
    passed = True
    for label, arguments in STEPS:
        result = subprocess.run(
            [python, *arguments], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if result.returncode:
            passed = False
            print(result.stdout[-4000:], end="")
        status = "passed" if result.returncode == 0 else f"FAILED (exit {result.returncode})"
        print(f"  {label}: {status}: {last_line(result.stdout)}")
    return passed


def main(argv=None) -> int:
    pythons = sys.argv[1:] if argv is None else argv
    if not pythons or importlib.util.find_spec("pytest") is None:
        print("usage: python tools/other_pythons.py PY [PY ...], run by an interpreter "
              "that has pytest and hypothesis", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="quizbank-pythons-") as scratch:
        packages, pycache = Path(scratch, "packages"), Path(scratch, "pycache")
        packages.mkdir()
        link_packages(packages)
        results = [run_checks(python, packages, pycache) for python in pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
