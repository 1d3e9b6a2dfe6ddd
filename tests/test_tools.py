"""tools/other_pythons.py: how it reports an interpreter that cannot run the checks."""

import runpy
import shlex
import sys
from pathlib import Path

import pytest

OTHER_PYTHONS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "other_pythons.py"))

# Stand-ins for an interpreter: a version manager's shim for a version that is
# not installed, and this interpreter started without site-packages.
_STAND_INS = {
    "cannot-start": (
        "echo 'The python3.99 command exists in these Python versions.' >&2\nexit 127",
        "not run: cannot start: The python3.99 command exists in these Python versions.",
    ),
    "no-pytest": (
        f'exec {shlex.quote(sys.executable)} -I -S "$@"',
        f"Python {sys.version.split()[0]}: cannot import pytest: "
        "ModuleNotFoundError: No module named 'pytest'",
    ),
}


@pytest.mark.parametrize("stand_in", sorted(_STAND_INS))
def test_interpreter_that_cannot_run_the_checks(tmp_path, capsys, stand_in):
    body, report = _STAND_INS[stand_in]
    python, calls = tmp_path / "python", tmp_path / "calls"
    python.write_text(f'#!/bin/sh\necho "$1" >> {shlex.quote(str(calls))}\n{body}\n')
    python.chmod(0o755)
    assert OTHER_PYTHONS["main"]([str(python)]) == 1
    assert capsys.readouterr().out == f"{python}: {report}\n"
    assert calls.read_text() == "-c\n"  # the probe, and no step after it
