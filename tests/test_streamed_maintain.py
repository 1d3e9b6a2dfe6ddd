"""`quizbank maintain` edits a bank in the writer's layout as it reads it, one
question at a time. Whatever the bank and the edit, the command gives what
the library edit on the parsed bank gives: the same output bytes, standard
output and error, exit code, backup and files. A bank that leaves the layout
midway, a failing edit, a malformed tail and a directory that refuses the
temporary file are reported as ever."""

import contextlib
import errno
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import (
    QuestionBank,
    QuizbankError,
    ValidationError,
    parse_bank,
    replace_text,
    replace_text_pattern,
    serialize_bank,
    set_wrong_penalty,
)
from quizbank.cli import main

from test_reading import _built_bank

_STAMP = "20260101-000000"
_OLD = st.sampled_from(["a", "Z", "é", "中", "]]>", "&", "<", "q1", "Z a"])
_NEW = st.sampled_from(["", "b", "]]>", "&<>", "中", "a", "\x01", "\r"])
_PATTERN = st.sampled_from(["a+", "(é)", "中|Z", ".", "^q", r"\s", "(?s).+", "(", "]]>"])
_REPLACEMENT = st.sampled_from(["", "b", r"\1", r"[\g<0>]", "\x07"])
_FRACTION = st.sampled_from(["0", "-20", "-33.33333", "-50", "-100", "50", "nan", "-12.5"])
_OPERATION = st.one_of(
    st.tuples(_OLD, _NEW).map(lambda edit: ["replace-text", "--", *edit]),
    st.tuples(_PATTERN, _REPLACEMENT).map(lambda edit: ["replace-text", "--regex", "--", *edit]),
    _FRACTION.map(lambda fraction: ["set-penalty", "--", fraction]),
)


def _library(data, operation):
    """What maintain gave when it parsed the whole bank, edited it with the
    library and wrote it: (exit code, report line, error line, edited bytes,
    whether the failure came only while writing)."""
    try:
        bank = parse_bank(data)
        if operation[0] == "set-penalty":
            report = f"questions updated: {set_wrong_penalty(bank, float(operation[-1]))}\n"
        else:
            replace = replace_text_pattern if "--regex" in operation else replace_text
            report = f"replacements: {replace(bank, *operation[-2:])}\n"
    except ValidationError as exc:
        return 1, "", f"error: {exc}\n", None, False
    except QuizbankError as exc:
        return 2, "", f"error: {exc}\n", None, False
    try:
        return 0, report, "", serialize_bank(bank), False
    except QuizbankError as exc:
        return 2, "", f"error: {exc}\n", None, True


def _refuse_temporary_files(path, *args):
    """os.open as in a directory the user may read but not write."""
    if str(path).endswith(".tmp"):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    return _OS_OPEN(path, *args)


_OS_OPEN = os.open


def _command(data, operation, out, refuse=False):
    """Run maintain in a fresh directory: (exit code, stdout, stderr, bank
    bytes, --out bytes or None, the .bak's bytes or None, the file names).
    With ``refuse``, no temporary file can be made."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        bank = directory / "bank.xml"
        bank.write_bytes(data)
        argv = ["maintain", str(bank), operation[0]]
        argv += ["--out", str(directory / out)] if out else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch("time.strftime", lambda fmt: _STAMP), \
                mock.patch("os.open", _refuse_temporary_files if refuse else _OS_OPEN):
            code = main(argv + operation[1:])
        backup = directory / f"bank.xml.{_STAMP}.bak"
        written = directory / out if out else None
        return (
            code, stdout.getvalue(), stderr.getvalue().replace(str(directory), "DIR"),
            bank.read_bytes(), written.read_bytes() if written and written.exists() else None,
            backup.read_bytes() if backup.exists() else None,
            sorted(path.name for path in directory.iterdir()),
        )


def _expected(data, operation, out, refuse=False):
    """_command's result for today's rule, from _library: the bank is read
    and edited whole before anything is written."""
    code, report, error, edited, writing = _library(data, operation)
    files = ["bank.xml"]
    if refuse and (writing or not code and (out not in (None, "bank.xml") or edited != data)):
        refused = f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: 'DIR/{out or 'bank.xml'}'"
        code, error = 2, f"error: {refused}\n"
    if code:
        return code, "", error, data, data if out == "bank.xml" else None, None, files
    if out and out != "bank.xml":  # written elsewhere, changed or not
        return 0, report, "", data, edited, None, sorted(files + [out])
    if edited == data:  # in place, nothing changed: nothing written
        return 0, report, "", data, data if out else None, None, files
    backup = f"DIR/bank.xml.{_STAMP}.bak"
    return (0, report, f"backup: {backup}\n", edited, edited if out else None, data,
            sorted(files + [backup[4:]]))


class TestStreamedEqualsLibrary:
    @settings(max_examples=150, deadline=None)
    @given(bank=_built_bank(), operation=_OPERATION, out=st.sampled_from([None, "bank.xml", "e.xml"]))
    def test_every_edit(self, bank, operation, out):
        data = serialize_bank(bank)
        assert _command(data, operation, out) == _expected(data, operation, out)

    @settings(max_examples=60, deadline=None)
    @given(bank=_built_bank(), operation=_OPERATION, out=st.sampled_from([None, "bank.xml", "e.xml"]))
    def test_every_edit_where_no_temporary_file_can_be_made(self, bank, operation, out):
        data = serialize_bank(bank)
        assert _command(data, operation, out, True) == _expected(data, operation, out, True)


def _four_questions():
    bank = QuestionBank(None)
    bank.setCategory("Unit 1")
    bank.addMultipleChoice("animals", "Which animal?", ["cat", "cot", "dog"])
    bank.addShortAnswer("capital", "Capital of France?", "Paris")
    bank.setCategory("Unit 2")
    bank.addMatching("words", "Match", [("fox", "1"), ("fix", "2")])
    bank.addShortAnswer("greeting", "Say hello", "hello")
    return serialize_bank(bank)


def _after_third(data, insert):
    """data with ``insert`` after the end of its third question."""
    at = [m.end() for m in re.finditer(rb"  </question>\n", data)][2]
    return data[:at] + insert + data[at:]


# A comment leaves the writer's layout, and ElementTree reads the bank; a
# mismatched tag is malformed.
_FOREIGN_TAIL = b"  <!-- edited -->\n"
_MALFORMED_TAIL = b"  <question></quiz>\n"


@pytest.mark.parametrize("out", [None, "e.xml"])
@pytest.mark.parametrize(
    "tail, operation, code, message",
    [
        (_FOREIGN_TAIL, ["replace-text", "Paris", "Lyon"], 0, None),
        (_FOREIGN_TAIL, ["set-penalty", "-25"], 0, None),
        (_FOREIGN_TAIL, ["replace-text", "o", "a"], 1,
         "error: question 1 ('animals'): duplicated choice text 'cat'\n"),
        (_MALFORMED_TAIL, ["replace-text", "Paris", "Lyon"], 2,
         "error: malformed XML at line 40, column 14: mismatched tag\n"),
        (_MALFORMED_TAIL, ["replace-text", "o", "a"], 2,
         "error: malformed XML at line 40, column 14: mismatched tag\n"),
        (b"", ["replace-text", "Paris", "\x01"], 2,
         "error: question 'capital' contains control character '\\x01', "
         "which XML cannot encode\n"),
        (_FOREIGN_TAIL, ["replace-text", "Paris", "\x01"], 2,
         "error: question 'capital' contains control character '\\x01', "
         "which XML cannot encode\n"),
    ],
    ids=["foreign-tail", "foreign-tail-penalty", "failing-edit-then-foreign-tail", "malformed-tail",
         "failing-edit-then-malformed-tail", "edit-to-x01", "edit-to-x01-then-foreign-tail"],
)
def test_bank_leaving_the_layout_after_its_third_question(tail, operation, code, message, out):
    data = _after_third(_four_questions(), tail)
    result = _command(data, operation, out)
    assert result == _expected(data, operation, out)
    assert result[0] == code
    if message is not None:
        assert result[2] == message


@pytest.mark.parametrize("out", [None, "e.xml"])
@pytest.mark.parametrize(
    "tail, operation, code",
    [(b"", ["replace-text", "absent", "x"], 0), (b"", ["set-penalty", "-50"], 0),
     (b"", ["replace-text", "Paris", "Lyon"], 2), (_FOREIGN_TAIL, ["replace-text", "o", "a"], 1),
     (_MALFORMED_TAIL, ["replace-text", "Paris", "Lyon"], 2)],
    ids=["no-op", "penalty-no-op", "edit", "failing-edit-then-foreign-tail", "malformed-tail"],
)
def test_directory_that_refuses_the_temporary_file(tail, operation, code, out):
    """The bank is read and edited before the refusal is reported: an in-place
    edit that changes nothing succeeds, and a failing edit or a malformed
    tail is reported, not the directory."""
    data = _after_third(_four_questions(), tail)
    result = _command(data, operation, out, True)
    assert result == _expected(data, operation, out, True)
    assert result[0] == (2 if out and code == 0 else code)
