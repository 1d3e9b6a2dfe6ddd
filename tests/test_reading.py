"""Reading a bank file: the CLI maps it read-only and the parse decodes the
mapping a window at a time; a plain read stands in where the file cannot be
mapped. Every reader and every window size gives the same bank, and every
failure the same message."""

import os
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quizbank import BankParseError, QuestionBank, ValidationError, parse_bank, serialize_bank
from quizbank import cli, moodle_xml
from quizbank.model import question_texts

from test_cli import _SUBPROCESS_ENV

# Pieces that exercise each escape: plain ASCII, two- and three-byte UTF-8,
# the CDATA terminator and the entity-escaped characters.
_PIECES = st.sampled_from(["a", "Z ", "é", "中", "]]>", "&<>"])
_TEXT = st.lists(_PIECES, min_size=1, max_size=6).map("".join)
_CATEGORIES = st.sampled_from(["", "$system$/top/Shared", "A/中", "é & <b>"])


@st.composite
def _built_bank(draw):
    """A bank made with the builders, in categories including the default one."""
    bank = QuestionBank(None)
    for number in range(draw(st.integers(0, 5))):
        bank.setCategory(draw(_CATEGORIES))
        name, stem = f"q{number} " + draw(_TEXT), draw(_TEXT)
        kind = draw(st.sampled_from(["short", "numerical", "choice", "matching"]))
        try:
            if kind == "short":
                bank.addShortAnswer(name, stem, draw(st.lists(_TEXT, min_size=1, max_size=3)))
            elif kind == "numerical":
                bank.addNumerical(name, stem, [1.5, -2], draw(st.sampled_from([0, 0.25])))
            elif kind == "choice":
                bank.addMultipleChoice(name, stem, draw(st.lists(_TEXT, min_size=2, max_size=4)))
            else:
                prompts = draw(st.lists(_TEXT, min_size=2, max_size=3))
                bank.addMatching(name, stem, [(p, draw(_TEXT)) for p in prompts])
        except ValidationError:  # repeated texts: the builders refuse them
            pass
    return bank


# Foreign variants of the writer's output: a comment before <quiz> fails the
# layout check, one after the last question fails the direct reader at the end.
_VARIANTS = {
    "own": lambda data: data,
    "comment-before-quiz": lambda data: data.replace(b"<quiz>", b"<!-- edited --><quiz>", 1),
    "comment-after-last": lambda data: data.replace(b"</quiz>", b"<!-- edited --></quiz>", 1),
}


# Texts a generated bank repeats across its questions, each escape among them.
_POOL = st.sampled_from(["twin", "Paris & <b>Lyon</b>", "x]]>y", "中文 é", "two  words"])


@st.composite
def _pooled_bank(draw):
    """A bank whose names and answer texts are drawn from _POOL."""
    bank = QuestionBank(None)
    for number in range(draw(st.integers(2, 6))):
        name, stem, texts = draw(_POOL), f"stem {number}", draw(st.lists(_POOL, min_size=2, max_size=4))
        kind = draw(st.sampled_from(["short", "choice", "matching"]))
        try:
            if kind == "short":
                bank.addShortAnswer(name, stem, texts)
            elif kind == "choice":
                bank.addMultipleChoice(name, stem, texts)
            else:
                bank.addMatching(name, stem, [(text, draw(_POOL)) for text in texts])
        except ValidationError:  # repeated texts: the builders refuse them
            pass
    return bank


class TestEveryReaderGivesTheSameBank:
    @pytest.mark.parametrize("variant", _VARIANTS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bank=_built_bank())
    def test_load_bank_bytes_and_text(self, tmp_path, capsys, variant, bank):
        written = serialize_bank(bank)
        path = tmp_path / "bank.xml"
        path.write_bytes(_VARIANTS[variant](written))
        data = path.read_bytes()
        banks = [cli._load_bank(path), parse_bank(data), parse_bank(data.decode("utf-8"))]
        capsys.readouterr()
        for read in banks:
            assert read.questions == bank.questions
            assert (read.category, read.warnings) == (banks[0].category, banks[0].warnings)
            assert serialize_bank(read) == written

    @pytest.mark.parametrize("variant", _VARIANTS)
    @settings(max_examples=40, deadline=None)
    @given(bank=_pooled_bank())
    def test_equal_names_and_answers_are_one_str(self, variant, bank):
        written = serialize_bank(bank)
        data = _VARIANTS[variant](written)
        for read in (parse_bank(data), parse_bank(data.decode("utf-8"))):
            assert read.questions == bank.questions
            assert serialize_bank(read) == written
            first = {}
            for question in read.questions:
                name, _, *answers = question_texts(question)  # stems are not shared
                for text in (name, *answers):
                    assert first.setdefault(text, text) is text, text


_OWN = (
    b'<?xml version="1.0" encoding="UTF-8"?>\n<quiz>\n'
    b'  <question type="shortanswer">\n    <name>\n      <text>q</text>\n    </name>\n'
    b'    <questiontext format="html">\n      <text><![CDATA[Stem?]]></text>\n'
    b"    </questiontext>\n    <usecase>0</usecase>\n"
    b'    <answer fraction="100">\n      <text>x</text>\n    </answer>\n'
    b"  </question>\n</quiz>\n"
)
_STATS = "questions: 1\n  shortanswer: 1\ncategories:\n  (default): 1\n"

# Each file that cannot be mapped, or is not UTF-8, or cannot be opened, and
# the exit code and standard error that stats gave before bank files were mapped.
_NO_ELEMENT = "error: malformed XML at line 1, column 0: no element found\n"
_FALLBACKS = {
    "empty": (lambda d: _written(d / "empty.xml", b""), 2, _NO_ELEMENT),
    "dev-null": (lambda d: Path(os.devnull), 2, _NO_ELEMENT),
    "fifo": (lambda d: _fed_fifo(d / "fifo"), 0, ""),
    "invalid-utf8": (
        lambda d: _written(d / "bad.xml", _OWN.replace(b"<quiz>", b"<quiz>\xff")),
        2, "error: malformed XML at line 2, column 6: not well-formed (invalid token)\n",
    ),
    "uf-8": (
        lambda d: _written(d / "uf8.xml", _OWN.replace(b"UTF-8", b"UF-8")),
        2, "error: unsupported encoding: unknown encoding: UF-8\n",
    ),
    "directory": (lambda d: d, 2, "error: [Errno 21] Is a directory: '{path}'\n"),
    "missing": (
        lambda d: d / "missing.xml", 2, "error: [Errno 2] No such file or directory: '{path}'\n"
    ),
}


def _written(path, data):
    path.write_bytes(data)
    return path


def _fed_fifo(path):
    """A FIFO that a thread fills with a one-question bank once a reader opens it."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as pipe:
            pipe.write(_OWN)

    threading.Thread(target=feed, daemon=True).start()
    return path


@pytest.mark.parametrize("case", _FALLBACKS)
class TestFallbacks:
    def test_main(self, tmp_path, capsys, case):
        make, code, error = _FALLBACKS[case]
        path = make(tmp_path)
        assert cli.main(["stats", str(path)]) == code
        out, err = capsys.readouterr()
        assert err == error.format(path=path)
        assert out.startswith(_STATS) if code == 0 else out == ""

    def test_subprocess(self, tmp_path, case):
        make, code, error = _FALLBACKS[case]
        path = make(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "quizbank.cli", "stats", str(path)],
            env=_SUBPROCESS_ENV, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (code, error.format(path=path))
        assert done.stdout.startswith(_STATS) if code == 0 else done.stdout == ""


class TestTextArguments:
    @pytest.mark.parametrize("text, message", [
        (_OWN.decode().replace("Stem?", "Stem\udcff"),
         "malformed XML at line 8, column 25: not well-formed (invalid token)"),
        (_OWN.decode().replace("UTF-8", "UF-8"), "unsupported encoding: unknown encoding: UF-8"),
    ], ids=["lone-surrogate", "foreign-encoding"])
    def test_parse_bank_of_a_str_fails_as_before(self, text, message):
        with pytest.raises(BankParseError) as caught:
            parse_bank(text)
        assert str(caught.value) == message

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_the_parse_reads_the_mapping_and_main_unmaps_it(self, tmp_path, monkeypatch, capsys):
        path = _written(tmp_path / "bank.xml", _OWN)
        seen = []

        def parse(data):
            seen.append((type(data).__name__, len(data), _mapped(path)))
            return parse_bank(data)

        monkeypatch.setattr(cli, "parse_bank", parse)
        assert cli.main(["stats", str(path)]) == 0
        assert capsys.readouterr().out.startswith(_STATS)
        assert seen == [("mmap", len(_OWN), True)]
        assert not _mapped(path)


def _mapped(path):
    return os.path.realpath(path) in Path("/proc/self/maps").read_text()


def _windows_read(data, size):
    """The byte range of each window of data when the direct reader reads it in
    windows of ``size`` bytes, and the bank it reads (ElementTree refused)."""
    windows, start, decode = [], 0, moodle_xml.codecs.utf_8_decode

    def recorded(window, errors, final):
        nonlocal start
        text, used = decode(window, errors, final)
        windows.append((start, start + len(window)))
        start += used
        return text, used

    with mock.patch.object(moodle_xml, "_WINDOW", size), \
            mock.patch.object(moodle_xml.codecs, "utf_8_decode", recorded), \
            mock.patch.object(ET, "XMLParser", side_effect=AssertionError("ElementTree ran")):
        bank = parse_bank(data)
    return windows, bank


class TestWindows:
    """The direct reader gives the same bank whatever the window size, with
    each kind of cut: inside a character, a writer-split CDATA end or a block
    end, or in a stem that runs on past its window."""

    @settings(max_examples=60, deadline=None)
    @given(bank=_built_bank(), size=st.integers(7, 64))
    def test_every_window_size_reads_the_same_bank(self, bank, size):
        data = serialize_bank(bank)
        whole = parse_bank(data.decode("utf-8"))
        for form in (memoryview(data), data):  # a memoryview is cut anywhere, bytes after a block end
            _, read = _windows_read(form, size)
            assert (read.questions, read.category) == (whole.questions, whole.category)
            assert read.questions == bank.questions and serialize_bank(read) == data

    def test_cuts_fall_inside_each_construct(self):
        bank = QuestionBank(None)
        bank.setCategory("A/中")
        bank.addMultipleChoice("q", "中中中 a]]>b " * 3, ["é]]>x", "中"])
        bank.addShortAnswer("r", "S" * 300, ["中"])
        data = serialize_bank(bank)
        spans = {  # byte ranges a window's end can fall strictly inside
            "character": [(i, i + 3) for i in range(len(data)) if data.startswith("中".encode(), i)],
            "split CDATA end": [(i, i + 15) for i in range(len(data))
                                if data.startswith(b"]]]]><![CDATA[>", i)],
            "block end": [(i, i + 14) for i in range(len(data)) if data.startswith(b"  </question>\n", i)],
        }
        cut = dict.fromkeys([*spans, "after a block end, short of the size"], False)
        for size in [*range(7, 65), *range(224, 513, 8)]:  # from 224 bytes, bytes are cut short
            for form in (memoryview(data), data):
                windows, read = _windows_read(form, size)
                assert read.questions == bank.questions and read.category == "A/中"
                for name, ranges in spans.items():
                    cut[name] |= any(a < end < b for _, end in windows for a, b in ranges)
                cut["after a block end, short of the size"] |= any(
                    end - start < size and data[:end].endswith(b"  </question>\n")
                    for start, end in windows[:-1]
                )
        assert all(cut.values()), cut

    def test_a_block_end_in_a_stem_that_ends_a_window_falls_back(self):
        bank = QuestionBank(None)
        bank.addShortAnswer("q", "before\n  </question>\nafter", ["x"])
        bank.addShortAnswer("r", "next", ["y"])
        data = serialize_bank(bank)
        _, direct = _windows_read(data, 1 << 18)  # one window: its last block end is the bank's
        assert direct.questions == bank.questions
        size = data.index(b"  </question>\nafter") + len("  </question>\n")
        with mock.patch.object(moodle_xml, "_WINDOW", size), \
                mock.patch.object(ET, "XMLParser", wraps=ET.XMLParser) as parser:
            read = parse_bank(memoryview(data))
        assert parser.called
        assert read.questions == bank.questions
