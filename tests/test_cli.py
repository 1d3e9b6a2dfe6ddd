"""Command-line behavior: exit codes, atomicity, backups, reports."""

import contextlib
import errno
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quizbank
from quizbank import parse_bank, serialize_bank
from quizbank.cli import main

from conftest import PNG_1PX, build_rich_bank
from test_moodle_xml import _EDITS, _UNREADABLE_ENCODINGS, _question, _writer_output
from quizbank import Question, QuestionBank, QuestionKind, ShortAnswerSet

# Child interpreters import this checkout's quizbank.
_SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(quizbank.__file__).resolve().parents[1])}

BUILD_SCRIPT = """\
from quizbank import QuestionBank

Q = QuestionBank("fallback.xml")
Q.setCategory("Demo")
Q.addMultipleChoiceFromLists(
    "demo", "Pick the even number:", [2, 4, 6], [1, 3, 5, 7, 9], 6
)
Q.addShortAnswer("", "Say hi", "hi")
Q.close()
"""


@pytest.fixture
def build_script(tmp_path):
    script = tmp_path / "build_demo.py"
    script.write_text(BUILD_SCRIPT, encoding="utf-8")
    return script


@pytest.fixture
def bank_file(tmp_path, make_bank):
    bank = build_rich_bank(make_bank(seed=7, name="fixture.xml"))
    path = tmp_path / "fixture.xml"
    path.write_bytes(serialize_bank(bank))
    return path


class TestBuild:
    def test_build_writes_deterministic_bank(self, build_script, tmp_path):
        out_a = tmp_path / "a.xml"
        out_b = tmp_path / "b.xml"
        assert main(["build", str(build_script), "--seed", "42", "--out", str(out_a)]) == 0
        assert main(["build", str(build_script), "--seed", "42", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(parse_bank(out_a.read_bytes()).questions) == 7

    def test_seed_env_variable_is_default(self, build_script, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUIZBANK_SEED", "42")
        out_env = tmp_path / "env.xml"
        out_flag = tmp_path / "flag.xml"
        assert main(["build", str(build_script), "--out", str(out_env)]) == 0
        assert main(["build", str(build_script), "--seed", "42", "--out", str(out_flag)]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()
        monkeypatch.setenv("QUIZBANK_SEED", "4.2")
        assert main(["build", str(build_script), "--out", str(tmp_path / "bad.xml")]) == 1
        err = capsys.readouterr().err
        assert err == "error: $QUIZBANK_SEED must be an integer, got '4.2'\n"
        assert not (tmp_path / "bad.xml").exists()

    def test_unwritable_out_leaves_no_partial_file(self, build_script, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "out.xml"
        code = main(["build", str(build_script), "--out", str(target)])
        assert code == 2
        assert not target.exists()
        capsys.readouterr()

    def test_script_exception_exits_2_with_traceback(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text("raise RuntimeError('boom')\n", encoding="utf-8")
        assert main(["build", str(script)]) == 2
        assert "boom" in capsys.readouterr().err
        script.write_text("import sys\nsys.exit(3)\n", encoding="utf-8")
        assert main(["build", str(script)]) == 2
        assert capsys.readouterr().err == "error: script exited with status 3\n"

    def test_missing_script_is_usage_error(self, tmp_path):
        assert main(["build", str(tmp_path / "absent.py")]) == 1

    def test_overrides_cleared_after_build(self, build_script, tmp_path):
        # A bank created after the build keeps its own path and seed.
        main(["build", str(build_script), "--seed", "1", "--out", str(tmp_path / "x.xml")])
        later = QuestionBank(tmp_path / "later.xml", seed=7)
        assert later.output_path == tmp_path / "later.xml"
        assert later.rng.getstate() == random.Random(7).getstate()

    def test_closed_banks_add_no_stderr(self, build_script, tmp_path, capsys):
        assert main(["build", str(build_script), "--out", str(tmp_path / "x.xml")]) == 0
        assert capsys.readouterr().err == ""

    CLOSED = "A = QuestionBank('a.xml')\nA.addShortAnswer('', 'Say hi', 'hi')\nA.close()\n"

    @pytest.mark.parametrize("before, files", [("", []), (CLOSED, ["a.xml"])])
    def test_unclosed_bank_warns_once(self, tmp_path, capsys, monkeypatch, before, files):
        monkeypatch.chdir(tmp_path)
        script = "from quizbank import QuestionBank\n" + before
        script += "B = QuestionBank('never.xml')\nB.addShortAnswer('', 'Say hi', 'hi')\n"
        (tmp_path / "script.py").write_text(script, encoding="utf-8")
        assert main(["build", "script.py"]) == 0
        err = capsys.readouterr().err
        assert err == "WARN: bank never.xml was never closed; nothing was written\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == files + ["script.py"]


class TestStats:
    def test_counts_per_kind_and_category(self, bank_file, capsys):
        assert main(["stats", str(bank_file)]) == 0
        out = capsys.readouterr().out
        assert "questions: 5" in out
        assert "multichoice: 2" in out
        assert "numerical: 1" in out
        assert "shortanswer: 1" in out
        assert "matching: 1" in out
        assert "Algebra/Quadratics: 2" in out
        assert f"embedded media bytes: {len(PNG_1PX)}" in out

    def test_empty_bank_reports_zero(self, tmp_path, make_bank, capsys):
        path = tmp_path / "empty.xml"
        path.write_bytes(serialize_bank(make_bank()))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "questions: 0" in out

    def test_oversized_media_triggers_warning(self, tmp_path, capsys):
        bank = QuestionBank(tmp_path / "big.xml")
        big = os.urandom(64)
        from quizbank import MediaAsset, embed_image

        fragment = embed_image(MediaAsset(big, "image/png"))
        bank.addShortAnswer("huge", f"look {fragment}", ["x"])
        path = tmp_path / "big.xml"
        path.write_bytes(serialize_bank(bank))
        # 64 bytes with a 0 MB threshold plays the role of 12 MB against 10 MB.
        assert main(["stats", str(path), "--media-warn-mb", "0"]) == 0
        err = capsys.readouterr().err
        assert "WARN:" in err and "huge" in err

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<quiz><question")
        assert main(["stats", str(bad)]) == 2
        capsys.readouterr()


class TestPreviewCommand:
    def test_explicit_out(self, bank_file, tmp_path, capsys):
        out = tmp_path / "preview.html"
        assert main(["preview", str(bank_file), "--out", str(out)]) == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_default_out_is_printed_temp_path(self, bank_file, capsys):
        assert main(["preview", str(bank_file)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith(".html")
        assert os.path.exists(printed)
        os.unlink(printed)

    def test_category_headings_present(self, bank_file, tmp_path):
        out = tmp_path / "p.html"
        main(["preview", str(bank_file), "--out", str(out)])
        assert "Algebra / Quadratics" in out.read_text(encoding="utf-8")


class TestMaintain:
    def test_replace_text_in_place_with_backup(self, bank_file, capsys, monkeypatch):
        before = bank_file.read_bytes()
        code = main(["maintain", str(bank_file), "replace-text", "Flux", "Radiant flux"])
        assert code == 0
        captured = capsys.readouterr()
        assert "replacements: 1" in captured.out
        backups = list(bank_file.parent.glob("fixture.xml.*.bak"))
        assert len(backups) == 1
        assert backups[0].read_bytes() == before
        edited = parse_bank(bank_file.read_bytes())
        assert any(
            pair[0] == "Radiant flux"
            for q in edited.questions
            if q.name == "units"
            for pair in q.payload.pairs
        )
        monkeypatch.setattr("time.strftime", lambda fmt: "20260101-000000")  # one second
        for penalty in ("-20", "-30"):  # two edits that each change a fraction
            assert main(["maintain", str(bank_file), "set-penalty", penalty]) == 0
        stamped = sorted(path.name for path in bank_file.parent.glob("*20260101-000000*"))
        assert stamped == ["fixture.xml.20260101-000000-1.bak", "fixture.xml.20260101-000000.bak"]

    def test_replace_text_to_out_keeps_original(self, bank_file, tmp_path, capsys):
        before = bank_file.read_bytes()
        out = tmp_path / "edited.xml"
        main(["maintain", str(bank_file), "replace-text", "Flux", "F", "--out", str(out)])
        capsys.readouterr()
        assert bank_file.read_bytes() == before
        assert b"<text><![CDATA[F]]></text>" in out.read_bytes()

    def test_replace_text_regex_flag(self, bank_file, capsys):
        code = main(
            ["maintain", str(bank_file), "replace-text", r"W/\((sr\*m\^2)\)",
             r"watt per \1", "--regex", "--no-backup"]
        )
        assert code == 0
        assert "replacements: 1" in capsys.readouterr().out
        assert b"watt per sr*m^2" in bank_file.read_bytes()

    def test_set_penalty_reports_question_count(self, tmp_path, capsys):
        bank = QuestionBank(tmp_path / "mcq.xml", seed=3)
        for i in range(10):
            bank.addMultipleChoice(f"q{i}", f"Q{i}?", ["r", "w1", "w2", "w3"])
        path = tmp_path / "mcq.xml"
        path.write_bytes(serialize_bank(bank))
        assert main(["maintain", str(path), "set-penalty", "0", "--no-backup"]) == 0
        assert "questions updated: 10" in capsys.readouterr().out
        assert b'fraction="-33.33333"' not in path.read_bytes()
        assert path.read_bytes().count(b'fraction="0"') == 30

    def test_invalid_penalty_leaves_file_untouched(self, bank_file, capsys):
        before = bank_file.read_bytes()
        assert main(["maintain", str(bank_file), "set-penalty", "50"]) == 1
        assert bank_file.read_bytes() == before
        assert list(bank_file.parent.glob("*.bak")) == []
        capsys.readouterr()

    @pytest.mark.parametrize("spelling", ["absolute", "dotdot"])
    def test_out_naming_the_bank_is_in_place_with_backup(
        self, bank_file, capsys, monkeypatch, spelling
    ):
        # The bank is named relative to the working directory, --out otherwise.
        monkeypatch.chdir(bank_file.parent)
        (bank_file.parent / "sub").mkdir()
        before = bank_file.read_bytes()
        out = str(bank_file) if spelling == "absolute" else "sub/../fixture.xml"
        argv = ["maintain", "fixture.xml", "set-penalty", "-20", "--out", out]
        assert main(argv) == 0
        [backup] = bank_file.parent.glob("fixture.xml.*.bak")
        assert f"backup: {backup.name}" in capsys.readouterr().err
        assert backup.read_bytes() == before
        assert b'fraction="-20"' in bank_file.read_bytes()

    def test_value_starting_with_dash_needs_double_dash(self, bank_file, capsys):
        # argparse reads "-Flux" as an option unless "--" ends the options.
        before = bank_file.read_bytes()
        assert main(["maintain", str(bank_file), "replace-text", "Flux", "-Flux"]) == 1
        err = capsys.readouterr().err
        assert _error_lines(err) == ["error: the following arguments are required: new"]
        assert err.count("\n") == 1
        assert bank_file.read_bytes() == before
        assert list(bank_file.parent.glob("*.bak")) == []
        argv = ["maintain", str(bank_file), "replace-text", "--no-backup", "--", "Flux", "-Flux"]
        assert main(argv) == 0
        assert "replacements: 1" in capsys.readouterr().out
        assert b"<text><![CDATA[-Flux]]></text>" in bank_file.read_bytes()

    def test_output_reparses_cleanly(self, bank_file, capsys):
        main(["maintain", str(bank_file), "replace-text", "Flux", "Radiant flux",
              "--no-backup"])
        capsys.readouterr()
        reparsed = parse_bank(bank_file.read_bytes())
        assert len(reparsed.questions) == 5


# No multiple-choice question: set-penalty updates none. Rewriting this
# bank would drop the truefalse question and the general feedback.
FOREIGN_NO_CHOICES = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="truefalse">
    <name><text>tf</text></name>
    <questiontext format="html"><text>The sky is blue.</text></questiontext>
    <answer fraction="100"><text>true</text></answer>
    <answer fraction="0"><text>false</text></answer>
  </question>
  <question type="shortanswer">
    <name><text>capital</text></name>
    <questiontext format="html"><text>Capital of France?</text></questiontext>
    <generalfeedback format="html"><text>Paris is the capital.</text></generalfeedback>
    <answer fraction="100"><text>Paris</text></answer>
  </question>
</quiz>
"""


def _own_bank_without_choices():
    bank = QuestionBank(None, seed=1)
    bank.addShortAnswer("capital", "Capital of France?", "Paris")
    bank.addMatching("units", "Match:", [("Flux", "W"), ("Intensity", "W/sr")])
    return serialize_bank(bank)


class TestEditOfNothing:
    # An in-place edit that reports 0 leaves the bank's file as it was: no
    # rewrite (which would normalize a foreign bank) and no backup.
    NO_OPS = {
        "replace-text": (["replace-text", "no such text", "x"], "replacements: 0\n"),
        "set-penalty": (["set-penalty", "-20"], "questions updated: 0\n"),
    }

    @pytest.mark.parametrize("operation", sorted(NO_OPS))
    @pytest.mark.parametrize("layout", ["own", "foreign"])
    @pytest.mark.parametrize("out", [None, "same"])
    def test_in_place_writes_nothing(self, tmp_path, capsys, operation, layout, out):
        data = _own_bank_without_choices() if layout == "own" else FOREIGN_NO_CHOICES
        path = tmp_path / "bank.xml"
        path.write_bytes(data)
        argv, report = self.NO_OPS[operation]
        argv = ["maintain", str(path), *argv] + (["--out", str(path)] if out else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == report
        assert path.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bank.xml"]

    @pytest.mark.parametrize("operation", sorted(NO_OPS))
    def test_out_elsewhere_still_writes(self, tmp_path, capsys, operation):
        path, out = tmp_path / "bank.xml", tmp_path / "edited.xml"
        path.write_bytes(_own_bank_without_choices())
        argv, report = self.NO_OPS[operation]
        assert main(["maintain", str(path), *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == report
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("penalty", ["-50", "-50.000001"])  # both round to -50
    @pytest.mark.parametrize("out", [None, "same"])
    def test_unchanged_penalty_writes_nothing(self, tmp_path, capsys, penalty, out):
        # The report still counts the question; no fraction changes, so no write.
        bank = QuestionBank(None)
        bank.addMultipleChoice("pick", "Pick one:", ["a", "b", "c"])  # wrong choices at -50
        path = tmp_path / "bank.xml"
        path.write_bytes(data := serialize_bank(bank))
        os.utime(path, ns=(10**18, 10**18))
        argv = ["maintain", str(path), "set-penalty", penalty] + (["--out", str(path)] if out else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == "questions updated: 1\n"
        assert path.read_bytes() == data and path.stat().st_mtime_ns == 10**18
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bank.xml"]
        assert main(["maintain", str(path), "set-penalty", "-50", "--out", str(tmp_path / "e.xml")]) == 0
        assert (tmp_path / "e.xml").read_bytes() == data  # elsewhere: written as before
        assert main(["maintain", str(path), "set-penalty", "-49.99999"]) == 0
        assert b'fraction="-49.99999"' in path.read_bytes()
        assert len(list(tmp_path.glob("bank.xml.*.bak"))) == 1

    @pytest.mark.parametrize(
        "argv", [["Q?", "Q?"], ["--regex", r"\((a)\)", r"(\1)"]], ids=["literal", "regex"]
    )
    def test_identity_replacement_writes_nothing(self, tmp_path, capsys, argv):
        # Matches whose replacement is the matched text itself change nothing.
        bank = QuestionBank(None)
        bank.addShortAnswer("same", "Q? and Q?", "(a)")
        path = tmp_path / "bank.xml"
        path.write_bytes(data := serialize_bank(bank))
        assert main(["maintain", str(path), "replace-text", *argv]) == 0
        assert capsys.readouterr().out == "replacements: 0\n"
        assert path.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bank.xml"]


# A foreign bank whose category lives in another Moodle context than the course.
FOREIGN_CONTEXT = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="category"><category><text>%s</text></category></question>
  <question type="shortanswer">
    <name><text>capital</text></name>
    <questiontext format="html"><text>Capital of France?</text></questiontext>
    <answer fraction="100"><text>Paris</text></answer>
  </question>
</quiz>
"""


@pytest.mark.parametrize("marker", [b"$system$/top/Shared", b"$cat$/top/Pool", b"$module$/top/Q 1"])
def test_maintain_keeps_other_context_markers(tmp_path, capsys, marker):
    path = tmp_path / "bank.xml"
    path.write_bytes(FOREIGN_CONTEXT % marker)
    assert main(["maintain", str(path), "replace-text", "Paris", "Lyon", "--no-backup"]) == 0
    assert capsys.readouterr().out == "replacements: 1\n"
    data = path.read_bytes()
    assert b"      <text>%s</text>\n" % marker in data
    assert b"$course$" not in data and b"Lyon" in data
    assert parse_bank(data).questions[0].category == marker.decode()


def test_bare_course_marker_is_the_default_category(tmp_path, capsys):
    # Read by ElementTree, "$course$" alone is the course's default, as "$course$/top" is.
    path = tmp_path / "bank.xml"
    path.write_bytes(FOREIGN_CONTEXT % b"$course$")
    assert parse_bank(path.read_bytes()).questions[0].category == ""
    assert main(["maintain", str(path), "replace-text", "Paris", "Lyon", "--no-backup"]) == 0
    assert capsys.readouterr().out == "replacements: 1\n"
    assert b"$course$" not in path.read_bytes()  # the default needs no marker
    assert main(["stats", str(path)]) == 0
    assert "categories:\n  (default): 1\n" in capsys.readouterr().out


class TestSymlinkedTargets:
    # A write through a symbolic link replaces the file it points to, next to
    # which the temporary file is made; the link stays a link.
    @pytest.fixture
    def linked_bank(self, bank_file, tmp_path):
        (tmp_path / "real").mkdir()
        real = bank_file.rename(tmp_path / "real" / "bank.xml")
        link = tmp_path / "link.xml"
        link.symlink_to(Path("real") / "bank.xml")
        return link, real

    def test_maintain_edits_the_target(self, linked_bank, tmp_path, capsys):
        link, real = linked_bank
        before = real.read_bytes()
        assert main(["maintain", str(link), "set-penalty", "-20"]) == 0
        [backup] = tmp_path.glob("link.xml.*.bak")
        assert f"backup: {backup}" in capsys.readouterr().err
        assert link.is_symlink() and os.readlink(link) == os.path.join("real", "bank.xml")
        assert b'fraction="-20"' in real.read_bytes()
        assert backup.read_bytes() == before and not backup.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.xml", backup.name, "real"]
        assert [p.name for p in real.parent.iterdir()] == ["bank.xml"]

    def test_out_naming_the_target_is_in_place(self, linked_bank, capsys):
        link, real = linked_bank
        argv = ["maintain", str(link), "replace-text", "Flux", "F", "--out", str(real)]
        assert main(argv + ["--no-backup"]) == 0
        capsys.readouterr()
        assert link.is_symlink() and b"<text><![CDATA[F]]></text>" in real.read_bytes()

    def test_close_through_a_dangling_link_creates_its_target(self, tmp_path):
        link = tmp_path / "link.xml"
        link.symlink_to("made.xml")
        bank = QuestionBank(link)
        bank.addShortAnswer("", "Q?", "a")
        bank.close()
        assert link.is_symlink()
        assert parse_bank((tmp_path / "made.xml").read_bytes()).questions == bank.questions

    @pytest.mark.parametrize("kind", ["missing directory", "loop"])
    def test_failed_write_through_a_link_names_the_link(self, tmp_path, kind):
        link = tmp_path / "link.xml"
        if kind == "loop":
            link.symlink_to("other.xml")
            (tmp_path / "other.xml").symlink_to("link.xml")
        else:
            link.symlink_to(Path("missing") / "bank.xml")
        bank = QuestionBank(link)
        bank.addShortAnswer("", "Q?", "a")
        with pytest.raises(quizbank.QuizbankError) as err:
            bank.close()
        assert str(err.value).endswith(f": {str(link)!r}")
        assert link.is_symlink()
        assert not list(tmp_path.glob("*.tmp"))

    def test_preview_out_through_a_link(self, linked_bank, tmp_path, capsys):
        link, _ = linked_bank
        page_link = tmp_path / "page-link.html"
        page_link.symlink_to("page.html")
        assert main(["preview", str(link), "--out", str(page_link)]) == 0
        assert capsys.readouterr().out == f"{page_link}\n"
        assert page_link.is_symlink()
        assert "Flux" in (tmp_path / "page.html").read_text(encoding="utf-8")


class TestOutNamingTheInput:
    """build and preview refuse an --out that names their own input, however it
    is spelled, before any work: exit 1, one error: line, the file unchanged.
    maintain reads it as an edit in place (TestMaintain, TestSymlinkedTargets)."""

    @staticmethod
    def _spelled(path, spelling):
        if spelling == "dotdot":
            return str(path.parent / ".." / path.parent.name / path.name)
        if spelling == "link":
            (path.parent / f"link-{path.name}").symlink_to(path.name)
            return str(path.parent / f"link-{path.name}")
        return str(path)

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "link"])
    def test_preview_out_naming_the_bank(self, bank_file, capsys, spelling):
        before = bank_file.read_bytes()
        out = self._spelled(bank_file, spelling)
        assert main(["preview", str(bank_file), "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out names the bank itself: {bank_file}\n"
        assert bank_file.read_bytes() == before

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "link"])
    def test_build_out_naming_the_script(self, tmp_path, capsys, spelling):
        script = tmp_path / "bank.py"  # it leaves a mark next to itself when it runs
        script.write_text(BUILD_SCRIPT + "open(__file__ + '.ran', 'w').close()\n", encoding="utf-8")
        before = script.read_bytes()
        out = self._spelled(script, spelling)
        assert main(["build", str(script), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out names the script itself: {script}\n"
        assert script.read_bytes() == before
        assert not (tmp_path / "bank.py.ran").exists()

    def test_other_outs_still_write(self, bank_file, build_script, tmp_path, capsys):
        # A link named by --out that does not point to the input is written through.
        (tmp_path / "page-link.html").symlink_to("page.html")
        assert main(["preview", str(bank_file), "--out", str(tmp_path / "page-link.html")]) == 0
        assert (tmp_path / "page.html").exists()
        assert main(["build", str(build_script), "--out", str(tmp_path / "b.xml")]) == 0
        assert parse_bank((tmp_path / "b.xml").read_bytes()).questions
        capsys.readouterr()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert main(["stats"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


FOREIGN_NUMERICAL = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="numerical">
    <name><text>n</text></name>
    <questiontext format="html"><text>How many?</text></questiontext>
    <answer fraction="100"><text>abc</text></answer>
  </question>
</quiz>
"""

FOREIGN_FRACTION = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="shortanswer">
    <name><text>s</text></name>
    <questiontext format="html"><text>Say hi</text></questiontext>
    <answer fraction="100"><text>hi</text></answer>
  </question>
  <question type="multichoice">
    <name><text>m</text></name>
    <questiontext format="html"><text>Pick one</text></questiontext>
    <answer fraction="lots"><text>a</text></answer>
    <answer fraction="0"><text>b</text></answer>
  </question>
</quiz>
"""


# Well-formed up to line 8, where </quiz> closes an open <question>.
MALFORMED_AFTER_TRUEFALSE = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="truefalse">
    <name><text>tf</text></name>
    <questiontext format="html"><text>The sky is blue.</text></questiontext>
    <answer fraction="100"><text>true</text></answer>
  <question type="shortanswer">
</quiz>
"""
MALFORMED_NOTQUIZ = MALFORMED_AFTER_TRUEFALSE.replace(b"quiz>", b"notquiz>")


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


def _full_disk_copy(source, target):
    # Writes the first 1,000 bytes of the copy, then fails as a full disk would.
    with open(source, "rb") as src, open(target, "wb") as dst:
        dst.write(src.read(1000))
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _link_failing_with(code):
    def link(source, target):
        raise OSError(code, os.strerror(code), source, None, target)
    return link


_OS_FAILURES = {
    "stats-missing": (["stats", "{missing}"], "missing.xml"),
    "stats-directory": (["stats", "{directory}"], "folder"),
    "preview-missing": (["preview", "{missing}", "--out", "{dir}/p.html"], "missing.xml"),
    "preview-directory": (["preview", "{directory}", "--out", "{dir}/p.html"], "folder"),
    "maintain-missing": (["maintain", "{missing}", "set-penalty", "0"], "missing.xml"),
    "maintain-directory": (["maintain", "{directory}", "set-penalty", "0"], "folder"),
    "preview-out-missing-dir": (
        ["preview", "{bank}", "--out", "{dir}/nowhere/p.html"], "p.html"
    ),
    "maintain-out-missing-dir": (
        ["maintain", "{bank}", "set-penalty", "0", "--out", "{dir}/nowhere/b.xml"], "b.xml"
    ),
    "maintain-out-dot": (["maintain", "{bank}", "set-penalty", "0", "--out", "."], "'.'"),
    "failed-backup": (["maintain", "{bank}", "set-penalty", "-30"], ".bak"),
}


_UNENCODABLE = {"surrogate": "\udcff", "bell": "\x07", "cr": "\r", "fffe": "\ufffe"}


class TestFailureMessages:
    @pytest.mark.parametrize(
        "document, number",
        [(FOREIGN_NUMERICAL, 1), (FOREIGN_FRACTION, 2)],
        ids=["numerical-text", "fraction-text"],
    )
    @pytest.mark.parametrize(
        "command",
        [["stats"], ["preview", "--out", "p.html"], ["maintain", "set-penalty", "0"]],
        ids=lambda c: c[0],
    )
    def test_unparsable_number_exits_2(self, tmp_path, capsys, document, number, command):
        path = tmp_path / "foreign.xml"
        path.write_bytes(document)
        argv = [command[0], str(path)] + [
            str(tmp_path / arg) if arg.endswith(".html") else arg for arg in command[1:]
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(_error_lines(err)) == 1 and f"question #{number}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.xml"]

    @pytest.mark.parametrize("encoding", _UNREADABLE_ENCODINGS)
    @pytest.mark.parametrize(
        "command",
        [["stats"], ["preview", "--out", "p.html"], ["maintain", "replace-text", "a", "b"]],
        ids=lambda c: c[0],
    )
    def test_unreadable_encoding_exits_2(self, tmp_path, capsys, encoding, command):
        path = tmp_path / "foreign.xml"
        data = f'<?xml version="1.0" encoding="{encoding}"?>\n<quiz>\n</quiz>\n'.encode()
        path.write_bytes(data)
        argv = [command[0], str(path)] + [
            str(tmp_path / arg) if arg.endswith(".html") else arg for arg in command[1:]
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert _error_lines(err) == [err.strip()] and "unsupported encoding" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.xml"]
        assert path.read_bytes() == data

    @pytest.mark.parametrize(
        "command",
        [["stats"], ["preview", "--out", "p.html"], ["maintain", "set-penalty", "0"]],
        ids=lambda c: c[0],
    )
    @pytest.mark.parametrize("document", [MALFORMED_AFTER_TRUEFALSE, MALFORMED_NOTQUIZ],
                             ids=["after-truefalse", "notquiz-root"])
    def test_malformed_xml_is_reported_before_anything_read(
        self, tmp_path, capsys, command, document
    ):
        # The parse fails before any question is read: no WARN: for the truefalse
        # question, and not the root's name either.
        path = tmp_path / "foreign.xml"
        path.write_bytes(document)
        argv = [command[0], str(path)] + [
            str(tmp_path / arg) if arg.endswith(".html") else arg for arg in command[1:]
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: malformed XML at line 8, column 2: mismatched tag"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.xml"]
        assert path.read_bytes() == document

    def test_bad_regex_is_usage_error(self, bank_file, capsys):
        before = bank_file.read_bytes()
        code = main(["maintain", str(bank_file), "replace-text", "(", "x", "--regex"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(_error_lines(err)) == 1 and "Traceback" not in err
        assert bank_file.read_bytes() == before
        assert list(bank_file.parent.glob("*.bak")) == []

    def test_bad_group_reference_is_usage_error(self, bank_file, capsys):
        code = main(["maintain", str(bank_file), "replace-text", "(Flux)", r"\2", "--regex"])
        assert code == 1
        assert len(_error_lines(capsys.readouterr().err)) == 1

    @pytest.mark.parametrize("case", _OS_FAILURES)
    def test_os_failure_exits_2_with_one_error_line(self, bank_file, capsys, monkeypatch, case):
        directory = bank_file.parent
        (directory / "folder").mkdir()
        monkeypatch.chdir(directory)
        if case == "failed-backup":  # the link is refused, then the copy fails
            monkeypatch.setattr("quizbank.fileio.os.link", _link_failing_with(errno.EXDEV))
            monkeypatch.setattr("quizbank.fileio.shutil.copy2", _full_disk_copy)
        before = bank_file.read_bytes()
        argv, named = _OS_FAILURES[case]
        paths = {"missing": directory / "missing.xml", "directory": directory / "folder"}
        argv = [arg.format(bank=bank_file, dir=directory, **paths) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and named in line, line
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in directory.rglob("*")) == ["fixture.xml", "folder"]
        assert bank_file.read_bytes() == before

    def test_failed_preview_write_leaves_no_temp_file(self, bank_file, tmp_path, capsys):
        # Replacing a directory fails after the temp file was written.
        target = tmp_path / "taken"
        target.mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["preview", str(bank_file), "--out", str(target)]) == 2
        assert len(_error_lines(capsys.readouterr().err)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_media_threshold_is_usage_error(self, bank_file, capsys, value):
        assert main(["stats", str(bank_file), "--media-warn-mb", value]) == 1
        err = capsys.readouterr().err
        assert len(_error_lines(err)) == 1 and "Traceback" not in err

    def test_huge_media_threshold_is_accepted(self, bank_file, capsys):
        assert main(["stats", str(bank_file), "--media-warn-mb", "1e308"]) == 0
        assert "WARN:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "new, padding",
        [(new, 0) for new in _UNENCODABLE.values()]
        + [(new, 3 << 19) for new in _UNENCODABLE.values()],
        ids=list(_UNENCODABLE) + [f"{name}-after-1.5MiB" for name in _UNENCODABLE],
    )
    def test_unencodable_edit_is_rejected_before_backup(self, bank_file, capsys, new, padding):
        if padding:  # the bad question then follows more than a chunk of good document
            bank = parse_bank(bank_file.read_bytes())
            bank.questions.insert(0, Question(
                QuestionKind.SHORT_ANSWER, "padding", "x" * padding, ShortAnswerSet(["x"])
            ))
            bank_file.write_bytes(serialize_bank(bank))
        before = bank_file.read_bytes()
        listing = sorted(p.name for p in bank_file.parent.iterdir())
        code = main(["maintain", str(bank_file), "replace-text", "Paris", new])
        assert code == 2
        err = capsys.readouterr().err
        assert len(_error_lines(err)) == 1 and "Traceback" not in err
        assert "question 'capitals' contains" in err
        assert bank_file.read_bytes() == before
        assert sorted(p.name for p in bank_file.parent.iterdir()) == listing

    @pytest.mark.parametrize(
        "prompts, edit, named",
        [
            (("fox", "fix"), ["o", "a"], "question 1 ('animals'): duplicated choice text 'cat'"),
            (("fax", "fix"), ["i", "a"], "question 2 ('words'): duplicate matching prompt: 'fax'"),
            (("fox", "fix"), [".+", "", "--regex"], "question 1 ('animals'): question text"),
        ],
        ids=["choices", "prompts", "regex-empties-all"],
    )
    def test_edit_breaking_an_invariant_exits_1(self, tmp_path, capsys, prompts, edit, named):
        script = tmp_path / "animals.py"
        script.write_text(
            "from quizbank import QuestionBank\n"
            "Q = QuestionBank('bank.xml')\n"
            "Q.addMultipleChoice('animals', 'Which animal?', ['cat', 'cot', 'dog'])\n"
            f"Q.addMatching('words', 'Match', [({prompts[0]!r}, '1'), ({prompts[1]!r}, '2')])\n"
            "Q.addShortAnswer('greeting', 'Say hello', 'hello')\n"
            "Q.close()\n",
            encoding="utf-8",
        )
        bank_path = tmp_path / "bank.xml"
        assert main(["build", str(script), "--out", str(bank_path)]) == 0
        before = bank_path.read_bytes()
        listing = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(["maintain", str(bank_path), "replace-text", *edit]) == 1
        err = capsys.readouterr().err
        [line] = _error_lines(err)
        assert line.startswith(f"error: {named}") and "Traceback" not in err
        assert bank_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

    def test_undecodable_argv_byte_exits_2(self, bank_file):
        # The shell passes $'\xff' as a raw byte; Python (in UTF-8 mode, as
        # under any UTF-8 or C locale) decodes it to a lone surrogate.
        before = bank_file.read_bytes()
        env = {**_SUBPROCESS_ENV, "PYTHONUTF8": "1"}
        argv = [sys.executable, "-m", "quizbank.cli", "maintain", str(bank_file)]
        result = subprocess.run(
            [*argv, "replace-text", "Paris", b"\xff"], env=env, capture_output=True
        )
        err = result.stderr.decode("utf-8", "replace")
        assert result.returncode == 2, err
        assert len(_error_lines(err)) == 1 and "Traceback" not in err
        assert bank_file.read_bytes() == before
        assert [p.name for p in bank_file.parent.iterdir()] == [bank_file.name]

    def test_undecodable_bank_path_byte_is_shown_replaced(self, bank_file):
        # The path, not the bank, holds the lone surrogate: the page shows "?".
        os.rename(bank_file, os.path.join(os.fsencode(bank_file.parent), b"b\xff.xml"))
        env = {**_SUBPROCESS_ENV, "PYTHONUTF8": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "quizbank.cli", "preview", b"b\xff.xml", "--out", "p.html"],
            cwd=bank_file.parent, env=env, capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        page = (bank_file.parent / "p.html").read_text(encoding="utf-8")
        assert "Question bank preview &mdash; b?.xml</h1>" in page


# Modules only some commands need; importing quizbank.cli must not load them.
_ON_USE_MODULES = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "html", "html.entities", "traceback",
    "runpy", "xml.etree.ElementTree", "webbrowser", "base64",
}

_MEDIA_SCRIPT = f"""\
from quizbank import MediaAsset, QuestionBank, embed_image

image = embed_image(MediaAsset({PNG_1PX!r}, "image/png", alt_text='a "dot" <&>'))
Q = QuestionBank("fallback.xml", seed=3)
Q.addMultipleChoice("dot", "What is shown? " + image, ["a dot", "a line", "a square"])
Q.close()
"""


def _cli_process(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "quizbank.cli", *args], env=_SUBPROCESS_ENV, cwd=cwd,
        capture_output=True, text=True,
    )


class TestStartup:
    """Start-up cost: on-use imports stay out of a fresh ``import quizbank.cli``,
    and the commands that need them still load them in a real process (pytest
    has already imported them in this one)."""

    def test_import_loads_no_on_use_module(self):
        def modules(code):
            listing = "import sys; print('\\n'.join(sys.modules))"
            done = subprocess.run(
                [sys.executable, "-c", code + listing], env=_SUBPROCESS_ENV,
                capture_output=True, text=True, check=True,
            )
            return set(done.stdout.split())

        added = modules("import quizbank.cli; ") - modules("")
        assert "quizbank.cli" in added
        assert added & _ON_USE_MODULES == set()

    def test_import_compiles_no_reader_pattern(self):
        # Records every re.compile call: those a fresh import makes, then those
        # the first parse and the first data-URI scan make.
        code = (
            "import json, re\n"
            "compiled, real = [], re.compile\n"
            "re.compile = lambda pattern, flags=0: compiled.append(pattern) or real(pattern, flags)\n"
            "import quizbank.cli\n"
            "at_import = compiled[:]\n"
            "from quizbank import QuestionBank, parse_bank, serialize_bank\n"
            "from quizbank.media import data_uri_payload_bytes\n"
            "parse_bank(serialize_bank(QuestionBank(None)))\n"
            "assert data_uri_payload_bytes('data:image/png;base64,AAAA') == 3\n"
            # repr: some stdlib imports compile bytes patterns (glob, from pathlib on 3.13).
            "print(json.dumps([[repr(p) for p in ps] for ps in (at_import, compiled[len(at_import):])]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_SUBPROCESS_ENV,
            capture_output=True, text=True, check=True,
        )
        at_import, on_use = json.loads(done.stdout)
        # The reader's six layout patterns and the data-URI pattern.
        assert len(set(on_use)) == 7
        assert set(on_use) & set(at_import) == set()

    def test_failing_script_prints_traceback(self, tmp_path):
        script = tmp_path / "broken.py"
        script.write_text("raise RuntimeError('boom')\n", encoding="utf-8")
        result = _cli_process(["build", str(script)], tmp_path)
        assert result.returncode == 2
        assert "Traceback (most recent call last)" in result.stderr
        assert "RuntimeError: boom" in result.stderr

    def test_media_build_and_preview_match_in_process(self, tmp_path, monkeypatch):
        script = tmp_path / "media.py"
        script.write_text(_MEDIA_SCRIPT, encoding="utf-8")
        commands = [
            ["build", str(script), "--out", "bank.xml"],
            ["preview", "bank.xml", "--out", "page.html"],
        ]
        for where in ("child", "here"):
            (tmp_path / where).mkdir()
        for args in commands:
            result = _cli_process(args, tmp_path / "child")
            assert result.returncode == 0, result.stderr
        monkeypatch.chdir(tmp_path / "here")
        for args in commands:
            assert main(args) == 0
        for name in ("bank.xml", "page.html"):
            assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
        assert 'alt="a &quot;dot&quot; &lt;&amp;&gt;"' in (tmp_path / "here" / "bank.xml").read_text()


@contextlib.contextmanager
def _umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
class TestFileModes:
    @pytest.mark.parametrize(
        "mask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_new_files_get_the_umask_mode(self, build_script, tmp_path, capsys, mask, mode):
        bank, page = tmp_path / "bank.xml", tmp_path / "bank.html"
        with _umask(mask):
            assert main(["build", str(build_script), "--out", str(bank)]) == 0
            assert main(["preview", str(bank), "--out", str(page)]) == 0
        capsys.readouterr()
        assert (_mode(bank), _mode(page)) == (mode, mode)

    def test_maintained_bank_and_backup_keep_the_bank_mode(self, bank_file, capsys):
        bank_file.chmod(0o640)
        with _umask(0o022):
            for edit in (["set-penalty", "-25"], ["replace-text", "Flux", "Radiant flux"]):
                assert main(["maintain", str(bank_file), *edit]) == 0
        capsys.readouterr()
        backups = list(bank_file.parent.glob("fixture.xml.*.bak"))
        assert len(backups) == 2
        assert [_mode(path) for path in (bank_file, *backups)] == [0o640] * 3

    def test_default_preview_stays_owner_only(self, bank_file, capsys):
        with _umask(0o022):
            assert main(["preview", str(bank_file)]) == 0
        page = Path(capsys.readouterr().out.strip())
        try:
            assert _mode(page) == 0o600
        finally:
            page.unlink()


@pytest.mark.skipif(os.name != "posix", reason="POSIX hard links and permission bits")
class TestBackups:
    # Every write renames a new file into place and never opens the one it
    # replaces, so the backup can be a hard link to the replaced file.
    def test_backup_is_the_replaced_file(self, bank_file, capsys):
        bank_file.chmod(0o640)
        before, old = bank_file.read_bytes(), bank_file.stat()
        assert main(["maintain", str(bank_file), "set-penalty", "-20"]) == 0
        [backup] = bank_file.parent.glob("fixture.xml.*.bak")
        assert f"backup: {backup}" in capsys.readouterr().err
        kept = backup.stat()
        assert (kept.st_ino, kept.st_nlink, kept.st_mode) == (old.st_ino, 1, old.st_mode)
        assert kept.st_mtime_ns == old.st_mtime_ns and backup.read_bytes() == before
        assert bank_file.stat().st_ino != old.st_ino
        assert b'fraction="-20"' in bank_file.read_bytes()

    def test_writes_never_open_the_file_they_replace(self, bank_file, build_script, capsys):
        other = bank_file.with_name("other.xml")
        os.link(bank_file, other)  # a second name of the bank's file
        before = bank_file.read_bytes()
        argv = ["maintain", str(bank_file), "replace-text", "Flux", "F", "--no-backup"]
        assert main(argv) == 0
        assert main(["build", str(build_script), "--out", str(bank_file)]) == 0
        capsys.readouterr()
        assert other.read_bytes() == before and other.stat().st_nlink == 1

    def test_backup_is_a_copy_where_no_link_can_be_made(self, bank_file, capsys, monkeypatch):
        monkeypatch.setattr("quizbank.fileio.os.link", _link_failing_with(errno.EXDEV))
        bank_file.chmod(0o640)
        before, old = bank_file.read_bytes(), bank_file.stat()
        assert main(["maintain", str(bank_file), "set-penalty", "-20"]) == 0
        capsys.readouterr()
        [backup] = bank_file.parent.glob("fixture.xml.*.bak")
        kept = backup.stat()
        assert (kept.st_nlink, kept.st_mode, kept.st_mtime_ns) == (1, old.st_mode, old.st_mtime_ns)
        assert kept.st_ino != old.st_ino and backup.read_bytes() == before

    def test_failed_link_exits_2_naming_the_backup(self, bank_file, capsys, monkeypatch):
        monkeypatch.setattr("quizbank.fileio.os.link", _link_failing_with(errno.ENOSPC))
        monkeypatch.setattr("time.strftime", lambda fmt: "20260101-000000")
        before = bank_file.read_bytes()
        assert main(["maintain", str(bank_file), "set-penalty", "-20"]) == 2
        backup = bank_file.with_name("fixture.xml.20260101-000000.bak")
        message = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{backup}'"
        assert capsys.readouterr().err.splitlines() == [message]
        assert bank_file.read_bytes() == before
        assert [path.name for path in bank_file.parent.iterdir()] == ["fixture.xml"]


FOREIGN_MOODLE = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
<!-- question: 0  -->
  <question type="category">
    <category><text>$course$/top/Default for course/Unit 1</text></category>
  </question>
  <question type="truefalse">
    <name><text>tf</text></name>
    <questiontext format="html"><text>The sky is blue.</text></questiontext>
    <answer fraction="100"><text>true</text></answer>
    <answer fraction="0"><text>false</text></answer>
  </question>
  <question type="multichoice">
    <name><text>twins</text></name>
    <questiontext format="html"><text><![CDATA[<p>Pick <b>one</b></p>]]></text></questiontext>
    <single>true</single>
    <answer fraction="100" format="html">
      <text>same</text><feedback><text>ok</text></feedback>
    </answer>
    <answer fraction="-33.333" format="html"><text> same </text></answer>
    <answer fraction="50"><text>half</text></answer>
  </question>
  <question type="multichoice">
    <name><text>several</text></name>
    <questiontext format="html"><text>Pick all</text></questiontext>
    <single>false</single>
    <answer fraction="50"><text>a</text></answer>
    <answer fraction="50"><text>b</text></answer>
  </question>
  <question type="numerical">
    <name><text>pi</text></name>
    <questiontext format="html"><text>Value of pi?</text></questiontext>
    <answer fraction="100"><text>3.14</text><tolerance>0.01</tolerance></answer>
    <answer fraction="100"><text>1e999</text><tolerance>0.5</tolerance></answer>
  </question>
  <question type="matching">
    <name><text>pairs</text></name>
    <questiontext format="html"><text></text></questiontext>
    <subquestion format="html"><text>fox</text><answer><text>1</text></answer></subquestion>
    <subquestion format="html"><text>fix</text><answer><text>2</text></answer></subquestion>
  </question>
  <question type="shortanswer">
    <name><text>sa &amp; more</text></name>
    <questiontext format="html"><text>Capital of &lt;France&gt;?</text></questiontext>
    <answer fraction="100"><text>Paris</text></answer>
    <answer fraction="100"><text>Paris</text></answer>
  </question>
  <question type="essay">
    <name><text>essay</text></name>
    <questiontext format="html"><text>Discuss.</text></questiontext>
  </question>
</quiz>
"""

_RICH = serialize_bank(build_rich_bank(QuestionBank(None, seed=7)))


@st.composite
def _fuzzed_document(draw):
    """Writer output of an arbitrary bank, or a foreign file, as it is
    (half of the time) or mutated."""
    sources = ["writer", _RICH, FOREIGN_MOODLE, FOREIGN_NUMERICAL, FOREIGN_FRACTION]
    source = draw(st.sampled_from(sources))
    data = _writer_output(draw(st.lists(_question(), max_size=3))) if source == "writer" else source
    edit = draw(st.one_of(st.none(), st.sampled_from(["insert", "delete", "replace", *_EDITS])))
    at = int(draw(st.floats(0, 1, exclude_max=True)) * len(data))
    byte = bytes([draw(st.sampled_from(b"\x00\t\n\r &<>]\"'/=?!ax\x80\xc3\xa9\xef"))])
    if edit is None:
        return data
    if edit == "insert":
        return data[:at] + byte + data[at:]
    if edit == "delete":
        return data[:at] + data[at + 1:]
    if edit == "replace":
        return data[:at] + byte + data[at + 1:]
    return edit(data)


_FUZZ_OLD = st.sampled_from(["a", "e", "o", "Paris", "same", ".+", "(", "\\s", "]]>", "-x", ""])
_FUZZ_NEW = st.sampled_from(["", " ", "a", "\\1", "]]>", "\x07", "\udcff", "\r"])
_FUZZ_COMMAND = st.one_of(
    st.just(["stats"]),
    st.just(["preview", "--out", "preview.html"]),
    st.tuples(_FUZZ_OLD, _FUZZ_NEW, st.sampled_from([[], ["--regex"]])).map(
        lambda t: ["maintain", "replace-text", t[0], t[1], *t[2]]
    ),
    st.sampled_from(["-25", "0", "-100", "50", "nan", "-inf", "1e999", "x"]).map(
        lambda value: ["maintain", "set-penalty", value]
    ),
)


class TestCliFuzz:
    """Any input file and argument: exit 0, 1 or 2, no traceback, and a
    failing command prints one error line and leaves the files as they were."""

    @settings(max_examples=200, deadline=None)
    @given(data=_fuzzed_document(), command=_FUZZ_COMMAND)
    def test_commands_on_mutated_and_foreign_banks(self, data, command):
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            bank = directory / "bank.xml"
            bank.write_bytes(data)
            argv = [command[0], str(bank), *command[1:]]
            if command[0] == "preview":
                argv[-1] = str(directory / argv[-1])
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            err = err.getvalue()
            left = sorted(p.name for p in directory.iterdir())
            unchanged = bank.read_bytes() == data
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert not any(name.endswith(".tmp") for name in left)
        if code != 0:
            assert len(_error_lines(err)) == 1, err
            assert left == ["bank.xml"] and unchanged
