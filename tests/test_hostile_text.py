"""Hostile text in every field: each writer either writes its file or fails
with one error naming the first offending category or question in document
order, and leaves no partial file, temporary file or backup behind."""

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import (
    Choice,
    ChoiceSet,
    MatchPairList,
    NumericalAnswerSet,
    Question,
    QuestionBank,
    QuestionKind,
    QuizbankError,
    ShortAnswerSet,
    parse_bank,
    render_preview,
    serialize_bank,
)
from quizbank import cli
from quizbank.maintenance import replace_text
from quizbank.preview import build_preview_html

# Any code point, surrogates included, with the characters an output may
# refuse, and the CDATA terminator, drawn often.
_HOSTILE = st.lists(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(["\x00", "\x07", "\t", "\n", "\r", "\r\n", "\x1f", "\ud800",
                         "\udcff", "\ufffd", "\ufffe", "\uffff", "]]>", "]]", ">"]),
    ),
    max_size=6,
).map("".join)


def _xml_refuses(ch):
    return (ch < " " and ch not in "\t\n") or "\ud800" <= ch <= "\udfff" or ch in "\ufffe\uffff"


def _html_refuses(ch):
    return "\ud800" <= ch <= "\udfff"


def _fields(question):
    """Every text of a question in document order; numbers are not text.
    Written apart from model.question_texts, as the reference to check it by."""
    payload = question.payload
    if question.kind is QuestionKind.MULTIPLE_CHOICE:
        rest = [choice.text for choice in payload.choices]
    elif question.kind is QuestionKind.SHORT_ANSWER:
        rest = list(payload.answers)
    elif question.kind is QuestionKind.MATCHING:
        rest = [text for pair in payload.pairs for text in pair]
    else:
        rest = []
    return [question.name, question.stem, *rest]


def _expected_error(questions, refuses, target):
    """The one error a writer must raise, or None when the output is legal."""
    for index, question in enumerate(questions, start=1):
        name = question.name or f"question #{index}"
        for owner, texts in (
            (f"category {question.category!r}", [question.category]),
            (f"question {name!r}", _fields(question)),
        ):
            bad = [ch for text in texts for ch in text if refuses(ch)]
            if bad:
                what = "control character" if bad[0] < " " else "character"
                return f"{owner} contains {what} {bad[0]!r}, which {target} cannot encode"
    return None


@st.composite
def _question(draw, text=_HOSTILE):
    kind = draw(st.sampled_from(list(QuestionKind)))
    if kind is QuestionKind.MULTIPLE_CHOICE:
        payload = ChoiceSet([Choice(draw(text), 100.0), Choice(draw(text), -100.0)])
    elif kind is QuestionKind.SHORT_ANSWER:
        payload = ShortAnswerSet(draw(st.lists(text, min_size=1, max_size=2)))
    elif kind is QuestionKind.MATCHING:
        payload = MatchPairList([(draw(text), draw(text)) for _ in range(2)])
    else:
        payload = NumericalAnswerSet([1, 2.5], 0.5)
    category = draw(st.lists(text.filter(lambda t: t and "/" not in t), max_size=2))
    return Question(kind, draw(text), draw(text), payload, "/".join(category))


def _marked_bank(kinds):
    """One question of each given kind, in category C<n>; every text is a
    distinct number and the marker "@@", so replacing the marker keeps the
    questions valid."""
    bank = QuestionBank(None)
    texts = (f"{number} @@" for number in itertools.count())
    for number, kind in enumerate(kinds):
        bank.setCategory(f"C{number}")
        name, stem = next(texts), next(texts)
        if kind is QuestionKind.MULTIPLE_CHOICE:
            bank.addMultipleChoice(name, stem, [next(texts), next(texts)])
        elif kind is QuestionKind.SHORT_ANSWER:
            bank.addShortAnswer(name, stem, [next(texts)])
        elif kind is QuestionKind.MATCHING:
            bank.addMatching(name, stem, [(next(texts), next(texts)) for _ in range(2)])
        else:
            bank.addNumerical(name, stem, [1])
    return bank


def _listing(directory):
    return sorted(path.name for path in Path(directory).iterdir())


class TestHostileText:
    @settings(max_examples=150, deadline=None)
    @given(questions=st.lists(_question(), min_size=1, max_size=3))
    def test_close_and_serialize(self, questions):
        expected = _expected_error(questions, _xml_refuses, "XML")
        with tempfile.TemporaryDirectory() as directory:
            bank = QuestionBank(Path(directory) / "bank.xml")
            bank.questions = questions
            if expected is None:
                data = serialize_bank(bank)
                bank.close()
                assert bank.output_path.read_bytes() == data
                return
            with pytest.raises(QuizbankError) as err:
                serialize_bank(bank)
            assert str(err.value) == expected
            with pytest.raises(QuizbankError) as err:
                bank.close()
            assert str(err.value) == expected
            assert not bank.closed
            assert _listing(directory) == []

    @settings(max_examples=150, deadline=None)
    @given(questions=st.lists(_question(), min_size=1, max_size=3))
    def test_render_preview(self, questions):
        expected = _expected_error(questions, _html_refuses, "UTF-8")
        with tempfile.TemporaryDirectory() as directory:
            bank = QuestionBank(None)
            bank.questions = questions
            page = Path(directory) / "page.html"
            if expected is None:
                render_preview(bank, page)
                assert page.read_bytes() == build_preview_html(bank).encode("utf-8")
                return
            with pytest.raises(QuizbankError) as err:
                render_preview(bank, page)
            assert str(err.value) == expected
            assert _listing(directory) == []

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(list(QuestionKind)), min_size=1, max_size=3),
           new=_HOSTILE)
    def test_maintain_replace_text(self, kinds, new):
        before = serialize_bank(_marked_bank(kinds))
        edited = parse_bank(before)
        replace_text(edited, "@@", new)
        expected = _expected_error(edited.questions, _xml_refuses, "XML")
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "bank.xml"
            path.write_bytes(before)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["maintain", str(path), "replace-text", "--", "@@", new])
            if expected is None:
                assert code == 0
                assert path.read_bytes() == serialize_bank(edited)
                backups = [name for name in _listing(directory) if name != "bank.xml"]
                assert len(backups) == 1 and backups[0].endswith(".bak")
                assert (Path(directory) / backups[0]).read_bytes() == before
                return
            assert code == 2
            assert err.getvalue() == f"error: {expected}\n"
            assert path.read_bytes() == before
            assert _listing(directory) == ["bank.xml"]
