"""The bank writer's and the preview's per-kind templates, checked byte for
byte against the code they replaced, which is kept here as the reference."""

import enum
import html
import numbers
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import QuestionBank, QuestionKind, ValidationError, serialize_bank
from quizbank import moodle_xml, preview
from quizbank.model import (
    Choice,
    ChoiceSet,
    MatchPairList,
    NumericalAnswerSet,
    Question,
    ShortAnswerSet,
    canonical_number,
)
from quizbank.preview import build_preview_html


# -- the reference: the emitters as they were before the templates ------------


def _reference_canonical_number(value) -> str:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"expected a number, got {value!r}")
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def _reference_escape_xml_text(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _reference_emit_question(parts, question) -> None:
    m = moodle_xml
    kind = question.kind.value
    head = m._QUESTION[0] % (kind, _reference_escape_xml_text(question.name))
    parts += (head, m.escape_for_cdata(question.stem), m._TYPES[kind][2])
    payload = question.payload
    if kind == "shortanswer":
        parts += [m._SHORT_ANSWER % _reference_escape_xml_text(a) for a in payload.answers]
    elif kind == "numerical":
        tolerance = _reference_canonical_number(payload.tolerance)
        parts += [
            m._NUMERICAL_ANSWER % (_reference_canonical_number(a), tolerance)
            for a in payload.answers
        ]
    elif kind == "multichoice":
        for choice in payload.choices:
            fraction = m.format_fraction(choice.fraction)
            parts += (m._CHOICE[0] % fraction, m.escape_for_cdata(choice.text), m._CHOICE[1])
    else:
        for prompt, match in payload.pairs:
            match = m._SUBQUESTION[1] % _reference_escape_xml_text(match)
            parts += (m._SUBQUESTION[0], m.escape_for_cdata(prompt), match)
    parts.append(m._QUESTION_END)


def _reference_serialize(bank) -> bytes:
    with mock.patch.object(moodle_xml, "_emit_question", _reference_emit_question):
        return serialize_bank(bank)


def _reference_page(bank, math="cdn") -> str:
    from html import escape

    head = [
        '<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8">',
        f"<title>Question bank preview</title>\n<style>{preview._STYLE}</style>",
        *preview._math_script(math),
        "</head>\n<body>\n<main>",
    ]
    source = str(bank.output_path).encode(errors="replace").decode() if bank.output_path else ""
    head.append(f"<h1>Question bank preview &mdash; {escape(source or 'unsaved bank')}</h1>")
    if not bank.questions:
        head.append('<p class="empty-notice">This bank contains no questions.</p>')
    pieces = ["\n".join(head) + "\n"]
    shown_category = ""
    for index, question in enumerate(bank.questions, start=1):
        category = question.category
        if category != shown_category:
            heading = category.replace("/", " / ") if category else "Default category"
            pieces.append(f'<h2 class="category">{escape(heading)}</h2>\n')
            shown_category = category
        _reference_question_block(pieces, question, index, escape)
    pieces.append("</main>\n</body>\n</html>\n")
    return "".join(pieces)


def _reference_question_block(pieces, question, index, escape) -> None:
    shown_name = question.name if question.name else f"Q{index}"
    kind = question.kind
    pieces += (
        f'<article class="question" data-kind="{kind.value}">\n'
        "<header>"
        f'<span class="question-name">{escape(shown_name)}</span>'
        f'<span class="question-kind">{kind.value}</span>'
        '</header>\n<div class="stem">',
        question.stem,
        "</div>\n",
    )
    if kind is QuestionKind.MULTIPLE_CHOICE:
        choices = question.payload.choices
        ordered = [c for c in choices if c.fraction == 100]
        ordered += [c for c in choices if c.fraction != 100]
        pieces.append('<ol class="choices">\n' if ordered else '<ol class="choices">\n\n')
        for choice in ordered:
            correct = choice.fraction == 100
            css = "choice correct" if correct else "choice"
            checked = " checked" if correct else ""
            label = f'<li class="{css}"><label><input type="radio" disabled{checked}> '
            pieces += (label, choice.text, "</label></li>\n")
        pieces.append("</ol>")
    elif kind is QuestionKind.NUMERICAL:
        accepted = " | ".join(_reference_canonical_number(a) for a in question.payload.answers)
        tolerance = _reference_canonical_number(question.payload.tolerance)
        pieces.append(
            '<div class="response"><input type="text" disabled>'
            f'<span class="accepted">{escape(accepted)}</span>'
            f'<span class="tolerance">&plusmn; {escape(tolerance)}</span></div>'
        )
    elif kind is QuestionKind.SHORT_ANSWER:
        accepted = " | ".join(question.payload.answers)
        pieces.append(
            '<div class="response"><input type="text" disabled>'
            f'<span class="accepted">{escape(accepted)}</span></div>'
        )
    else:
        options_in_order = [match for _, match in question.payload.pairs]
        pieces.append('<table class="match-pairs">\n')
        for prompt, match in question.payload.pairs:
            first = options_in_order.index(match)
            options = [
                f"<option{' selected' if i == first else ''}>{escape(option)}</option>"
                for i, option in enumerate(options_in_order)
            ]
            select = f"</td><td><select disabled>{''.join(options)}</select></td></tr>\n"
            pieces += ('<tr><td class="match-prompt">', prompt, select)
        pieces.append("</table>")
    pieces.append("\n</article>\n")


def _outcome(render, bank):
    try:
        return render(bank)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


# -- banks rich in what the templates must get right ---------------------------

# Text rich in what XML, CDATA and HTML escape, plus other legal characters.
_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["&", "<", ">", '"', "'", "]]>", "]]", "]", "&amp;", "%s", "%", "a", " "]),
        st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff"),
    ),
    max_size=6,
).map("".join)
_NAME = st.just("") | _TEXT
# Few distinct matches, so one question often repeats a match.
_MATCH = st.sampled_from(["W", "W/sr", "a & b", "<i>x</i>", "'q'", '"dq"', ""]) | _TEXT


class _Level(enum.IntEnum):
    HIGH = 3


class _Int(int):
    def __repr__(self):
        return "Int(...)"


class _Float(float):
    def __repr__(self):
        return "Float(...)"


# numpy-free numeric types, the odd ones drawn often.
_NUMBER = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 0.1, _Level.HIGH, _Int(7), _Float(2.5), Fraction(1, 3)]),
    st.fractions(max_denominator=50),
    st.sampled_from([True, Decimal("1.5")]),  # refused by both
)
_FRACTION = st.one_of(
    st.sampled_from([100, 100.0, -100.0, 50, 0, -0.0, 33.333333, -33.333333333, 99.999996]),
    st.sampled_from([1e-7, -1e-6, Fraction(100, 3), Fraction(200, 2), float("nan")]),
    st.floats(-100, 100),
)


@st.composite
def _question(draw):
    kind = draw(st.sampled_from(list(QuestionKind)))
    if kind is QuestionKind.SHORT_ANSWER:
        payload = ShortAnswerSet(draw(st.lists(_TEXT, max_size=3)))
    elif kind is QuestionKind.NUMERICAL:
        payload = NumericalAnswerSet(draw(st.lists(_NUMBER, max_size=3)), draw(_NUMBER))
    elif kind is QuestionKind.MULTIPLE_CHOICE:
        choices = st.lists(st.builds(Choice, _TEXT, _FRACTION), max_size=5)
        payload = ChoiceSet(draw(choices))
    else:
        payload = MatchPairList(draw(st.lists(st.tuples(_TEXT, _MATCH), max_size=6)))
    category = draw(st.sampled_from(["", "A", "A/B", "A & B/<x> 'y'"]))
    return Question(kind, draw(_NAME), draw(_TEXT), payload, category)


def _bank(questions, output_path=None):
    bank = QuestionBank(output_path)
    bank.questions = questions
    return bank


class TestEmitterDifferential:
    @settings(max_examples=300, deadline=None)
    @given(questions=st.lists(_question(), max_size=6))
    def test_bank_writer(self, questions):
        bank = _bank(questions)
        assert _outcome(serialize_bank, bank) == _outcome(_reference_serialize, bank)

    @settings(max_examples=300, deadline=None)
    @given(
        questions=st.lists(_question(), max_size=6),
        output_path=st.sampled_from([None, "bank.xml", "d/a&b'<\">.xml"]),
        math=st.sampled_from(["cdn", None]),
    )
    def test_preview(self, questions, output_path, math):
        bank = _bank(questions, output_path and Path(output_path))
        html_text = _outcome(lambda b: build_preview_html(b, math), bank)
        assert html_text == _outcome(lambda b: _reference_page(b, math), bank)

    def test_rich_bank(self, rich_bank):
        assert serialize_bank(rich_bank) == _reference_serialize(rich_bank)
        assert build_preview_html(rich_bank) == _reference_page(rich_bank)


class TestMatchingPreviewEscapes:
    def _matching_bank(self):
        pairs = [(f"<b>prompt {i}</b>", f"match & {i}") for i in range(40)]
        return _bank([Question(QuestionKind.MATCHING, "m & n", "Match:", MatchPairList(pairs))])

    def _escapes(self, render):
        with mock.patch("html.escape", wraps=html.escape) as escape:
            page = render(self._matching_bank())
        return escape.call_count, page

    def test_each_option_escaped_once(self):
        count, page = self._escapes(build_preview_html)
        assert count <= 40 + 3  # the options, the name, the title
        assert page.count("<option selected>") == 40
        assert page.count("<option>") == 40 * 39
        reference_count, reference_page = self._escapes(_reference_page)
        assert reference_count >= 40 * 40  # the same check fails the old code
        assert page == reference_page


class TestCanonicalNumber:
    @pytest.mark.parametrize(
        "value, text",
        [
            (3, "3"),
            (0.5, "0.5"),
            (-0.0, "-0.0"),
            (1e16, "1e+16"),
            (float("nan"), "nan"),
            (float("-inf"), "-inf"),
            (10**20, "100000000000000000000"),
            (_Level.HIGH, "3"),
            (_Int(7), "7"),
            (_Float(2.5), "2.5"),
            (Fraction(1, 4), "0.25"),
            (Fraction(4, 1), "4.0"),
        ],
    )
    def test_text(self, value, text):
        assert canonical_number(value) == text == _reference_canonical_number(value)

    @pytest.mark.parametrize("value", [True, False, Decimal("1.5"), "1", None, 1j])
    def test_refused(self, value):
        with pytest.raises(ValidationError, match="expected a number"):
            canonical_number(value)
        with pytest.raises(ValidationError, match="expected a number"):
            _reference_canonical_number(value)
