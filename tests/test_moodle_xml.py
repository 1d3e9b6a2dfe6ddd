"""Serialization dialect, CDATA handling, and round-trip guarantees."""

import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import (
    BankParseError,
    QuestionBank,
    QuestionKind,
    QuizbankError,
    escape_for_cdata,
    parse_bank,
    serialize_bank,
)
from quizbank import moodle_xml
from quizbank.model import (
    Choice,
    ChoiceSet,
    MatchPairList,
    NumericalAnswerSet,
    Question,
    ShortAnswerSet,
)
from quizbank.moodle_xml import format_fraction

from conftest import build_rich_bank


def questions_as_tuples(bank):
    """Structural fingerprint of a bank for identity comparisons."""
    result = []
    for q in bank.questions:
        payload = q.payload
        if q.kind is QuestionKind.MULTIPLE_CHOICE:
            body = tuple((c.text, round(c.fraction, 5)) for c in payload.choices)
        elif q.kind is QuestionKind.SHORT_ANSWER:
            body = tuple(payload.answers)
        elif q.kind is QuestionKind.NUMERICAL:
            body = (tuple(payload.answers), payload.tolerance)
        else:
            body = tuple(payload.pairs)
        result.append((q.kind, q.name, q.stem, q.category, body))
    return result


class TestEscapeForCdata:
    def test_markup_passes_through(self):
        assert escape_for_cdata("a<b") == "a<b"
        assert escape_for_cdata("x & <i>y</i>") == "x & <i>y</i>"

    def test_terminator_is_split(self):
        assert escape_for_cdata("x]]>y") == "x]]]]><![CDATA[>y"

    def test_latex_is_byte_identical(self):
        assert escape_for_cdata("\\(x^2\\)") == "\\(x^2\\)"
        assert escape_for_cdata("$$\\int_0^1 x\\,dx$$") == "$$\\int_0^1 x\\,dx$$"

    def test_terminator_survives_round_trip(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Does <b>x]]>y</b> parse?", ["yes"])
        recovered = parse_bank(serialize_bank(bank))
        assert recovered.questions[0].stem == "Does <b>x]]>y</b> parse?"


class TestFormatFraction:
    @pytest.mark.parametrize(
        "value,text",
        [
            (100.0, "100"),
            (-100.0, "-100"),
            (-100.0 / 3, "-33.33333"),
            (-50.0, "-50"),
            (-12.5, "-12.5"),
            (0.0, "0"),
            (-0.0, "0"),
        ],
    )
    def test_grid_rendering(self, value, text):
        assert format_fraction(value) == text


class TestSerialize:
    def test_multichoice_element_shape(self, make_bank):
        bank = make_bank()
        bank.addMultipleChoice("", "Q?", ["right", "w1", "w2", "w3"])
        text = serialize_bank(bank).decode()
        assert '<question type="multichoice">' in text
        assert "<single>true</single>" in text
        assert text.count('fraction="100"') == 1
        assert text.count('fraction="-33.33333"') == 3

    def test_numerical_answers_carry_tolerance(self, make_bank):
        bank = make_bank()
        bank.addNumerical("", "Solve \\(2x^2+4x-30=0\\)", [3, -5], 0.01)
        text = serialize_bank(bank).decode()
        assert text.count("<tolerance>0.01</tolerance>") == 2
        assert "<text>3</text>" in text
        assert "<text>-5</text>" in text

    def test_empty_bank_is_valid_document(self, make_bank):
        data = serialize_bank(make_bank())
        assert parse_bank(data).questions == []

    def test_category_reset_to_default_emits_marker(self, make_bank):
        bank = make_bank()
        bank.setCategory("Topic")
        bank.addShortAnswer("", "One?", ["a"])
        bank.setCategory("")
        bank.addShortAnswer("", "Two?", ["b"])
        text = serialize_bank(bank).decode()
        assert "<text>$course$/top/Topic</text>" in text
        assert "<text>$course$/top</text>" in text

    def test_other_context_is_its_own_marker(self, make_bank):
        bank = make_bank()
        bank.setCategory("$system$/top/X")
        bank.addShortAnswer("", "Q?", ["a"])
        data = serialize_bank(bank)
        assert b"      <text>$system$/top/X</text>\n" in data
        assert b"$course$" not in data
        assert parse_bank(data).questions[0].category == "$system$/top/X"

    def test_no_marker_before_default_prefix(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        assert b'type="category"' not in serialize_bank(bank)

    def test_no_raw_markup_outside_cdata(self, rich_bank):
        text = serialize_bank(rich_bank).decode()
        stripped = re.sub(r"<!\[CDATA\[.*?\]\]>", "", text, flags=re.S)
        for line in stripped.splitlines():
            content = re.sub(r"<[^<>]+>", "", line)
            assert "<" not in content, line
            assert re.search(r"&(?!amp;|lt;|gt;)", content) is None, line

    def test_plain_text_fields_are_entity_escaped(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("a<b & c", "Is a&lt;b?", ["a<b"])
        text = serialize_bank(bank).decode()
        assert "<text>a&lt;b &amp; c</text>" in text
        recovered = parse_bank(serialize_bank(bank))
        assert recovered.questions[0].name == "a<b & c"
        assert recovered.questions[0].payload.answers == ["a<b"]

    def test_control_characters_rejected_with_question_name(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("bell", "Q\x07?", ["a"])
        with pytest.raises(Exception) as err:
            serialize_bank(bank)
        assert "bell" in str(err.value)

    @pytest.mark.parametrize("char", ["\ufffe", "\uffff", "\ud800"])
    def test_other_unencodable_characters_rejected(self, make_bank, char):
        bank = make_bank()
        bank.addShortAnswer("ok", "Fine?", ["a"])
        bank.addMultipleChoice("odd", "Q?", ["a", f"b{char}", "c"])
        with pytest.raises(QuizbankError, match="question 'odd' contains"):
            serialize_bank(bank)

    def test_bad_category_is_named(self, make_bank):
        bank = make_bank()
        bank.setCategory("A\x01B")
        bank.addShortAnswer("plain", "Q?", ["a"])
        with pytest.raises(QuizbankError) as err:
            bank.close()
        assert str(err.value) == (
            "category 'A\\x01B' contains control character '\\x01', "
            "which XML cannot encode"
        )
        assert not bank.closed
        assert list(bank.output_path.parent.iterdir()) == []

    def test_first_bad_question_is_named(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a\x02"])
        bank.addShortAnswer("later", "Q\x03?", ["a"])
        with pytest.raises(QuizbankError, match="question 'question #1'"):
            serialize_bank(bank)


def _xml_illegal(text):
    """Reference rule, one character at a time: what XML 1.0 cannot carry
    (CR included, since parsers turn it into LF)."""
    return any(
        (ord(ch) < 0x20 and ch not in "\t\n")
        or 0xD800 <= ord(ch) <= 0xDFFF
        or ch in "\ufffe\uffff"
        for ch in text
    )


# Any code point, surrogates included, with the illegal ones drawn often.
_ANY_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from("\x00\x07\t\n\r\x1f\ud800\udfff\ufffd\ufffe\uffff"),
    )
)
# Category paths the builders accept (no empty segment). The parser strips
# the marker text, so a legal path ending in whitespace does not round-trip;
# that known gap is kept out of this property.
_CATEGORY = (
    st.lists(_ANY_TEXT.filter(lambda t: t and "/" not in t), max_size=3)
    .map("/".join)
    .filter(lambda path: _xml_illegal(path) or path == path.rstrip())
)


_LEGAL_BYTES = bytes(c for c in range(256) if c >= 0x20 or c in b"\t\n")


def _reference_xml_legal(text, data):
    """The legality scan as it was: delete every legal byte of 64 KiB slices."""
    slices = (data[start:start + 65536] for start in range(0, len(data), 65536))
    controls = any(piece.translate(None, _LEGAL_BYTES) for piece in slices)
    return not (controls or "\ufffe" in text or "\uffff" in text)


class TestXmlLegalScan:
    """moodle_xml._xml_legal agrees with the reference scan."""

    SLICE = 1 << 18  # the length of the stretch the scan searches at a time

    @pytest.mark.parametrize("code", range(0x20))
    def test_every_c0_control_anywhere(self, code):
        data = b"a" * (self.SLICE + 70000)
        ends = (0, 1, 65535, 65536, self.SLICE - 1, self.SLICE, self.SLICE + 1)
        for at in (*ends, len(data) - 1, len(data)):
            edited = data[:at] + bytes([code]) + data[at:]
            text = edited.decode()
            expected = _reference_xml_legal(text, edited)
            assert expected == (code in b"\t\n")
            assert moodle_xml._xml_legal(text, edited) is expected
            assert moodle_xml._xml_legal(text, bytearray(edited)) is expected

    @settings(max_examples=150, deadline=None)
    @given(
        pieces=st.lists(
            st.sampled_from(["a", "é", "中", "\t", "\n", "\x00", "\x0b", "\x1f", "\r", "\x7f"])
            | st.sampled_from(["\ufffe", "\uffff", "\U0001f600"]),
            max_size=8,
        ),
        size=st.sampled_from([0, 1000, 65535, (1 << 18) - 2, 1 << 18, (1 << 18) + 65537]),
        where=st.lists(st.floats(0, 1), max_size=8),
    )
    def test_agrees_with_reference(self, pieces, size, where):
        text = "x" * size
        for piece, at in zip(pieces, where):
            at = int(at * len(text))
            text = text[:at] + piece + text[at:]
        data = text.encode()
        assert moodle_xml._xml_legal(text, data) is _reference_xml_legal(text, data)


class TestEncodabilityProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        category=_CATEGORY,
        name=_ANY_TEXT,
        stem=_ANY_TEXT,
        choice=_ANY_TEXT,
        answer=_ANY_TEXT,
        prompt=_ANY_TEXT,
        match=_ANY_TEXT,
    )
    def test_rejects_exactly_illegal_text(
        self, category, name, stem, choice, answer, prompt, match
    ):
        bank = QuestionBank(None)
        bank.questions = [
            Question(
                QuestionKind.SHORT_ANSWER, name, stem, ShortAnswerSet([answer]), category
            ),
            Question(
                QuestionKind.MULTIPLE_CHOICE,
                "mc",
                "Q?",
                ChoiceSet([Choice("right", 100.0), Choice(choice, -100.0)]),
                category,
            ),
            Question(
                QuestionKind.MATCHING, "m", "Q?", MatchPairList([(prompt, match)]), category
            ),
        ]
        texts = [category, name, stem, choice, answer, prompt, match]
        if any(map(_xml_illegal, texts)):
            with pytest.raises(QuizbankError, match="which XML cannot encode") as err:
                serialize_bank(bank)
            owner = "category " if _xml_illegal(category) else "question "
            assert str(err.value).startswith(owner)
        else:
            data = serialize_bank(bank)
            assert serialize_bank(parse_bank(data)) == data


class TestRoundTrip:
    def test_parse_serialize_is_byte_identity(self, rich_bank):
        first = serialize_bank(rich_bank)
        second = serialize_bank(parse_bank(first))
        assert first == second

    def test_serialize_parse_preserves_structure(self, rich_bank):
        recovered = parse_bank(serialize_bank(rich_bank))
        assert questions_as_tuples(recovered) == questions_as_tuples(rich_bank)

    def test_round_trip_of_generated_bank(self, make_bank):
        bank = make_bank(seed=13)
        bank.setCategory("Generated")
        bank.addMultipleChoiceFromLists(
            "g", "Pick one:", ["a", "b", "c"], ["d", "e", "f", "g"], 7
        )
        first = serialize_bank(bank)
        assert serialize_bank(parse_bank(first)) == first

    def test_round_trip_keeps_fraction_grid(self, make_bank):
        bank = make_bank()
        bank.addMultipleChoice("", "Q?", ["x", "y", "z"])  # k=3 -> -50
        recovered = parse_bank(serialize_bank(bank))
        assert [c.fraction for c in recovered.questions[0].payload.choices] == [
            100.0,
            -50.0,
            -50.0,
        ]


# Unknown (LookupError), multi-byte (ValueError) and failing (UnicodeError)
# encodings, all of which expat gives up on before it reads an element.
_UNREADABLE_ENCODINGS = ["UF-8", "rot13", "shift_jis", "utf-32", "idna"]


class TestParse:
    def test_unsupported_type_skipped_with_warning(self):
        document = (
            '<?xml version="1.0" encoding="UTF-8"?>\n<quiz>\n'
            '  <question type="essay">\n'
            "    <name><text>write</text></name>\n"
            '    <questiontext format="html"><text>Discuss.</text></questiontext>\n'
            "  </question>\n"
            "  <comment>not a question</comment>\n"
            '  <question type="shortanswer">\n'
            "    <name><text>keep</text></name>\n"
            '    <questiontext format="html"><text>Q?</text></questiontext>\n'
            '    <answer fraction="100"><text>a</text></answer>\n'
            "  </question>\n"
            "</quiz>\n"
        )
        bank = parse_bank(document)
        assert [q.name for q in bank.questions] == ["keep"]
        assert any("essay" in w for w in bank.warnings)
        assert "ignoring unexpected element <comment>" in bank.warnings

    def test_multiselect_multichoice_skipped(self):
        document = (
            "<quiz>"
            '<question type="multichoice">'
            "<name><text>multi</text></name>"
            "<questiontext><text>Q?</text></questiontext>"
            "<single>false</single>"
            '<answer fraction="50"><text>a</text></answer>'
            '<answer fraction="50"><text>b</text></answer>'
            "</question></quiz>"
        )
        bank = parse_bank(document)
        assert bank.questions == []
        assert any("multi" in w for w in bank.warnings)

    def test_truncated_document_reports_position(self, rich_bank):
        data = serialize_bank(rich_bank)[:-40]
        with pytest.raises(BankParseError) as err:
            parse_bank(data)
        assert err.value.line is not None
        assert re.search(r"line \d+, column \d+", str(err.value))

    def test_first_name_text_and_missing_stem_text(self):
        # A <name> without <text> is passed over, as findtext("name/text") does.
        document = (
            "<quiz>"
            '<question type="shortanswer">'
            "<name><other>x</other></name>"
            "<name><text>second</text></name>"
            "<name><text>third</text></name>"
            "<questiontext><p>no text child</p></questiontext>"
            '<answer fraction="100"><text>a</text></answer>'
            "</question></quiz>"
        )
        question = parse_bank(document).questions[0]
        assert (question.name, question.stem) == ("second", "")
        assert question.payload.answers == ["a"]

    def test_lone_surrogate_in_str_is_parse_error(self):
        with pytest.raises(BankParseError) as err:
            parse_bank("<quiz>\udcff</quiz>")
        assert (err.value.line, err.value.column) == (1, 6)
        assert "not well-formed" in str(err.value)

    def test_wrong_root_rejected(self):
        with pytest.raises(BankParseError):
            parse_bank("<quizzes></quizzes>")

    @pytest.mark.parametrize("encoding", _UNREADABLE_ENCODINGS)
    def test_unreadable_encoding_is_parse_error(self, encoding):
        document = f'<?xml version="1.0" encoding="{encoding}"?>\n<quiz>\n</quiz>\n'
        with pytest.raises(BankParseError, match="unsupported encoding"):
            parse_bank(document.encode("ascii"))

    def test_category_markers_recovered(self, make_bank):
        bank = make_bank()
        bank.setCategory("A/B")
        bank.addShortAnswer("", "Q?", ["x"])
        recovered = parse_bank(serialize_bank(bank))
        assert recovered.questions[0].category == "A/B"
        # A marker under another of the course's top categories keeps that name.
        foreign = serialize_bank(bank).replace(b"$course$/top/A/B", b"$course$/Other/A/B")
        assert parse_bank(foreign).questions[0].category == "Other/A/B"

    def test_latex_stems_survive(self, make_bank):
        bank = make_bank()
        stem = "Solve \\( 3x^2+5x-2=0 \\) and $$\\sum_i x_i$$"
        bank.addNumerical("", stem, [1 / 3, -2.0], 0.01)
        recovered = parse_bank(serialize_bank(bank))
        assert recovered.questions[0].stem == stem
        assert recovered.questions[0].payload.answers == [1 / 3, -2.0]


def _foreign_question(qtype, body, name="n"):
    """A hand-written foreign bank of one question, which ElementTree reads."""
    return (
        f'<quiz><question type="{qtype}"><name><text>{name}</text></name>'
        f"<questiontext><text>Q?</text></questiontext>{body}</question></quiz>"
    )


class TestForeignPayloadRules:
    """What ElementTree makes of answers the writer never emits, spelled out."""

    def test_first_answer_tolerance_is_kept(self):
        bank = parse_bank(_foreign_question(
            "numerical",
            "<answer><text>1</text><tolerance>0.01</tolerance></answer>"
            "<answer><text>2</text><tolerance>1</tolerance></answer>",
        ))
        assert bank.questions[0].payload.tolerance == 0.01
        assert bank.warnings == [
            "question 'n': answers carry differing tolerances; keeping 0.01"
        ]

    def test_first_answer_without_tolerance_keeps_zero(self):
        bank = parse_bank(_foreign_question(
            "numerical",
            "<answer><text>1</text></answer>"
            "<answer><text>2</text><tolerance>0.5</tolerance></answer>",
        ))
        assert repr(bank.questions[0].payload.tolerance) == "0.0"
        assert bank.warnings == [
            "question 'n': answers carry differing tolerances; keeping 0.0"
        ]

    def test_numerical_answer_without_text_is_zero(self):
        bank = parse_bank(_foreign_question("numerical", "<answer><tolerance>1</tolerance></answer>"))
        assert [repr(value) for value in bank.questions[0].payload.answers] == ["0"]
        assert bank.warnings == []

    @pytest.mark.parametrize("answers", [
        "<answer><text>x</text><tolerance>1</tolerance></answer>"
        "<answer><text>2</text><tolerance>y</tolerance></answer>",
        "<answer><text>x</text><tolerance>y</tolerance></answer>",
    ], ids=["answer-order", "value-first"])
    def test_numbers_parse_in_answer_order_value_first(self, answers):
        with pytest.raises(BankParseError) as err:
            parse_bank(_foreign_question("numerical", answers))
        assert str(err.value) == "question #1: could not convert string to float: 'x'"

    def test_choice_without_fraction_or_text(self):
        bank = parse_bank(_foreign_question(
            "multichoice",
            '<answer><text>a</text></answer><answer fraction="100"></answer>',
        ))
        choices = bank.questions[0].payload.choices
        assert [(c.text, repr(c.fraction)) for c in choices] == [("a", "0.0"), ("", "100.0")]

    @pytest.mark.parametrize("single", ["0", " False "])
    def test_multi_select_spellings_are_skipped(self, single):
        bank = parse_bank(_foreign_question(
            "multichoice",
            f'<single>{single}</single><answer fraction="100"><text>a</text></answer>',
            name="multi",
        ))
        assert bank.questions == []
        assert bank.warnings == [
            "skipping multi-select multiple-choice question 'multi' "
            "(only single-answer questions are supported)"
        ]

    def test_missing_match_and_short_answer_texts(self):
        matching = parse_bank(_foreign_question(
            "matching",
            "<subquestion><text>p</text></subquestion>"
            "<subquestion><text>q</text><answer><text>b</text></answer></subquestion>",
        ))
        assert matching.questions[0].payload.pairs == [("p", ""), ("q", "b")]
        short = parse_bank(_foreign_question(
            "shortanswer", '<answer fraction="100"></answer><answer><text>a</text></answer>'
        ))
        assert short.questions[0].payload.answers == ["", "a"]


class TestRepeatedRoundTrips:
    def test_three_cycles_are_stable(self, make_bank):
        bank = build_rich_bank(make_bank(seed=3))
        data = serialize_bank(bank)
        for _ in range(3):
            bank = parse_bank(data)
            next_data = serialize_bank(bank)
            assert next_data == data
            data = next_data


def _outcome(data):
    """What parse_bank gives for data: the questions (by repr, so that 3 and
    3.0 differ), category and warnings, or the exception it raises."""
    try:
        bank = parse_bank(data)
    except Exception as exc:  # compared, not handled
        return (type(exc).__name__, str(exc))
    return ([repr(q) for q in bank.questions], bank.category, bank.warnings)


def _reference_outcome(data):
    """The same, read by ElementTree alone."""
    with mock.patch.object(moodle_xml, "_parse_own_layout", side_effect=ValueError):
        return _outcome(data)


def _every_feature_bank():
    bank = QuestionBank(None)
    bank.addShortAnswer("a<b & c>d", "Plain?", ["x&y", "<tag>", "1 > 0", "&amp;", 'say "hi"'])
    bank.setCategory('Algebra/Roots & <Powers> "R"')
    bank.addNumerical("roots", "Solve \\(2x^2+4x-30=0\\)", [3, -5, 0.5, -1e-07], 0.01)
    bank.addMultipleChoice("cdata", "Is x]]>y <b>bold</b>?", ["a]]>b", "]]>", "c]", "d"])
    bank.setCategory("")
    bank.addMatching(
        "pairs",
        "Line one\nline two $$\\sum_i x_i$$",
        [("p]]>q", "m&n"), ("multi\nline", "<i>"), ("r", "a\nb"), ('"q"', '"x" > y')],
    )
    bank.setCategory("Topic")
    bank.addNumerical('"negative"', "Temperature?", [-40], 0)
    return bank


class TestOwnLayoutReader:
    def test_writer_output_read_without_elementtree(self, monkeypatch):
        bank = _every_feature_bank()
        data = serialize_bank(bank)
        expected = _reference_outcome(data)

        def refuse(*args, **kwargs):
            raise AssertionError("ElementTree read a document in the writer's layout")

        monkeypatch.setattr(ET, "XMLParser", refuse)
        recovered = parse_bank(data)
        assert [repr(q) for q in recovered.questions] == [repr(q) for q in bank.questions]
        assert (recovered.category, recovered.warnings) == ("Topic", [])
        assert _outcome(data) == expected
        assert serialize_bank(recovered) == data
        for form in (data.decode("utf-8"), bytearray(data)):
            assert _outcome(form) == expected
        empty = parse_bank(serialize_bank(QuestionBank(None)))
        assert (empty.questions, empty.category) == ([], "")

    def test_long_bracket_runs_read_directly(self, monkeypatch):
        """A ~1 MiB choice text and a ~1 MiB matching prompt of "]", "]]" and
        "]]>" runs: the direct reader takes them in time and memory linear in
        the text (a body pattern that backtracks, or keeps state per "]",
        would hang or blow up here), and ElementTree is never called."""
        rng = random.Random(0)
        choice, prompt = ("".join(rng.choices(["]", "]]", "]]>"], k=1 << 19)) for _ in "ab")
        bank = QuestionBank(None)
        bank.addMultipleChoice("choice", "Which?", [choice, "b"])
        bank.addMatching("pairs", "Match", [(prompt, "x"), ("p", "y")])
        data = serialize_bank(bank)

        def refuse(*args, **kwargs):
            raise AssertionError("ElementTree read a document in the writer's layout")

        monkeypatch.setattr(ET, "XMLParser", refuse)
        text = data.decode("utf-8")
        tracemalloc.start()
        try:
            recovered = moodle_xml._parse_own_layout(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(data)
        assert serialize_bank(recovered) == data
        assert serialize_bank(parse_bank(data)) == data
        # A long choice whose end was hand-edited: the reader gives up in linear time.
        bank.questions[0].payload.choices[0].text = "x" * (1 << 20) + "]"
        edited = serialize_bank(bank).replace(b"]]></text>\n    </answer>", b"]]></text></answer>")
        with pytest.raises(ValueError):
            moodle_xml._parse_own_layout(edited.decode("utf-8"))

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d.replace(b"\n  ", b"\n   "),
            lambda d: d.replace(b"\n", b"\r\n"),
            lambda d: d.replace(b"Plain?", b"Pl\rain?"),
            lambda d: d.replace(b"Plain?", b"Pl\x01ain?"),
            lambda d: d.replace(b"<text>a&lt;b", b"<text>&quot;a&lt;b"),
            lambda d: d.replace(b"&amp;", b"&#38;"),
            lambda d: d.replace(b"<![CDATA[Plain", b"<![CDATA[a]]>b<![CDATA[Plain"),
            lambda d: d.replace(b"<tolerance>0.01</tolerance>", b"<tolerance>1</tolerance>", 1),
            lambda d: b"\xef\xbb\xbf" + d,
            lambda d: d + b"<!-- trailing -->\n",
            lambda d: d.replace(  # a hand-edited tail of the first matching pair
                b"</text>\n      </answer>\n    </subquestion>",
                b"</text></answer>\n    </subquestion>",
                1,
            ),
        ],
        ids=[
            "reindented", "crlf", "cr", "control", "quot", "char-ref", "cdata-sections",
            "tolerances", "bom", "trailing", "matching-tail",
        ],
    )
    def test_other_layouts_read_by_elementtree(self, monkeypatch, change):
        data = change(serialize_bank(_every_feature_bank()))
        expected = _reference_outcome(data)
        calls = []
        real = ET.XMLParser

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ET, "XMLParser", counted)
        assert _outcome(data) == expected
        assert calls == [1]


# XML-legal text, with the writer's hazards drawn often.
_LEGAL_TEXT = st.lists(
    st.one_of(
        st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff"),
        st.sampled_from(
            ["]]>", "]", "]]", ">", "<", "&", "&amp;", "&lt;", '"', "\n", "\t", " ", "\x85"]
            + ["<b>x</b>", "\\(x^2\\)", "$$", "]]]]><![CDATA[>", "</text>"]
        ),
    ),
    max_size=6,
).map("".join)
# "]"-rich text: the CDATA fields' terminator, the writer's split of it, and
# near misses of both, in runs that merge.
_BRACKET_TEXT = st.lists(
    st.sampled_from(["]", "]]", "]]>", ">", "<![CDATA[", "]]]]><![CDATA[>", "a"]), max_size=30
).map("".join)
_HTML_TEXT = _LEGAL_TEXT | _BRACKET_TEXT
_NUMBER = st.one_of(
    st.integers(-(10**20), 10**20), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _question(draw):
    kind = draw(st.sampled_from(list(QuestionKind)))
    if kind is QuestionKind.SHORT_ANSWER:
        payload = ShortAnswerSet(draw(st.lists(_LEGAL_TEXT, max_size=3)))
    elif kind is QuestionKind.NUMERICAL:
        payload = NumericalAnswerSet(draw(st.lists(_NUMBER, max_size=3)), draw(_NUMBER))
    elif kind is QuestionKind.MULTIPLE_CHOICE:
        fractions = st.floats(-100, 100)
        choices = draw(st.lists(st.builds(Choice, _HTML_TEXT, fractions), max_size=4))
        payload = ChoiceSet(choices)
    else:
        pairs = st.lists(st.tuples(_HTML_TEXT, _LEGAL_TEXT), max_size=3)
        payload = MatchPairList(draw(pairs))
    categories = ["", "A", "A/B", "A//B", "$system$/top/Shared", "$module$/top/M", "$course$/X"]
    category = draw(st.one_of(st.sampled_from(categories), _LEGAL_TEXT))
    return Question(kind, draw(_HTML_TEXT), draw(_HTML_TEXT), payload, category)


def _writer_output(questions):
    bank = QuestionBank(None)
    bank.questions = questions
    return serialize_bank(bank)


# Departures from the writer's layout, each also applied where it may not occur.
_EDITS = [
    lambda d: d.replace(b"\n", b"\r\n"),
    lambda d: b"\xef\xbb\xbf" + d,
    lambda d: d.replace(b"\n    <", b"\n     <"),
    lambda d: d.replace(b"&amp;", b"&#38;"),
    lambda d: d.replace(b"<text>", b"<text>&quot;", 1),
    lambda d: d.replace(b"]]></text>", b"\x01]]></text>", 1),
    lambda d: d.replace(b"</text>", b"\r</text>", 1),
    lambda d: d.replace(b"<![CDATA[", b"<![CDATA[a]]>b<![CDATA[", 1),
    lambda d: d.replace(b"</tolerance>", b"1</tolerance>", 1),
    lambda d: d.replace(b"<single>true", b"<single>false", 1),
    lambda d: d.replace(b'type="numerical"', b'type="essay"', 1),
    lambda d: d.replace(b'fraction="100"', b'fraction="lots"', 1),
    lambda d: d + b"\n",
    lambda d: d + b"x",
    lambda d: d.replace(b"<text>$course$/top", b"<text>$system$/top", 1),
    lambda d: d.replace(b"<text>$course$/top", b"<text>$module$/top", 1),
    lambda d: d.replace(b"<text>$course$/top/", b"<text>$course$/", 1),
    lambda d: re.sub(rb"<text>\$course\$/top[^<]*", b"<text>$course$", d, count=1),
]


class TestReaderDifferential:
    """parse_bank's direct reader and ElementTree give the same bank, or
    the same error, for writer output and for departures from it."""

    @settings(max_examples=120, deadline=None)
    @given(questions=st.lists(_question(), max_size=4))
    def test_writer_output(self, questions):
        data = _writer_output(questions)
        direct = moodle_xml._parse_own_layout(data.decode("utf-8"))  # must not fall back
        expected = _reference_outcome(data)
        assert ([repr(q) for q in direct.questions], direct.category, []) == expected
        for form in (data, data.decode("utf-8"), bytearray(data)):
            assert _outcome(form) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        questions=st.lists(_question(), max_size=3),
        edit=st.sampled_from(["insert", "delete", "replace"] + list(range(len(_EDITS)))),
        where=st.floats(0, 1, exclude_max=True),
        byte=st.sampled_from(b"\x00\t\n\r &<>]\"'/=?!ax\x80\xc3\xa9\xef"),
    )
    def test_mutated_writer_output(self, questions, edit, where, byte):
        data = _writer_output(questions)
        at = int(where * len(data))
        if edit == "insert":
            data = data[:at] + bytes([byte]) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + 1:]
        elif edit == "replace":
            data = data[:at] + bytes([byte]) + data[at + 1:]
        else:
            data = _EDITS[edit](data)
        expected = _reference_outcome(data)
        assert _outcome(data) == expected
        assert _outcome(bytearray(data)) == expected
