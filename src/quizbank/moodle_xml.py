"""Question-bank documents in the Moodle XML import/export dialect.

The writer produces a fully deterministic layout: serializing equal banks
always yields identical bytes, and any document this module emitted
parses back to a bank that serializes to the same bytes again. HTML-rich
text (stems, choice texts, matching prompts) is wrapped in CDATA so that
embedded markup and base64 data URIs stay readable; plain text nodes are
entity-escaped instead.

The parser reads a document in the writer's own layout with a direct scan
of that layout. It also accepts documents from other tools, through
ElementTree, as long as they are well-formed and use the same dialect;
question types outside the supported set are skipped with a warning so
that maintenance tooling can operate on mixed banks.
"""

from __future__ import annotations

import re

from .bank import QuestionBank
from .errors import BankParseError, QuizbankError
from .model import (
    Choice,
    ChoiceSet,
    MatchPairList,
    NumericalAnswerSet,
    Question,
    QuestionKind,
    ShortAnswerSet,
    canonical_number,
    parse_number,
)

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'

# Category markers use the course-relative form understood by Moodle 3.x
# importers; the bank-level path "A/B" becomes "$course$/top/A/B".
CATEGORY_PREFIX = "$course$/top"

_KINDS = {kind.value: kind for kind in QuestionKind}

# XML 1.0 cannot carry the C0 controls but tab and LF (a parser turns CR into
# LF, breaking byte-exact round-trips), U+FFFE, U+FFFF or lone surrogates.
# Only a failing write searches for them, so re compiles this on first use.
_UNENCODABLE = "[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]"
# Every byte but those C0 controls: deleting these leaves the illegal ones.
_LEGAL_BYTES = bytes(c for c in range(256) if c >= 0x20 or c in b"\t\n")

# The writer's layout as _parse_own_layout reads it back: escaped text is
# [^<>]* (_unescape checks its entities), CDATA text is read by _cdata.
_OWN_HEAD = XML_DECLARATION + "\n<quiz>\n"
_CATEGORY_BLOCK = re.compile(
    '  <question type="category">\n    <category>\n      <text>([^<>]*)</text>\n'
    "    </category>\n  </question>\n"
)
_QUESTION_HEAD = re.compile(
    '  <question type="(shortanswer|numerical|multichoice|matching)">\n    <name>\n'
    '      <text>([^<>]*)</text>\n    </name>\n    <questiontext format="html">\n'
    r"      <text><!\[CDATA\["
)
# What follows each kind's stem: the end of its CDATA, then its fixed elements.
_STEM_CLOSE = {
    kind: "]]></text>\n    </questiontext>\n" + fixed
    for kind, fixed in [
        ("shortanswer", "    <usecase>0</usecase>\n"),
        ("numerical", ""),
        (
            "multichoice",
            "    <single>true</single>\n    <shuffleanswers>true</shuffleanswers>\n"
            "    <answernumbering>none</answernumbering>\n",
        ),
        ("matching", "    <shuffleanswers>true</shuffleanswers>\n"),
    ]
}
_ANSWER = '    <answer fraction="100">\n      <text>([^<>]*)</text>\n'
_SHORT_ANSWER = re.compile(_ANSWER + "    </answer>\n")
_NUMERICAL_ANSWER = re.compile(_ANSWER + "      <tolerance>([^<>]*)</tolerance>\n    </answer>\n")
_CHOICE = re.compile(r'    <answer fraction="([^"<&]*)" format="html">\n      <text><!\[CDATA\[')
_SUBQUESTION = '    <subquestion format="html">\n      <text><![CDATA['
_MATCH = re.compile("([^<>]*)</text>\n      </answer>\n    </subquestion>\n")


def escape_for_cdata(text: str) -> str:
    """Make text safe inside a CDATA section.

    The only hazard is the terminator "]]>", which is split across two
    adjacent CDATA sections; everything else (including LaTeX delimiters
    and raw HTML) passes through byte-identical.
    """
    return text.replace("]]>", "]]]]><![CDATA[>")


def escape_xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def format_fraction(value) -> str:
    """Grade percentage as emitted in fraction attributes: 5-decimal grid."""
    rounded = round(float(value), 5)
    if rounded == 0:
        return "0"
    return f"{rounded:.5f}".rstrip("0").rstrip(".")


def serialize_bank(bank) -> bytes:
    """Emit a bank as Moodle XML bytes (UTF-8, LF line endings); raise
    QuizbankError naming any question or category XML cannot encode."""
    lines = [XML_DECLARATION, "<quiz>"]
    emitted_category = ""  # the importer's default until a marker says otherwise
    for question in bank.questions:
        if question.category != emitted_category:
            emitted_category = question.category
            _emit_category(lines, emitted_category)
        _emit_question(lines, question)
    lines.append("</quiz>\n")  # ends the join with a newline, without a copy
    text = "\n".join(lines)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        raise _unencodable_error(bank) from None
    # One scan of the whole document; only a hit walks the questions.
    if not _xml_legal(text, data):
        raise _unencodable_error(bank)
    return data


def parse_bank(data) -> QuestionBank:
    """Parse Moodle XML bytes back into a QuestionBank.

    The returned bank has no output path (supply one before close()).
    Unsupported question types are skipped with a warning on the bank;
    malformed XML raises BankParseError with the reported line/column and
    leaves no partial bank behind, as does a number or fraction that does
    not parse, naming the question's position.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray)):
        try:
            return _parse_own_layout(data)
        except ValueError:
            pass  # not the writer's layout byte for byte: ElementTree reads it
    import xml.etree.ElementTree as ET  # only other layouts pay for its import

    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise BankParseError(
            f"malformed XML at line {line}, column {column}: {exc.msg}",
            line=line,
            column=column,
        ) from exc
    if root.tag != "quiz":
        raise BankParseError(f"expected <quiz> root element, found <{root.tag}>")

    bank = QuestionBank(output_path=None)
    current_category = ""
    number = 0
    for element in root:
        if element.tag != "question":
            bank.warn(f"ignoring unexpected element <{element.tag}>")
            continue
        qtype = element.get("type", "")
        if qtype == "category":
            current_category = _category_path(element.findtext("category/text") or "")
            continue
        number += 1
        if qtype not in _KINDS:
            bank.warn(f"skipping unsupported question type '{qtype}'")
            continue
        try:
            question = _parse_question(element, qtype, bank)
        except ValueError as exc:
            raise BankParseError(f"question #{number}: {exc}") from exc
        if question is not None:
            question.category = current_category
            bank.questions.append(question)
    bank.category = current_category
    return bank


# -- writer ---------------------------------------------------------------


def _emit_category(lines, category_path) -> None:
    marker = CATEGORY_PREFIX if not category_path else f"{CATEGORY_PREFIX}/{category_path}"
    lines.append('  <question type="category">')
    lines.append("    <category>")
    lines.append(f"      <text>{escape_xml_text(marker)}</text>")
    lines.append("    </category>")
    lines.append("  </question>")


def _emit_question(lines, question) -> None:
    lines.append(f'  <question type="{question.kind.value}">')
    lines.append("    <name>")
    lines.append(f"      <text>{escape_xml_text(question.name)}</text>")
    lines.append("    </name>")
    lines.append('    <questiontext format="html">')
    lines.append(f"      <text><![CDATA[{escape_for_cdata(question.stem)}]]></text>")
    lines.append("    </questiontext>")
    payload = question.payload
    if question.kind is QuestionKind.SHORT_ANSWER:
        lines.append("    <usecase>0</usecase>")
        for answer in payload.answers:
            lines.append('    <answer fraction="100">')
            lines.append(f"      <text>{escape_xml_text(answer)}</text>")
            lines.append("    </answer>")
    elif question.kind is QuestionKind.NUMERICAL:
        tolerance = canonical_number(payload.tolerance)
        for answer in payload.answers:
            lines.append('    <answer fraction="100">')
            lines.append(f"      <text>{canonical_number(answer)}</text>")
            lines.append(f"      <tolerance>{tolerance}</tolerance>")
            lines.append("    </answer>")
    elif question.kind is QuestionKind.MULTIPLE_CHOICE:
        lines.append("    <single>true</single>")
        lines.append("    <shuffleanswers>true</shuffleanswers>")
        lines.append("    <answernumbering>none</answernumbering>")
        for choice in payload.choices:
            fraction = format_fraction(choice.fraction)
            lines.append(f'    <answer fraction="{fraction}" format="html">')
            lines.append(f"      <text><![CDATA[{escape_for_cdata(choice.text)}]]></text>")
            lines.append("    </answer>")
    elif question.kind is QuestionKind.MATCHING:
        lines.append("    <shuffleanswers>true</shuffleanswers>")
        for prompt, match in payload.pairs:
            lines.append('    <subquestion format="html">')
            lines.append(f"      <text><![CDATA[{escape_for_cdata(prompt)}]]></text>")
            lines.append("      <answer>")
            lines.append(f"        <text>{escape_xml_text(match)}</text>")
            lines.append("      </answer>")
            lines.append("    </subquestion>")
    lines.append("  </question>")


def _xml_legal(text: str, data) -> bool:
    """Whether text, encoded as data, holds only characters XML can carry.
    One pass over the bytes finds C0 controls; U+FFFE/U+FFFF are sought in
    the str, where the search is free unless it holds such wide characters.
    """
    return not data.translate(None, _LEGAL_BYTES) and not ("\ufffe" in text or "\uffff" in text)


def _unencodable_error(bank) -> QuizbankError:
    """Name the first category or question, in document order, that holds
    a character XML cannot encode."""
    for index, question in enumerate(bank.questions, start=1):
        lines = []
        _emit_question(lines, question)
        for owner, text in (
            (f"category {question.category!r}", question.category),
            (f"question {question.name or f'question #{index}'!r}", "\n".join(lines)),
        ):
            found = re.search(_UNENCODABLE, text)
            if found:
                what = "control character" if found[0] < " " else "character"
                return QuizbankError(
                    f"{owner} contains {what} {found[0]!r}, which XML cannot encode"
                )
    return QuizbankError("the bank holds a character XML cannot encode")


# -- parser ---------------------------------------------------------------


def _parse_own_layout(data) -> QuestionBank:
    """Read a document in serialize_bank's exact layout, the inverse of
    _emit_category and _emit_question. Raise ValueError at the first byte
    that departs from it, so that ElementTree reads the document instead.
    """
    text = data.decode("utf-8")
    if not (_xml_legal(text, data) and text.startswith(_OWN_HEAD)):
        raise ValueError("not the writer's layout")
    bank = QuestionBank(output_path=None)
    pos = len(_OWN_HEAD)
    while not text.startswith("</quiz>\n", pos):
        head = _QUESTION_HEAD.match(text, pos)
        if head is None:
            block = _CATEGORY_BLOCK.match(text, pos)
            if block is None:
                raise ValueError("not the writer's layout")
            bank.category = _category_path(_unescape(block[1]))
            pos = block.end()
            continue
        kind = head[1]
        stem, pos = _cdata(text, head.end(), _STEM_CLOSE[kind])
        if kind == "shortanswer":
            answers = []
            while item := _SHORT_ANSWER.match(text, pos):
                answers.append(_unescape(item[1]))
                pos = item.end()
            payload = ShortAnswerSet(answers)
        elif kind == "numerical":
            values, tolerances = [], set()
            while item := _NUMERICAL_ANSWER.match(text, pos):
                values.append(parse_number(_unescape(item[1])))
                tolerances.add(item[2])
                pos = item.end()
            if len(tolerances) > 1:  # ElementTree's path warns about these
                raise ValueError("differing tolerances")
            tolerance = parse_number(_unescape(tolerances.pop())) if tolerances else 0.0
            payload = NumericalAnswerSet(values, tolerance)
        elif kind == "multichoice":
            choices = []
            while item := _CHOICE.match(text, pos):
                choice, pos = _cdata(text, item.end(), "]]></text>\n    </answer>\n")
                choices.append(Choice(choice, float(item[1])))
            payload = ChoiceSet(choices)
        else:
            pairs = []
            while text.startswith(_SUBQUESTION, pos):
                start = pos + len(_SUBQUESTION)
                prompt, pos = _cdata(text, start, "]]></text>\n      <answer>\n        <text>")
                if (item := _MATCH.match(text, pos)) is None:
                    raise ValueError("not the writer's layout")
                pairs.append((prompt, _unescape(item[1])))
                pos = item.end()
            payload = MatchPairList(pairs)
        if not text.startswith("  </question>\n", pos):
            raise ValueError("not the writer's layout")
        pos += len("  </question>\n")
        question = Question(_KINDS[kind], _unescape(head[2]), stem, payload, bank.category)
        bank.questions.append(question)
    if pos + len("</quiz>\n") != len(text):
        raise ValueError("trailing data")
    return bank


def _unescape(raw: str) -> str:
    """Inverse of escape_xml_text; ValueError on any other entity."""
    if "&" not in raw:
        return raw
    if raw.count("&") != raw.count("&amp;") + raw.count("&lt;") + raw.count("&gt;"):
        raise ValueError("foreign entity")
    return raw.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def _cdata(text: str, start: int, close: str):
    """Read the CDATA text from start up to close, its "]]></text>" and
    the tags after it; return the text and the position after close.

    escape_for_cdata's splits are undone. Any other "]]>", such as a
    "]]></text>" before close, ends the section elsewhere: ValueError.
    """
    stop = text.find(close, start)
    if stop < 0:
        raise ValueError("unterminated CDATA")
    raw = text[start:stop]
    if "]]>" in raw:
        parts = raw.split("]]]]><![CDATA[>")
        if any("]]>" in part for part in parts):
            raise ValueError("CDATA not split by the writer")
        raw = "]]>".join(parts)
    return raw, stop + len(close)


def _category_path(marker: str) -> str:
    raw = marker.strip()
    if raw == CATEGORY_PREFIX or raw.startswith(CATEGORY_PREFIX + "/"):
        raw = raw[len(CATEGORY_PREFIX):]
    elif raw.startswith("$course$/"):
        raw = raw[len("$course$/"):]
    # Collapse accidental empty segments from foreign files.
    return "/".join(segment for segment in raw.split("/") if segment)


def _parse_question(element, qtype, bank):
    children = {}
    for child in element:
        children.setdefault(child.tag, []).append(child)
    name = _first_text(children.get("name", ()))
    stem = _first_text(children.get("questiontext", ()))
    answers = children.get("answer", ())
    if qtype == QuestionKind.SHORT_ANSWER.value:
        answers = [ans.findtext("text") or "" for ans in answers]
        return Question(QuestionKind.SHORT_ANSWER, name, stem, ShortAnswerSet(answers))
    if qtype == QuestionKind.NUMERICAL.value:
        values = []
        tolerance = 0.0
        for position, ans in enumerate(answers):
            values.append(parse_number(ans.findtext("text") or "0"))
            tol_text = ans.findtext("tolerance")
            if tol_text is not None:
                parsed = parse_number(tol_text)
                if position == 0:
                    tolerance = parsed
                elif parsed != tolerance:
                    bank.warn(
                        f"question {name!r}: answers carry differing tolerances; "
                        f"keeping {tolerance}"
                    )
        return Question(QuestionKind.NUMERICAL, name, stem, NumericalAnswerSet(values, tolerance))
    if qtype == QuestionKind.MULTIPLE_CHOICE.value:
        singles = children.get("single")
        single = ((singles[0].text if singles else None) or "true").strip().lower()
        if single in ("false", "0"):
            bank.warn(
                f"skipping multi-select multiple-choice question {name!r} "
                "(only single-answer questions are supported)"
            )
            return None
        choices = [
            Choice(ans.findtext("text") or "", float(ans.get("fraction", "0")))
            for ans in answers
        ]
        return Question(QuestionKind.MULTIPLE_CHOICE, name, stem, ChoiceSet(choices))
    # Matching, the last of the supported types parse_bank lets through.
    pairs = [
        (sub.findtext("text") or "", _first_text(sub.findall("answer")))
        for sub in children.get("subquestion", ())
    ]
    return Question(QuestionKind.MATCHING, name, stem, MatchPairList(pairs))


def _first_text(elements) -> str:
    # findtext("<tag>/text") over these <tag> elements, minus the path parser.
    for element in elements:
        text = element.find("text")
        if text is not None:
            return text.text or ""
    return ""
