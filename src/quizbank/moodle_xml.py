"""Question-bank documents in the Moodle XML import/export dialect.

The writer produces a fully deterministic layout: serializing equal banks
always yields identical bytes, and any document this module emitted
parses back to a bank that serializes to the same bytes again. HTML-rich
text (stems, choice texts, matching prompts) is wrapped in CDATA so that
embedded markup and base64 data URIs stay readable; plain text nodes are
entity-escaped instead.

The parser also accepts documents from other tools as long as they are
well-formed and use the same dialect; question types outside the
supported set are skipped with a warning so that maintenance tooling can
operate on mixed banks.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

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

_SUPPORTED_TYPES = {kind.value for kind in QuestionKind}

# XML 1.0 cannot carry the C0 controls but tab and LF (a parser turns CR into
# LF, breaking byte-exact round-trips), U+FFFE, U+FFFF or lone surrogates. The
# surrogates fail the UTF-8 encode; the rest appear as these byte sequences.
_UNENCODABLE_BYTES = [bytes([c]) for c in range(0x20) if c not in b"\t\n"]
_UNENCODABLE_BYTES += [b"\xef\xbf\xbe", b"\xef\xbf\xbf"]
_UNENCODABLE = re.compile("[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]")


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
    try:
        data = "\n".join(lines).encode("utf-8")
    except UnicodeEncodeError:
        raise _unencodable_error(bank) from None
    # One C-speed scan of the whole document; only a hit walks the questions.
    if any(sequence in data for sequence in _UNENCODABLE_BYTES):
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
            current_category = _parse_category(element)
            continue
        number += 1
        if qtype not in _SUPPORTED_TYPES:
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
            lines.append(
                f"      <text><![CDATA[{escape_for_cdata(choice.text)}]]></text>"
            )
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
            found = _UNENCODABLE.search(text)
            if found:
                what = "control character" if found[0] < " " else "character"
                return QuizbankError(
                    f"{owner} contains {what} {found[0]!r}, which XML cannot encode"
                )
    return QuizbankError("the bank holds a character XML cannot encode")


# -- parser ---------------------------------------------------------------


def _parse_category(element) -> str:
    raw = (element.findtext("category/text") or "").strip()
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
        return Question(
            QuestionKind.NUMERICAL, name, stem, NumericalAnswerSet(values, tolerance)
        )
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
