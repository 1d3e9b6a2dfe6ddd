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

import functools
import io
import re

from .bank import QuestionBank
from .errors import BankParseError
from .fileio import utf8_chunks
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
    unencodable_error,
)

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

# The writer's layout, block by block, in literal pieces: "%s" marks an
# entity-escaped field (between quotes, an attribute value) and each boundary
# between two pieces of a block a CDATA field. serialize_bank writes these
# pieces; _parse_own_layout reads them back.
_DOCUMENT = ('<?xml version="1.0" encoding="UTF-8"?>\n<quiz>\n', "</quiz>\n")
_CATEGORY = (
    '  <question type="category">\n    <category>\n      <text>%s</text>\n'
    "    </category>\n  </question>\n"
)
_QUESTION = (
    '  <question type="%s">\n    <name>\n      <text>%s</text>\n    </name>\n'
    '    <questiontext format="html">\n      <text><![CDATA[',
    "]]></text>\n    </questiontext>\n",
)
_QUESTION_END = "  </question>\n"
# What follows each type's stem: the end of its CDATA, then its fixed elements.
_SHUFFLE = "    <shuffleanswers>true</shuffleanswers>\n"
_STEM_CLOSE = {
    "shortanswer": _QUESTION[1] + "    <usecase>0</usecase>\n",
    "numerical": _QUESTION[1],
    "multichoice": _QUESTION[1] + "    <single>true</single>\n" + _SHUFFLE
    + "    <answernumbering>none</answernumbering>\n",
    "matching": _QUESTION[1] + _SHUFFLE,
}
# Each type's block per answer, choice or pair.
_ANSWER = '    <answer fraction="100">\n      <text>%s</text>\n'
_SHORT_ANSWER = _ANSWER + "    </answer>\n"
_NUMERICAL_ANSWER = _ANSWER + "      <tolerance>%s</tolerance>\n    </answer>\n"
_CHOICE = (
    '    <answer fraction="%s" format="html">\n      <text><![CDATA[',
    "]]></text>\n    </answer>\n",
)
_SUBQUESTION = (
    '    <subquestion format="html">\n      <text><![CDATA[',
    "]]></text>\n      <answer>\n        <text>%s</text>\n      </answer>\n    </subquestion>\n",
)


# A pair's CDATA prompt ends where its escaped match begins.
_MATCH_CLOSE = _SUBQUESTION[1].partition("%s")[0]
# The reader's patterns, compiled on first use (a build never reads a bank): an
# attribute field reads [^"<>]*, so it cannot backtrack over its line; other
# fields read [^<>]* (_unescape checks entities).
_READERS = [
    re.escape(piece).replace('"%s"', '"([^"<>]*)"').replace("%s", "([^<>]*)")
    for piece in (_CATEGORY, _QUESTION[0], _SHORT_ANSWER, _NUMERICAL_ANSWER, _CHOICE[0],
                  _SUBQUESTION[1][len(_MATCH_CLOSE):])
]


def escape_for_cdata(text: str) -> str:
    """Make text safe inside a CDATA section.

    The only hazard is the terminator "]]>", which is split across two
    adjacent CDATA sections; everything else (including LaTeX delimiters
    and raw HTML) passes through byte-identical.
    """
    return text.replace("]]>", "]]]]><![CDATA[>")


def escape_xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@functools.lru_cache(maxsize=256)  # a bank repeats a few fractions in every question
def format_fraction(value) -> str:
    """Grade percentage as emitted in fraction attributes: 5-decimal grid."""
    rounded = round(float(value), 5)
    if rounded == 0:
        return "0"
    return f"{rounded:.5f}".rstrip("0").rstrip(".")


def serialize_bank(bank) -> bytes:
    """Emit a bank as Moodle XML bytes (UTF-8, LF line endings); raise
    QuizbankError naming any question or category XML cannot encode."""
    # A BytesIO grows in place and hands over its buffer uncopied: unlike a
    # join, it never holds the document beside a list of all its chunks.
    out = io.BytesIO()
    out.writelines(serialize_chunks(bank))
    return out.getvalue()


def serialize_chunks(bank):
    """serialize_bank's document as UTF-8 chunks (fileio.utf8_chunks). Each is
    scanned first, so the QuizbankError may follow good chunks."""
    fail = functools.partial(unencodable_error, bank, _UNENCODABLE, "XML")
    return utf8_chunks(_document_blocks(bank), fail, _xml_legal)


def parse_bank(data) -> QuestionBank:
    """Parse Moodle XML bytes back into a QuestionBank.

    The returned bank has no output path (supply one before close()).
    Unsupported question types are skipped with a warning on the bank;
    malformed XML raises BankParseError with the reported line/column and
    leaves no partial bank behind, as does a number or fraction that does
    not parse, naming the question's position.
    """
    if isinstance(data, str):  # a lone surrogate then fails to decode, and expat names it
        data = data.encode("utf-8", "surrogatepass")
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = ""
        if text.startswith(_DOCUMENT[0]) and _xml_legal(text, data):
            del data  # frees the bytes of a temporary argument (CPython 3.11+) while parsing
            try:
                return _parse_own_layout(text)
            except ValueError:
                # Not the writer's layout byte for byte: ElementTree reads the text.
                data = text  # decoded strictly and declared UTF-8: expat sees the same bytes
        text = None  # ElementTree needs only data
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
    except (LookupError, ValueError) as exc:  # an encoding expat cannot read
        raise BankParseError(f"unsupported encoding: {exc}") from exc
    if root.tag != "quiz":
        raise BankParseError(f"expected <quiz> root element, found <{root.tag}>")

    bank = QuestionBank(output_path=None)
    number = 0
    for element in root:
        if element.tag != "question":
            bank.warn(f"ignoring unexpected element <{element.tag}>")
            continue
        qtype = element.get("type", "")
        if qtype == "category":
            bank.category = _category_path(element.findtext("category/text") or "")
            continue
        number += 1
        if qtype not in _KINDS:
            bank.warn(f"skipping unsupported question type '{qtype}'")
            continue
        name = element.findtext("name/text") or ""
        try:
            payload = _parse_payload(element, qtype, name, bank)
        except ValueError as exc:
            raise BankParseError(f"question #{number}: {exc}") from exc
        if payload is not None:
            stem = element.findtext("questiontext/text") or ""
            bank.questions.append(Question(_KINDS[qtype], name, stem, payload, bank.category))
    return bank


# -- writer ---------------------------------------------------------------


def _document_blocks(bank):
    """The document as one list of str pieces per question."""
    yield [_DOCUMENT[0]]
    emitted_category = ""  # the importer's default until a marker says otherwise
    for question in bank.questions:
        parts = []
        if question.category != emitted_category:
            emitted_category = question.category
            marker = CATEGORY_PREFIX + (f"/{emitted_category}" if emitted_category else "")
            parts.append(_CATEGORY % escape_xml_text(marker))
        _emit_question(parts, question)
        yield parts
    yield [_DOCUMENT[1]]


def _emit_question(parts, question) -> None:
    # Each CDATA text is an item of its own, so no join copies a long one.
    kind = question.kind.value
    head = _QUESTION[0] % (kind, escape_xml_text(question.name))
    parts += (head, escape_for_cdata(question.stem), _STEM_CLOSE[kind])
    payload = question.payload
    if kind == "shortanswer":
        parts += [_SHORT_ANSWER % escape_xml_text(answer) for answer in payload.answers]
    elif kind == "numerical":
        tolerance = canonical_number(payload.tolerance)
        parts += [_NUMERICAL_ANSWER % (canonical_number(a), tolerance) for a in payload.answers]
    elif kind == "multichoice":
        for choice in payload.choices:
            fraction = format_fraction(choice.fraction)
            parts += (_CHOICE[0] % fraction, escape_for_cdata(choice.text), _CHOICE[1])
    else:
        for prompt, match in payload.pairs:
            match = _SUBQUESTION[1] % escape_xml_text(match)
            parts += (_SUBQUESTION[0], escape_for_cdata(prompt), match)
    parts.append(_QUESTION_END)


def _xml_legal(text: str, data) -> bool:
    """Whether text, encoded as data, holds only characters XML can carry.
    One pass over 64 KiB slices of the bytes, each deleting all legal bytes
    into a small scratch result, finds C0 controls; U+FFFE/U+FFFF are sought
    in the str, where the search is free unless it holds such wide characters.
    """
    slices = (data[start:start + 65536] for start in range(0, len(data), 65536))
    controls = any(piece.translate(None, _LEGAL_BYTES) for piece in slices)
    return not (controls or "\ufffe" in text or "\uffff" in text)


# -- parser ---------------------------------------------------------------


def _parse_own_layout(text: str) -> QuestionBank:
    """Read a legal text that starts like serialize_bank's; raise ValueError at
    the first character off its layout, so that ElementTree reads it instead."""
    # re caches compiled patterns, so only the first parse compiles these.
    read_category, read_head, read_short, read_numerical, read_choice, read_match = (
        re.compile(pattern).match for pattern in _READERS
    )
    bank = QuestionBank(output_path=None)
    pos = len(_DOCUMENT[0])
    while not text.startswith(_DOCUMENT[1], pos):
        head = read_head(text, pos)
        if head is None or head[1] not in _STEM_CLOSE:  # a category, or no type of ours
            block = read_category(text, pos)
            if block is None:
                raise ValueError("not the writer's layout")
            bank.category = _category_path(_unescape(block[1]))
            pos = block.end()
            continue
        kind = head[1]
        stem, pos = _cdata(text, head.end(), _STEM_CLOSE[kind])
        if kind == "shortanswer":
            answers = []
            while item := read_short(text, pos):
                answers.append(_unescape(item[1]))
                pos = item.end()
            payload = ShortAnswerSet(answers)
        elif kind == "numerical":
            values, tolerances = [], set()
            while item := read_numerical(text, pos):
                values.append(parse_number(_unescape(item[1])))
                tolerances.add(item[2])
                pos = item.end()
            if len(tolerances) > 1:  # ElementTree's path warns about these
                raise ValueError("differing tolerances")
            tolerance = parse_number(_unescape(tolerances.pop())) if tolerances else 0.0
            payload = NumericalAnswerSet(values, tolerance)
        elif kind == "multichoice":
            choices = []
            while item := read_choice(text, pos):
                choice, pos = _cdata(text, item.end(), _CHOICE[1])
                choices.append(Choice(choice, float(item[1])))
            payload = ChoiceSet(choices)
        else:
            pairs = []
            while text.startswith(_SUBQUESTION[0], pos):
                prompt, pos = _cdata(text, pos + len(_SUBQUESTION[0]), _MATCH_CLOSE)
                if (item := read_match(text, pos)) is None:
                    raise ValueError("not the writer's layout")
                pairs.append((prompt, _unescape(item[1])))
                pos = item.end()
            payload = MatchPairList(pairs)
        if not text.startswith(_QUESTION_END, pos):
            raise ValueError("not the writer's layout")
        pos += len(_QUESTION_END)
        question = Question(_KINDS[kind], _unescape(head[2]), stem, payload, bank.category)
        bank.questions.append(question)
    if pos + len(_DOCUMENT[1]) != len(text):
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


def _parse_payload(element, qtype, name, bank):
    """A supported foreign question's payload; None for a skipped multi-select one."""
    answers = element.findall("answer")
    if qtype == QuestionKind.SHORT_ANSWER.value:
        return ShortAnswerSet([ans.findtext("text") or "" for ans in answers])
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
        return NumericalAnswerSet(values, tolerance)
    if qtype == QuestionKind.MULTIPLE_CHOICE.value:
        single = (element.findtext("single") or "true").strip().lower()
        if single in ("false", "0"):
            bank.warn(
                f"skipping multi-select multiple-choice question {name!r} "
                "(only single-answer questions are supported)"
            )
            return None
        return ChoiceSet([
            Choice(ans.findtext("text") or "", float(ans.get("fraction", "0")))
            for ans in answers
        ])
    # Matching, the last of the supported types parse_bank lets through.
    return MatchPairList([
        (sub.findtext("text") or "", sub.findtext("answer/text") or "")
        for sub in element.findall("subquestion")
    ])
