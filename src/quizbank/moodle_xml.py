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

import codecs
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
    format_fraction,
    parse_number,
    unencodable_error,
)

# Category markers use the course-relative form understood by Moodle 3.x
# importers; the bank-level path "A/B" becomes "$course$/top/A/B". A path in one of
# Moodle's other contexts (context_to_string in lib/questionlib.php) is its own marker.
CATEGORY_PREFIX = "$course$/top"
_OTHER_CONTEXTS = ("$system$", "$cat$", "$module$")

# XML 1.0 cannot carry the C0 controls but tab and LF (a parser turns CR into
# LF, breaking byte-exact round-trips), U+FFFE, U+FFFF or lone surrogates.
# Only a failing write searches for them, so re compiles this on first use.
_UNENCODABLE = "[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]"
_CONTROLS = bytes(c for c in range(0x20) if c not in b"\t\n")

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
# Per type name, which a member finds too (members hash and compare as their
# values): the member, the head with "%s" left for the name (built from the value,
# as a member formats differently across Python versions), and what follows the
# stem: the end of its CDATA, then the type's fixed elements.
_SHUFFLE = "    <shuffleanswers>true</shuffleanswers>\n"
_TYPES = {
    kind.value: (kind, _QUESTION[0] % (kind.value, "%s"), _QUESTION[1] + fixed)
    for kind, fixed in (
        (QuestionKind.SHORT_ANSWER, "    <usecase>0</usecase>\n"),
        (QuestionKind.NUMERICAL, ""),
        (QuestionKind.MULTIPLE_CHOICE, "    <single>true</single>\n" + _SHUFFLE
         + "    <answernumbering>none</answernumbering>\n"),
        (QuestionKind.MATCHING, _SHUFFLE),
    )
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


# The reader's patterns, one per block, compiled on first use (a build never
# reads a bank): an attribute field reads [^"<>]*, so it cannot backtrack over
# its line; other fields read [^<>]* (_unescape checks entities). A CDATA body
# reads up to the first end of its block, as str.find would, so _uncdata sees
# any foreign "]]>": [^\]]* at C speed, then from a "]" on a lazy scan, which
# keeps no state per character, as a group repeated once per "]" would.
_CDATA_BODY = r"([^\]]*(?:\](?s:.)*?)??)"
_READERS = {  # keyed by block; each type's repeated element by its type name
    key: _CDATA_BODY.join(re.escape(piece).replace('"%s"', '"([^"<>]*)"').replace("%s", "([^<>]*)")
                          for piece in block)
    for key, block in (("category", (_CATEGORY,)), ("head", _QUESTION[:1]),
                       ("shortanswer", (_SHORT_ANSWER,)), ("numerical", (_NUMERICAL_ANSWER,)),
                       ("multichoice", _CHOICE), ("matching", _SUBQUESTION))
}
# The direct reader decodes bytes this many at a time.
_WINDOW = 1 << 18
# A bank repeats a few fractions in every question: each is converted once, so
# a read holds one float per distinct fraction, not one per choice.
_read_fraction = functools.lru_cache(maxsize=256)(float)


def escape_for_cdata(text: str) -> str:
    """Make text safe inside a CDATA section.

    The only hazard is the terminator "]]>", which is split across two
    adjacent CDATA sections; everything else (including LaTeX delimiters
    and raw HTML) passes through byte-identical. A text without "]" (one
    memchr pass) or without "]]>" comes back as str(text), itself if exact.
    """
    if "]" in text:  # replace makes no copy when it finds no "]]>"
        return text.replace("]]>", "]]]]><![CDATA[>")
    return str(text)


def escape_xml_text(text: str) -> str:
    if "&" in text or "<" in text or ">" in text:  # three C searches cost less than replaces
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text


@functools.lru_cache(maxsize=256)  # a bank repeats a few fractions in every question
def _choice_head(fraction) -> str:
    return _CHOICE[0] % format_fraction(fraction)


def serialize_bank(bank) -> bytes:
    """Emit a bank as Moodle XML bytes (UTF-8, LF line endings); raise
    QuizbankError naming any question or category XML cannot encode."""
    # A BytesIO grows in place and hands over its buffer uncopied: unlike a
    # join, it never holds the document beside a list of all its chunks.
    out = io.BytesIO()
    out.writelines(serialize_chunks(bank))
    return out.getvalue()


def serialize_chunks(bank, questions=None):
    """serialize_bank's document, or that of any iterable of ``questions``, as UTF-8 chunks
    (fileio.utf8_chunks). Each is scanned first, so the QuizbankError, which names a
    question of the bank if there is one, may follow good chunks."""
    fail = functools.partial(unencodable_error, bank, _UNENCODABLE, "XML")
    questions = bank.questions if questions is None else questions
    return utf8_chunks(_document_blocks(questions), fail, _xml_legal)


def parse_bank(data) -> QuestionBank:
    """Parse Moodle XML back into a QuestionBank: bytes or any bytes-like object
    (bytearray, memoryview, mmap), or the str they decode to.

    Bytes are decoded and read a window at a time, so a read holds the bank's
    fields, one window and the largest open question, never the whole text; a
    read-only mapping's pages are dropped once decoded, as its file holds them.
    Equal names and answer-side texts come back as one str, as a generated bank
    repeats its pools' texts in every question; stems, which rarely repeat and
    would each be hashed whole (a media stem is megabytes), are not shared.
    The returned bank has no output path (supply one before close()).
    Unsupported question types are skipped with a warning on the bank;
    malformed XML raises BankParseError with the reported line/column and
    leaves no partial bank behind, as does a number or fraction that does
    not parse, naming the question's position.
    """
    try:
        return _parse_own_layout(data)
    except ValueError:  # not the writer's layout byte for byte: ElementTree reads it instead
        pass
    import xml.etree.ElementTree as ET  # only other layouts pay for its import

    parser = ET.XMLParser()
    try:
        for start in range(0, len(data), 65536):  # no full-size copy of the bank in expat
            piece = data[start:start + 65536]  # a str's own bytes, so its declaration counts
            parser.feed(piece.encode("utf-8", "surrogatepass") if isinstance(piece, str) else piece)
        root = parser.close()
    except ET.ParseError as exc:
        from xml.parsers.expat import ErrorString  # the reason, without expat's position
        line, column = exc.position
        raise BankParseError(
            f"malformed XML at line {line}, column {column}: {ErrorString(exc.code)}",
            line=line,
            column=column,
        ) from exc
    except (LookupError, ValueError) as exc:  # an encoding expat cannot read
        raise BankParseError(f"unsupported encoding: {exc}") from exc
    if root.tag != "quiz":
        raise BankParseError(f"expected <quiz> root element, found <{root.tag}>")

    bank, texts = QuestionBank(output_path=None), {}
    share = lambda text: texts.setdefault(text, text)  # one str per distinct text, as _own_layout
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
        if qtype not in _TYPES:
            bank.warn(f"skipping unsupported question type '{qtype}'")
            continue
        name = share(element.findtext("name/text") or "")
        single = element.findtext("single", "").strip().lower()
        if qtype == "multichoice" and single in ("0", "false"):
            bank.warn(f"skipping multi-select multiple-choice question {name!r} "
                      "(only single-answer questions are supported)")
            continue
        if qtype == "matching":
            items = [(sub, sub.findtext("text") or "", sub.findtext("answer/text") or "")
                     for sub in element.findall("subquestion")]
        elif qtype == "multichoice":
            items = [(ans, ans.get("fraction", "0"), ans.findtext("text") or "")
                     for ans in element.findall("answer")]
        else:  # a short answer's text, or a numerical answer's value and any tolerance
            default = "0" if qtype == "numerical" else ""
            items = [(ans, ans.findtext("text") or default, ans.findtext("tolerance"))
                     for ans in element.findall("answer")]
        try:
            payload = _payload(qtype, items, share, share,
                               lambda message: bank.warn(f"question {name!r}: {message}"))
        except ValueError as exc:
            raise BankParseError(f"question #{number}: {exc}") from exc
        stem = element.findtext("questiontext/text") or ""
        bank.questions.append(Question(_TYPES[qtype][0], name, stem, payload, bank.category))
    return bank


# -- writer ---------------------------------------------------------------


def _document_blocks(questions):
    """The document of questions as one list of str pieces per question."""
    yield [_DOCUMENT[0]]
    emitted_category = ""  # the importer's default until a marker says otherwise
    for question in questions:
        parts = []
        if question.category != emitted_category:
            emitted_category = question.category
            marker = CATEGORY_PREFIX + (f"/{emitted_category}" if emitted_category else "")
            if emitted_category.partition("/")[0] in _OTHER_CONTEXTS:  # as a foreign bank gave it
                marker = emitted_category
            parts.append(_CATEGORY % escape_xml_text(marker))
        _emit_question(parts, question)
        yield parts
        question = parts = None  # dropped before the next question is read
    yield [_DOCUMENT[1]]


def _emit_question(parts, question) -> None:
    # Each CDATA text is an item of its own, so no join copies a long one.
    kind, head, close = _TYPES[question.kind]
    payload = question.payload
    parts += (head % escape_xml_text(question.name), escape_for_cdata(question.stem), close)
    if kind == "multichoice":
        for choice in payload.choices:
            parts += (_choice_head(choice.fraction), escape_for_cdata(choice.text), _CHOICE[1])
    elif kind == "shortanswer":
        parts += [_SHORT_ANSWER % escape_xml_text(answer) for answer in payload.answers]
    elif kind == "numerical":
        answer = _NUMERICAL_ANSWER % ("%s", canonical_number(payload.tolerance))
        parts += [answer % canonical_number(value) for value in payload.answers]
    else:
        for prompt, match in payload.pairs:
            match = _SUBQUESTION[1] % escape_xml_text(match)
            parts += (_SUBQUESTION[0], escape_for_cdata(prompt), match)
    parts.append(_QUESTION_END)


def _xml_legal(text: str, data) -> bool:
    """Whether text, encoded as data (or an ASCII text itself), holds only
    characters XML can carry. Each 256 KiB stretch of data is searched in place
    (a bounded find, memchr, copying nothing) for each C0 control while it
    stays in cache; U+FFFE/U+FFFF are sought in the str, where the search is
    free unless it holds such wide characters.
    """
    find, controls = data.find, _CONTROLS.decode() if isinstance(data, str) else _CONTROLS
    for start in range(0, len(data), 1 << 18):
        if any(find(control, start, start + (1 << 18)) >= 0 for control in controls):
            return False
    return "\ufffe" not in text and "\uffff" not in text


# -- parser ---------------------------------------------------------------


def _parse_own_layout(data) -> QuestionBank:
    """Read data, a str or bytes-like, in serialize_bank's layout; raise
    ValueError at the first character off it, so that ElementTree reads it."""
    bank = QuestionBank(output_path=None)
    append = bank.questions.append
    for read in _own_layout(_windows(data), {}):
        if type(read) is str:
            bank.category = read
        else:
            append(read)
    return bank


def _windows(data):
    """data's text, a window at a time: a str whole, anything else decoded as
    UTF-8 _WINDOW bytes at a time (the first holds the document's first line),
    cut after a block end in its last sixteenth where data can find one (bytes,
    bytearray, mmap); the bytes of a character cut by a window's end go on to
    the next. ValueError where data is not UTF-8 or holds a character XML
    cannot carry. A read-only mapping's pages are dropped once decoded."""
    if isinstance(data, str):
        if not _xml_legal(data, data if data.isascii() else data.encode()):  # or a lone surrogate
            raise ValueError("not XML text")
        yield data
        return
    import mmap  # here, not at the top: a build never reads a bank

    release = isinstance(data, mmap.mmap) and memoryview(data).readonly  # the file holds its pages
    rfind, block_end = getattr(data, "rfind", None), _QUESTION_END.encode()
    start = dropped = 0
    while start < len(data):
        end = max(start + _WINDOW, len(_DOCUMENT[0]))
        if rfind and end < len(data) and (cut := rfind(block_end, end - (_WINDOW >> 4), end)) >= start:
            end = cut + len(block_end)
        with memoryview(data)[start:end] as window:  # no view outlives its window
            text, used = codecs.utf_8_decode(window, None, end >= len(data))
            if not _xml_legal(text, text if text.isascii() else window[:used].tobytes()):
                raise ValueError("not XML text")
        start += used
        if release and (edge := start & -mmap.PAGESIZE) > dropped:
            data.madvise(mmap.MADV_DONTNEED, dropped, edge - dropped)
            dropped = edge
        yield text


def _own_layout(windows, texts=None):
    """Yield each question of a legal text in serialize_bank's layout, and each
    category it changes to (a str), reading whole blocks as its windows come;
    raise ValueError at the first character off the layout. Names and answer-side
    texts go through texts, a dict, if given (a stream keeps none: it would grow)."""
    unescape, uncdata = _unescape, _uncdata
    if texts is not None:  # the first equal text read is kept; each later copy is freed at once
        share = texts.setdefault
        unescape = lambda raw: share(text := _unescape(raw), text)
        uncdata = lambda raw: share(text := _uncdata(raw), text)
    # re caches compiled patterns, so only the first parse compiles these.
    read = {key: re.compile(pattern).match for key, pattern in _READERS.items()}
    read_category, read_head = read["category"], read["head"]
    types = {kind: (member, close, read[kind]) for kind, (member, _, close) in _TYPES.items()}
    opening, block_end = _DOCUMENT[0], _QUESTION_END
    category, text, stem = "", "", None
    for window in windows:
        fresh = max(0, len(text) - len(block_end) + 1)  # no block end lies whole in the tail
        text += window  # the unread tail, grown in place, then the window
        pos = 0
        if opening:  # the first window holds the document's first line
            if not text.startswith(opening):
                raise ValueError("not the writer's layout")
            pos, opening = len(opening), ""
        while True:
            # Read up to the last block end, which ends a block unless it lies
            # in a CDATA text: then a match stops short of it.
            last = text.rfind(block_end, max(pos, fresh))
            last = last + len(block_end) if last >= 0 else pos
            while pos < last:
                head = read_head(text, pos, last)
                if head is None or (found := types.get(head[1])) is None:  # a category, or no type of ours
                    block = read_category(text, pos, last)
                    if block is None:
                        raise ValueError("not the writer's layout")
                    category, pos = _category_path(_unescape(block[1])), block.end()
                    yield category
                    continue
                (kind, name), (member, close, read_item), start = head.groups(), found, head.end()
                stop = text.index(close, start, last)  # no stem meets the regex engine
                stem = _uncdata(text[start:stop] if stem is None else stem)
                pos, items = stop + len(close), []  # the question's answers, choices or pairs
                while item := read_item(text, pos, last):
                    items.append(item)
                    pos = item.end()
                payload = _payload(kind, items, unescape, uncdata, _leave_layout)
                if not text.startswith(block_end, pos):
                    raise ValueError("not the writer's layout")
                pos += len(block_end)
                yield Question(member, unescape(name), stem, payload, category)
                stem = None
            # No whole block is left: a stem that runs on past the window reads on alone.
            head = read_head(text, pos)
            if head is None or (found := types.get(head[1])) is None or text.find(found[1], head.end()) >= 0:
                break
            stem, rest = _read_on(text[head.end():], found[1], windows)
            text, pos, fresh = text[pos:head.end()] + rest, 0, 0
        text, head, block, item = text[pos:], None, None, None  # no match holds on to the window
    if opening or text != _DOCUMENT[1]:
        raise ValueError("not the writer's layout")


def _read_on(field, close, windows):
    """A CDATA text that runs past its window, read on window by window to the
    first close: the text, grown in place, and the rest of the last window."""
    seam = len(close) - 1
    for window in windows:
        if close in field[-seam:] + window[:seam]:  # the close straddles the cut
            text = field + window
            stop = text.index(close, max(0, len(field) - seam))
            return text[:stop], text[stop:]
        stop = window.find(close)
        # One append for every window: CPython grows a str in place only at an
        # addition it has specialized, which a line run once per text is not.
        field += window if stop < 0 else window[:stop]
        if stop >= 0:
            return field, window[stop:]
    raise ValueError("not the writer's layout")


def _unescape(raw: str) -> str:
    """Inverse of escape_xml_text; ValueError on any other entity."""
    if "&" not in raw:  # one C search costs less than the counts
        return raw
    if raw.count("&") != raw.count("&amp;") + raw.count("&lt;") + raw.count("&gt;"):
        raise ValueError("foreign entity")
    return raw.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def _uncdata(raw: str) -> str:
    """Undo escape_for_cdata's splits in a CDATA text. Any other "]]>" ends
    the section there, off the writer's layout: ValueError."""
    if "]" not in raw or "]]>" not in raw:
        return raw
    parts = raw.split("]]]]><![CDATA[>")
    if any("]]>" in part for part in parts):
        raise ValueError("CDATA not split by the writer")
    return "]]>".join(parts)


def _category_path(marker: str) -> str:
    raw = marker.strip()
    for prefix in (CATEGORY_PREFIX, "$course$"):  # either alone is the course's default
        if raw == prefix or raw.startswith(prefix + "/"):
            raw = raw[len(prefix):]
            break
    # Collapse accidental empty segments from foreign files.
    return "/".join(segment for segment in raw.split("/") if segment)


def _payload(kind, items, unescape, uncdata, warn):
    """A payload from items that hold their fields where the direct reader's groups
    do: (_, text), (_, value, tolerance or None), (_, fraction, text), (_, prompt, match).
    unescape and uncdata decode plain and CDATA texts; warn hears of a tolerance off the
    first answer's, which is kept. Numbers parse answer by answer, value first."""
    if kind == "shortanswer":
        return ShortAnswerSet([unescape(item[1]) for item in items])
    if kind == "multichoice":
        return ChoiceSet([Choice(uncdata(item[2]), _read_fraction(item[1])) for item in items])
    if kind == "matching":
        return MatchPairList([(uncdata(item[1]), unescape(item[2])) for item in items])
    values, tolerance = [], 0.0
    for position, item in enumerate(items):
        values.append(parse_number(item[1]))  # refuses entities, so no unescape
        if item[2] is not None:
            parsed = parse_number(item[2])
            if position == 0:
                tolerance = parsed
            elif parsed != tolerance:
                warn(f"answers carry differing tolerances; keeping {tolerance}")
    return NumericalAnswerSet(values, tolerance)


def _leave_layout(message):  # the direct reader's warn: ElementTree re-reads and warns once
    raise ValueError(message)
