"""Core question data types plus the text/number canonicalization helpers.

Everything downstream (generation, XML output, previews, bulk edits) works
on these plain records, so the question invariants (check_question), duplicate
checks, a question's text fields (question_texts, set_question_texts) and
deterministic rendering rules all live here.
"""

from __future__ import annotations

import math
import numbers
import re
from enum import Enum

from .errors import DuplicateTextError, QuizbankError, ValidationError


class QuestionKind(str, Enum):
    """Supported question kinds; values double as the XML type names."""

    SHORT_ANSWER = "shortanswer"
    NUMERICAL = "numerical"
    MULTIPLE_CHOICE = "multichoice"
    MATCHING = "matching"


class Record:
    """Base of the ``__slots__`` records: dataclass-style equality (which
    leaves them unhashable) and repr over the fields in ``__match_args__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle (every protocol) rebuild through __init__
        return self.__class__, self._fields()


class Choice(Record):
    """One multiple-choice alternative: display text plus grade percentage.

    The correct alternative carries +100; wrong ones carry a negative
    penalty (by default -100/(k-1) for k alternatives).
    """

    __slots__ = __match_args__ = ("text", "fraction")

    def __init__(self, text: str, fraction: float):
        self.text = text
        self.fraction = fraction


class ChoiceSet(Record):
    __slots__ = __match_args__ = ("choices",)

    def __init__(self, choices: list[Choice]):
        self.choices = choices


class ShortAnswerSet(Record):
    __slots__ = __match_args__ = ("answers",)

    def __init__(self, answers: list[str]):
        self.answers = answers


class NumericalAnswerSet(Record):
    __slots__ = __match_args__ = ("answers", "tolerance")

    def __init__(self, answers: list[int | float], tolerance: float = 0.01):
        self.answers = answers
        self.tolerance = tolerance


class MatchPairList(Record):
    __slots__ = __match_args__ = ("pairs",)

    def __init__(self, pairs: list[tuple[str, str]]):
        self.pairs = pairs


class Question(Record):
    """A single bank entry.

    ``stem`` is HTML and may embed LaTeX delimited by ``\\( \\)`` or
    ``$$``; it is passed through to the output untouched. ``category`` is
    the slash-separated category path that was active when the question
    was added ("" means the importing LMS's default category).
    """

    __slots__ = __match_args__ = ("kind", "name", "stem", "payload", "category")

    def __init__(self, kind: QuestionKind, name: str, stem: str, payload, category: str = ""):
        self.kind = kind
        self.name = name
        self.stem = stem
        self.payload = payload  # a ChoiceSet, ShortAnswerSet, NumericalAnswerSet or MatchPairList
        self.category = category


def question_texts(question: Question) -> list[str]:
    """Name, stem, then the payload's texts; numerical values are not text."""
    payload, rest = question.payload, []
    if isinstance(payload, ChoiceSet):
        rest = [choice.text for choice in payload.choices]
    elif isinstance(payload, ShortAnswerSet):
        rest = payload.answers
    elif isinstance(payload, MatchPairList):
        rest = [text for pair in payload.pairs for text in pair]
    return [question.name, question.stem, *rest]


def set_question_texts(question: Question, texts) -> None:
    """Inverse of question_texts: put ``texts``, in its order, back into ``question``."""
    question.name, question.stem, *rest = texts
    payload = question.payload
    if isinstance(payload, ChoiceSet):
        for choice, text in zip(payload.choices, rest):
            choice.text = text
    elif isinstance(payload, ShortAnswerSet):
        payload.answers[:] = rest
    elif isinstance(payload, MatchPairList):
        payload.pairs[:] = zip(rest[::2], rest[1::2])


def unencodable_error(bank, pattern: str, target: str) -> QuizbankError:
    """Name the first category or question of bank (None has none), in document order,
    that holds a character the target cannot encode (one the regular expression finds)."""
    for index, question in enumerate(() if bank is None else bank.questions, start=1):
        name = question.name or f"question #{index}"
        owned = [(f"question {name!r}", text) for text in question_texts(question)]
        for owner, text in [(f"category {question.category!r}", question.category), *owned]:
            if found := re.search(pattern, text):
                what = "control character" if found[0] < " " else "character"
                return QuizbankError(
                    f"{owner} contains {what} {found[0]!r}, which {target} cannot encode"
                )
    return QuizbankError(f"the bank holds a character {target} cannot encode")


_CONTAINERS = frozenset({tuple, list})  # cheaper to test than a (tuple, list) built per call


def render_text(value, _enclosing=()) -> str:
    """Canonical text of a choice/answer/key/name value: ``str(value)``, an
    exact str, with every ``\\r\\n`` and ``\\r`` turned into ``\\n``. A text
    without ``\\r`` (one memchr pass) is ``str(value)`` itself.

    XML parsers turn both line breaks into LF, so every duplicate and
    capacity check compares texts in this form, and the output round-trips
    byte for byte. Built-in floats print their shortest round-trip form. A
    tuple or list prints as str() shows it, but with its items other than
    str, tuple and list in their str() form, so ``(numpy.float64(0.5), 1)``
    reads ``(0.5, 1)``.
    """
    if type(value) in _CONTAINERS:  # the scalar path's one test
        if id(value) in _enclosing:  # inside itself: as str() shows it
            return "[...]" if type(value) is list else "(...)"
        inner, shown = (*_enclosing, id(value)), []
        for item in value:  # a loop: before 3.12, a comprehension costs every call a cell
            shown.append(repr(item) if isinstance(item, str) else render_text(item, inner))
        shown = ", ".join(shown) + ("," if type(value) is tuple and len(value) == 1 else "")
        value = f"[{shown}]" if type(value) is list else f"({shown})"
    text = str(value)  # the argument itself if it is an exact str
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def as_values(values) -> list:
    """The values an argument holds: a set sorted by render_text; a str, bytes or
    anything iter() refuses (a number, a numpy 0-d array) as one; else in order."""
    if type(values) in _CONTAINERS:  # a list or tuple, the common case: one test
        return list(values)
    if isinstance(values, (set, frozenset)):
        return sorted(values, key=render_text)
    try:
        items = iter(values)
    except TypeError:
        return [values]
    return [values] if isinstance(values, (str, bytes, bytearray)) else list(items)


def value_pairs(pairs) -> list[tuple[str, str]]:
    """The rendered texts of each item of ``pairs``; as_values must read two from each."""
    rendered = []
    for pair in as_values(pairs):
        if len(values := as_values(pair)) != 2:  # a str is one value
            raise ValidationError(f"a pair must hold exactly two values, got {pair!r}")
        rendered.append((render_text(values[0]), render_text(values[1])))
    return rendered


def normalize(text: str) -> str:
    """Comparison key for duplicate/collision checks: trimmed, else exact."""
    return text.strip()


def canonical_number(value) -> str:
    """Stable text form for a numeric answer or tolerance: the plain int or
    float form of any real number (numpy scalars, Fraction), whatever its
    own str or repr prints."""
    if type(value) is float:  # the common types first: no ABC checks
        return repr(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"expected a number, got {value!r}")
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def on_grade_grid(value) -> float:
    """A grade percentage on the 5-decimal grid of fraction attributes."""
    return round(float(value), 5)


def format_fraction(value) -> str:
    """Grade percentage as emitted in fraction attributes: 5-decimal grid."""
    rounded = on_grade_grid(value)
    if rounded == 0:
        return "0"
    return f"{rounded:.5f}".rstrip("0").rstrip(".")


_INT_RE = re.compile(r"^[+-]?[0-9]+$")


def parse_number(text: str) -> int | float:
    """Inverse of canonical_number for parsed documents."""
    stripped = text.strip()
    if _INT_RE.match(stripped):
        return int(stripped)
    return float(stripped)


def require_finite_number(value, what: str) -> None:
    kind = type(value)  # an exact int or float skips the far slower numbers.Real ABC check
    if kind not in (int, float) and (kind is bool or not isinstance(value, numbers.Real)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return
        shown = repr(value)
    except OverflowError:  # an int or Fraction beyond the float range
        shown = "a value beyond the float range"
    raise ValidationError(f"{what} must be finite, got {shown}")


def require_stem(stem) -> None:
    # isspace() stops at the first visible character: big stems are not copied.
    if not isinstance(stem, str) or not stem or stem.isspace():
        raise ValidationError("question text must be a non-empty string")


def check_question(question: Question) -> None:
    """Raise ValidationError for the first invariant ``question`` breaks.

    Builders, generators and maintenance edits all keep these: a non-blank
    stem; at least 2 choices, pairwise distinct once trimmed; at least one
    short answer, none repeated; at least 2 matching pairs with distinct
    prompts; finite real numerical answers and a finite tolerance >= 0.
    A repeated text raises DuplicateTextError.
    """
    require_stem(question.stem)
    payload = question.payload
    if isinstance(payload, ChoiceSet):
        if len(payload.choices) < 2:
            raise ValidationError("a multiple-choice question needs at least 2 choices")
        _require_distinct([choice.text for choice in payload.choices], "duplicated choice text ")
    elif isinstance(payload, ShortAnswerSet):
        if not payload.answers:
            raise ValidationError("a short-answer question needs at least one answer")
        _require_distinct(payload.answers, "duplicate short answer: ")
    elif isinstance(payload, MatchPairList):
        if len(payload.pairs) < 2:
            raise ValidationError("a matching question needs at least 2 pairs")
        _require_distinct([prompt for prompt, _ in payload.pairs], "duplicate matching prompt: ")
    else:
        if not payload.answers:
            raise ValidationError("a numerical question needs at least one answer")
        for value in payload.answers:
            require_finite_number(value, "numerical answer")
        require_finite_number(payload.tolerance, "tolerance")
        if payload.tolerance < 0:
            raise ValidationError(f"tolerance must be non-negative, got {payload.tolerance}")


def _require_distinct(texts, message: str) -> None:
    seen = set()
    for text in texts:
        key = normalize(text)
        if key in seen:
            raise DuplicateTextError(f"{message}{text!r}")
        seen.add(key)


def graded_choices(texts, wrong) -> ChoiceSet:
    """Choices with ``texts[0]`` graded +100 (the correct one), the rest ``wrong``."""
    return ChoiceSet([Choice(t, 100.0) for t in texts[:1]] + [Choice(t, wrong) for t in texts[1:]])


def validate_category_path(path: str) -> str:
    """Check a slash-separated category path; "" selects the LMS default."""
    if not isinstance(path, str):
        raise ValidationError(f"category path must be a string, got {path!r}")
    if path and any(not segment for segment in path.split("/")):
        raise ValidationError(f"category path {path!r} contains an empty segment")
    if path != path.rstrip():
        # Readers strip the marker text, so the path would not round-trip.
        raise ValidationError(f"category path {path!r} ends in whitespace")
    return path
