"""Core question data types plus the text/number canonicalization helpers.

Everything downstream (generation, XML output, previews, bulk edits) works
on these dataclasses, so all duplicate checks and all deterministic
rendering rules live here.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError


class QuestionKind(str, Enum):
    """Supported question kinds; values double as the XML type names."""

    SHORT_ANSWER = "shortanswer"
    NUMERICAL = "numerical"
    MULTIPLE_CHOICE = "multichoice"
    MATCHING = "matching"


@dataclass
class Choice:
    """One multiple-choice alternative: display text plus grade percentage.

    The correct alternative carries +100; wrong ones carry a negative
    penalty (by default -100/(k-1) for k alternatives).
    """

    text: str
    fraction: float


@dataclass
class ChoiceSet:
    choices: list[Choice]


@dataclass
class ShortAnswerSet:
    answers: list[str]


@dataclass
class NumericalAnswerSet:
    answers: list[int | float]
    tolerance: float = 0.01


@dataclass
class MatchPairList:
    pairs: list[tuple[str, str]]


@dataclass
class Question:
    """A single bank entry.

    ``stem`` is HTML and may embed LaTeX delimited by ``\\( \\)`` or
    ``$$``; it is passed through to the output untouched. ``category`` is
    the slash-separated category path that was active when the question
    was added ("" means the importing LMS's default category).
    """

    kind: QuestionKind
    name: str
    stem: str
    payload: ChoiceSet | ShortAnswerSet | NumericalAnswerSet | MatchPairList
    category: str = ""


def render_text(value) -> str:
    """Canonical text of a choice/answer/key/name value: ``str(value)``
    with every ``\\r\\n`` and ``\\r`` turned into ``\\n``.

    XML parsers turn both line breaks into LF, so every duplicate and
    capacity check compares texts in this form, and the output round-trips
    byte for byte. Built-in floats print their shortest round-trip form.
    """
    return str(value).replace("\r\n", "\n").replace("\r", "\n")


def normalize(text: str) -> str:
    """Comparison key for duplicate/collision checks: trimmed, else exact."""
    return text.strip()


def canonical_number(value) -> str:
    """Stable text form for a numeric answer or tolerance: the plain int or
    float form of any real number (numpy scalars, Fraction), whatever its
    own str or repr prints."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"expected a number, got {value!r}")
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


_INT_RE = re.compile(r"^[+-]?[0-9]+$")


def parse_number(text: str) -> int | float:
    """Inverse of canonical_number for parsed documents."""
    stripped = text.strip()
    if _INT_RE.match(stripped):
        return int(stripped)
    return float(stripped)


def require_finite_number(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")


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
