"""Bank-wide bulk edits: text replacement and penalty rewrites.

Both operations mutate the given bank in place and return how much they
changed, leaving every untouched field byte-identical after
re-serialization. They are typically applied to banks loaded with
parse_bank, either directly or through the command line.
"""

from __future__ import annotations

import re

from .errors import ValidationError
from .model import ChoiceSet, MatchPairList, QuestionKind, ShortAnswerSet


def replace_text(bank, old: str, new: str) -> int:
    """Replace every occurrence of ``old`` in all textual question fields.

    Touches names, stems, choice texts, short answers and matching texts;
    numerical answer values and tolerances are numbers, not text, and are
    deliberately exempt. Matching is literal and case-sensitive. Returns
    the number of occurrences replaced.
    """
    if not isinstance(old, str) or not old:
        raise ValidationError("the text to replace must be a non-empty string")
    return _apply(bank, lambda text: (text.replace(old, new), text.count(old)))


def replace_text_pattern(bank, pattern: str, replacement: str) -> int:
    """Regular-expression variant of replace_text (used by the CLI --regex flag)."""
    try:
        compiled = re.compile(pattern)
        # Checks the replacement's group references before any text changes.
        compiled.sub(replacement, "")
    except re.error as exc:
        raise ValidationError(
            f"bad regular expression {pattern!r} or replacement {replacement!r}: {exc}"
        ) from exc
    return _apply(bank, lambda text: compiled.subn(replacement, text))


def set_wrong_penalty(bank, fraction) -> int:
    """Set the grade fraction of every wrong multiple-choice alternative.

    Wrong means a fraction of 0 or less: correct (+100) and partial-credit
    alternatives keep theirs, and other question kinds are never touched.
    Returns the number of questions with at least one wrong alternative.
    """
    if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
        raise ValidationError(f"penalty fraction must be a number, got {fraction!r}")
    if not -100 <= fraction <= 0:
        raise ValidationError(
            f"penalty fraction must lie between -100 and 0, got {fraction}"
        )
    value = round(float(fraction), 5)
    touched = 0
    for question in bank.questions:
        if question.kind is not QuestionKind.MULTIPLE_CHOICE:
            continue
        wrong = [c for c in question.payload.choices if c.fraction <= 0]
        if not wrong:
            continue
        for choice in wrong:
            choice.fraction = value
        touched += 1
    return touched


def _apply(bank, substitute) -> int:
    total = 0
    for question in bank.questions:
        question.name, count = substitute(question.name)
        total += count
        question.stem, count = substitute(question.stem)
        total += count
        payload = question.payload
        if isinstance(payload, ChoiceSet):
            for choice in payload.choices:
                choice.text, count = substitute(choice.text)
                total += count
        elif isinstance(payload, ShortAnswerSet):
            for i, answer in enumerate(payload.answers):
                payload.answers[i], count = substitute(answer)
                total += count
        elif isinstance(payload, MatchPairList):
            for i, (prompt, match) in enumerate(payload.pairs):
                prompt, count = substitute(prompt)
                total += count
                match, count = substitute(match)
                total += count
                payload.pairs[i] = (prompt, match)
    return total
