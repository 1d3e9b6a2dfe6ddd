"""Bank-wide bulk edits: text replacement and penalty rewrites.

Both operations mutate the given bank in place and return how much they
changed. For a bank in the writer's own layout, every untouched field stays
byte-identical after re-serialization; a foreign bank is rewritten from the
model and loses what the model does not hold. They are typically applied to
banks loaded with parse_bank, either directly or through the command line.

Text replacement keeps the builders' invariants (model.check_question), and
judges only the questions it changes; see _apply.
"""

from __future__ import annotations

import re

from .errors import ValidationError
from .model import (
    QuestionKind,
    check_question,
    on_grade_grid,
    question_texts,
    require_finite_number,
    set_question_texts,
)


def replace_text(bank, old: str, new: str) -> int:
    """Replace every occurrence of ``old`` in all textual question fields.

    Touches names, stems, choice texts, short answers and matching texts;
    numerical answer values and tolerances are numbers, not text, and are
    deliberately exempt. Matching is literal and case-sensitive. Returns
    the number of occurrences in the texts it changed.
    """
    if not isinstance(old, str) or not old:
        raise ValidationError("the text to replace must be a non-empty string")

    def substitute(texts):
        edited = [text.replace(old, new) for text in texts]  # one search per text
        if len(old) != len(new):  # each occurrence changes the length by the same amount
            return edited, (sum(map(len, edited)) - sum(map(len, texts))) // (len(new) - len(old))
        return edited, sum([text.count(old) for text, after in zip(texts, edited) if after != text])

    return _apply(bank, substitute)


def replace_text_pattern(bank, pattern: str, replacement: str) -> int:
    """replace_text by regular expression (CLI --regex): occurrences in the texts it changed."""
    try:
        compiled = re.compile(pattern)
        # Checks the replacement's group references before any text changes.
        compiled.sub(replacement, "")
    except re.error as exc:
        raise ValidationError(
            f"bad regular expression {pattern!r} or replacement {replacement!r}: {exc}"
        ) from exc

    def substitute(texts):
        results = [compiled.subn(replacement, text) for text in texts]
        return [text for text, _ in results], sum([count for _, count in results])

    return _apply(bank, substitute)


def set_wrong_penalty(bank, fraction) -> int:
    """Set the grade fraction of every wrong multiple-choice alternative.

    Wrong means a fraction of 0 or less: correct (+100) and partial-credit
    alternatives keep theirs, and other question kinds are never touched.
    Returns the number of questions with at least one wrong alternative.
    """
    require_finite_number(fraction, "penalty fraction")
    if not -100 <= fraction <= 0:
        raise ValidationError(f"penalty fraction must lie between -100 and 0, got {fraction}")
    value = on_grade_grid(fraction)
    wrong = list(_wrong_choices(bank))
    for choice in [choice for choices in wrong for choice in choices]:
        choice.fraction = value
    return sum(1 for choices in wrong if choices)


def penalty_changes(bank, fraction) -> bool:
    """Whether set_wrong_penalty(bank, fraction) would change any fraction."""
    value = on_grade_grid(fraction)
    return any(choice.fraction != value for choices in _wrong_choices(bank) for choice in choices)


def _wrong_choices(bank):
    """One list of wrong alternatives per multiple-choice question, each made when read."""
    mcqs = (q.payload.choices for q in bank.questions if q.kind is QuestionKind.MULTIPLE_CHOICE)
    return ([choice for choice in choices if choice.fraction <= 0] for choices in mcqs)


def _apply(bank, substitute) -> int:
    """Substitute each question's texts once, in place, and check every
    question that changes; on a violation, undo all edits and raise
    ValidationError naming the question."""
    total = 0
    edited = []  # (question, its texts before the edit)
    for index, question in enumerate(bank.questions, start=1):
        texts = question_texts(question)
        new_texts, count = substitute(texts)
        if count and new_texts != texts:
            total += count
            edited.append((question, texts))
            set_question_texts(question, new_texts)
            try:
                check_question(question)
            except ValidationError as exc:
                for done, before in edited:
                    set_question_texts(done, before)
                raise ValidationError(f"question {index} ({question.name!r}): {exc}") from None
    return total

