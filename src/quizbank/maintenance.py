"""Bank-wide bulk edits: text replacement and penalty rewrites.

Each operation is an edit of one question (text_edit, pattern_edit, penalty_edit):
`quizbank maintain` streams a bank through it, holding one question and its edited
copy, never the bank. replace_text, replace_text_pattern and set_wrong_penalty apply
it to a bank in memory, in place, undo every edit if one fails, and return how much
they changed. In the writer's own layout every untouched field stays byte-identical;
a foreign bank is rewritten from the model and loses what the model does not hold.
Text edits keep the builders' invariants (model.check_question), and judge only the
questions they change; see _edit_texts.
"""

from __future__ import annotations

import functools
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
    return _apply(bank, text_edit(old, new))


def replace_text_pattern(bank, pattern: str, replacement: str) -> int:
    """replace_text by regular expression (CLI --regex): occurrences in the texts it changed."""
    return _apply(bank, pattern_edit(pattern, replacement))


def set_wrong_penalty(bank, fraction) -> int:
    """Set the grade fraction of every wrong multiple-choice alternative.

    Wrong means a fraction of 0 or less: correct (+100) and partial-credit
    alternatives keep theirs, and other question kinds are never touched.
    Returns the number of questions with at least one wrong alternative.
    """
    return _apply(bank, penalty_edit(fraction))


def text_edit(old: str, new: str):
    """replace_text's edit of one question (see _edit_texts)."""
    if not isinstance(old, str) or not old:
        raise ValidationError("the text to replace must be a non-empty string")

    def substitute(texts):
        edited = [text.replace(old, new) for text in texts]  # one search per text
        if len(old) != len(new):  # each occurrence changes the length by the same amount
            return edited, (sum(map(len, edited)) - sum(map(len, texts))) // (len(new) - len(old))
        return edited, sum([text.count(old) for text, after in zip(texts, edited) if after != text])

    return functools.partial(_edit_texts, substitute)


def pattern_edit(pattern: str, replacement: str):
    """replace_text_pattern's edit of one question (see _edit_texts)."""
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

    return functools.partial(_edit_texts, substitute)


def penalty_edit(fraction):
    """set_wrong_penalty's edit(index, question): (1 if it has a wrong alternative, changed)."""
    require_finite_number(fraction, "penalty fraction")
    if not -100 <= fraction <= 0:
        raise ValidationError(f"penalty fraction must lie between -100 and 0, got {fraction}")
    value = on_grade_grid(fraction)

    def edit(index, question):
        choices = question.payload.choices if question.kind is QuestionKind.MULTIPLE_CHOICE else ()
        wrong = [choice for choice in choices if choice.fraction <= 0]
        changed = any(choice.fraction != value for choice in wrong)
        for choice in wrong:
            choice.fraction = value
        return int(bool(wrong)), changed

    return edit


def _edit_texts(substitute, index, question):
    """A text edit(index, question): substitute its texts at once, in place, giving (occurrences,
    whether a text changed); a ValidationError of its check names it as it was, left edited."""
    texts = question_texts(question)
    new_texts, count = substitute(texts)
    if not count or new_texts == texts:
        return 0, False
    set_question_texts(question, new_texts)
    try:
        check_question(question)
    except ValidationError as exc:
        raise ValidationError(f"question {index} ({texts[0]!r}): {exc}") from None
    return count, True


def _apply(bank, edit) -> int:
    """Edit the bank's questions in place, totalling the counts; a failure undoes all text edits."""
    before = [question_texts(question) for question in bank.questions]
    try:
        return sum([edit(index, question)[0] for index, question in enumerate(bank.questions, 1)])
    except ValidationError:
        for question, texts in zip(bank.questions, before):
            set_question_texts(question, texts)
        raise
