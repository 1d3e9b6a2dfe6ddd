"""The QuestionBank class: single-question builders and bank lifecycle.

A bank is built by an authoring script, usually top to bottom::

    from quizbank import QuestionBank

    Q = QuestionBank("algebra.xml", seed=42)
    Q.setCategory("Algebra/Quadratics")
    Q.addNumerical("", "Solve \\(x^2-x-6=0\\)", [3, -2])
    Q.addMultipleChoice("", "Which value solves \\(x^2-x-6=0\\)?", [3, 1, 2, 4])
    Q.close()

Builder methods keep their camelCase names because they are the
script-facing API; the rest of the package is regular snake_case.

A bank is a single-writer object: do not mutate one bank from several
threads. Reading (serialization, preview, stats) does not mutate.
"""

from __future__ import annotations

import random
import sys
from contextvars import ContextVar
from pathlib import Path

from . import generators
from .errors import DuplicateTextError, QuizbankError, ValidationError
# atomic_write_bytes goes unused here; benchmarks/tracing.py wraps it by this name.
from .fileio import atomic_write_bytes, atomic_write_chunks  # noqa: F401
from .model import (
    MatchPairList,
    NumericalAnswerSet,
    Question,
    QuestionKind,
    ShortAnswerSet,
    check_question,
    graded_choices,
    render_text,
    validate_category_path,
)

# Set by the CLI "build" command around the script it runs, to redirect
# the banks that script creates: {"seed": ..., "out": ...}.
build_overrides: ContextVar[dict | None] = ContextVar("build_overrides", default=None)


def default_wrong_fraction(choice_count: int) -> float:
    """Penalty making random guessing expectation-neutral: -100/(k-1).

    Rounded to 5 decimals so the value lands on the grade grid accepted
    by LMS importers (-33.33333 for four choices).
    """
    return round(-100.0 / (choice_count - 1), 5)


class QuestionBank:
    """Ordered collection of questions bound to an XML output path."""

    def __init__(self, output_path, seed=None, wrong_fraction_rule=None):
        overrides = build_overrides.get()
        # Pathless banks (e.g. freshly parsed ones) are not build targets.
        if overrides is not None and output_path is not None:
            if overrides["seed"] is not None:
                seed = overrides["seed"]
            # Only the first bank takes the --out path.
            output_path = overrides.pop("out", None) or output_path
        self.output_path = Path(output_path) if output_path is not None else None
        self.category = ""
        self.questions: list[Question] = []
        self.warnings: list[str] = []
        self.rng = random.Random(seed)
        self.wrong_fraction_rule = wrong_fraction_rule or default_wrong_fraction
        self._closed = False

    # -- warning channel ---------------------------------------------------

    def warn(self, message: str) -> None:
        """Record a warning on the bank and echo it to standard error."""
        self.warnings.append(message)
        print(f"WARN: {message}", file=sys.stderr)

    # -- single-question builders -------------------------------------------

    def setCategory(self, path: str) -> None:
        """Route subsequent questions to a slash-separated category path.

        An empty path returns to the importing LMS's default category.
        """
        self._require_open()
        self.category = validate_category_path(path)

    def addShortAnswer(self, name, question, answers) -> None:
        """Append a short-answer question accepting any of ``answers``.

        A single string is promoted to a one-element list. All accepted
        answers are graded +100 and compared by the LMS as plain strings.
        """
        texts = [render_text(a) for a in _as_answer_list(answers)]
        self._append(QuestionKind.SHORT_ANSWER, name, question, ShortAnswerSet(texts))

    def addNumerical(self, name, question, answers, tolerance=0.01) -> None:
        """Append a numerical question accepting each answer within ±tolerance."""
        payload = NumericalAnswerSet(_as_answer_list(answers), tolerance)
        self._append(QuestionKind.NUMERICAL, name, question, payload)
        payload.tolerance = float(tolerance)  # checked finite above

    def addMultipleChoice(self, name, question, choices) -> None:
        """Append a single-answer multiple-choice question.

        The first element of ``choices`` is the correct one (graded +100);
        the rest receive the bank's wrong-answer fraction. Values are
        rendered with str(), line breaks as LF. If two choices render to
        the same trimmed text the question is rejected with a warning and
        the bank is left unchanged.
        """
        if isinstance(choices, (set, frozenset)):
            raise ValidationError(
                "choices must be an ordered sequence (the first element is the correct one)"
            )
        texts = [render_text(c) for c in choices]
        # The rule is only defined for k >= 2; fewer choices fail the check.
        wrong = self.wrong_fraction_rule(len(texts)) if len(texts) > 1 else 0.0
        try:
            self._append(QuestionKind.MULTIPLE_CHOICE, name, question, graded_choices(texts, wrong))
        except DuplicateTextError as exc:
            self.warn(f"{exc}; question {name!r} not added")

    def addMatching(self, name, question, pairs) -> None:
        """Append a matching question from (prompt, match) pairs.

        Prompts must be pairwise distinct; matches may repeat (the LMS
        merges repeated matches into one drop-down entry).
        """
        rendered = [(render_text(p), render_text(m)) for p, m in pairs]
        self._append(QuestionKind.MATCHING, name, question, MatchPairList(rendered))

    # -- random generation (pool-based) --------------------------------------

    def addMultipleChoiceFromLists(
        self, title, question, correct, distractors, num_questions=-1
    ) -> int:
        """Generate multiple-choice questions from a correct/distractor pool.

        Each question pairs one correct answer with 3 sampled distractors.
        With c usable correct answers and d distractors the pool yields up
        to c unique questions (different correct answers) and c * C(d, 3)
        distinct ones (differing in at least one choice); the default of
        -1 asks for the c unique ones. Returns the number added.
        """
        self._require_open()
        return generators.generate_from_lists(
            self, title, question, correct, distractors, num_questions
        )

    def addMultipleChoiceFromPairs(
        self, title, pattern, pairs, extra_distractors=(), num_questions=-1
    ) -> int:
        """Generate multiple-choice questions from (key, answer) pairs.

        ``pattern`` must contain exactly one ``%s``, which each generated
        stem replaces with the chosen key. Distractors come from the other
        answers plus ``extra_distractors``, never equal (as strings) to
        the chosen answer. Returns the number added.
        """
        self._require_open()
        return generators.generate_from_pairs(
            self, title, pattern, pairs, extra_distractors, num_questions
        )

    def addCompleteCode(
        self, title, pattern, source_text, tokens, extra_distractors=(), num_questions=-1,
        blank=None,
    ) -> int:
        """Generate fill-in-the-blank questions by blanking tokens in a text.

        Each question picks one token, replaces all its occurrences in
        ``source_text`` with a blank marker, splices the blanked text into
        ``pattern`` at its single ``%s``, and offers the token plus 3
        distractors drawn from the other tokens and ``extra_distractors``.
        ``blank`` overrides the plain-text marker, e.g. with a styled span
        for HTML contexts. Returns the number added.
        """
        self._require_open()
        return generators.generate_complete_code(
            self, title, pattern, source_text, tokens, extra_distractors, num_questions, blank
        )

    # -- lifecycle -----------------------------------------------------------

    def preview(self):
        """Render the bank to a temporary HTML file and open a browser on it.

        If no browser can be launched the path is printed instead. Returns
        the path of the rendered file, a new one on every call.
        """
        import webbrowser  # here, not at the top: every CLI process would pay for it

        from .preview import render_temp_preview

        path = render_temp_preview(self)
        try:
            opened = webbrowser.open(path.as_uri())
        except Exception:
            opened = False
        if not opened:
            print(f"Preview written to {path}")
        return path

    def close(self) -> None:
        """Serialize the bank to its output path and freeze it.

        Calling close() twice warns and does nothing. The file is written
        atomically, so a failed write leaves no partial file behind.
        """
        if self._closed:
            self.warn(f"bank already closed; ignoring extra close() for {self.output_path}")
            return
        if self.output_path is None:
            raise QuizbankError("bank has no output path; cannot close")
        if not self.questions:
            self.warn(f"closing an empty bank: {self.output_path} will contain no questions")
        from .moodle_xml import serialize_chunks

        try:
            atomic_write_chunks(self.output_path, serialize_chunks(self))
        except OSError as exc:
            raise QuizbankError(f"cannot write question bank: {exc}") from exc
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self.questions)

    # -- internals -----------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise QuizbankError("bank is closed and can no longer be modified")

    def _append(self, kind, name, question, payload) -> None:
        self._require_open()
        stem = render_text(question) if isinstance(question, str) else question
        built = Question(kind, render_text(name), stem, payload, self.category)
        check_question(built)
        self.questions.append(built)


def _as_answer_list(answers) -> list:
    """Promote a scalar answer to a list; order set inputs deterministically."""
    if isinstance(answers, (set, frozenset)):
        return sorted(answers, key=render_text)
    if isinstance(answers, (list, tuple, range)):
        return list(answers)
    return [answers]

