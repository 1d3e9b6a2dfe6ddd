"""The QuestionBank class: single-question builders and bank lifecycle.

A bank is built by an authoring script, usually top to bottom::

    from quizbank import QuestionBank

    Q = QuestionBank("algebra.xml", seed=42)
    Q.setCategory("Algebra/Quadratics")
    Q.addNumerical("", "Solve \\(x^2-x-6=0\\)", [3, -2])
    Q.addMultipleChoice("", "Which value solves \\(x^2-x-6=0\\)?", [3, 1, 2, 4])
    Q.close()

Builder methods, and the generator methods the ``generators`` module
defines, keep their camelCase names because they are the script-facing
API; the rest of the package is regular snake_case.

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
    as_values,
    check_question,
    graded_choices,
    on_grade_grid,
    render_text,
    validate_category_path,
    value_pairs,
)

# Set by the CLI "build" command around the script it runs, to redirect the
# banks that script creates and list them: {"seed": ..., "out": ..., "banks": [...]}.
build_overrides: ContextVar[dict | None] = ContextVar("build_overrides", default=None)


def default_wrong_fraction(choice_count: int) -> float:
    """Penalty making random guessing expectation-neutral: -100/(k-1).

    Rounded to 5 decimals (-33.33333 for four choices). Only k = 2..11 and
    k = 21 land on Moodle's grade list; its default import skips the rest.
    """
    return on_grade_grid(-100.0 / (choice_count - 1))


class QuestionBank:
    """Ordered collection of questions bound to an XML output path."""

    def __init__(self, output_path, seed=None, wrong_fraction_rule=None):
        overrides = build_overrides.get()
        # Pathless banks (e.g. freshly parsed ones) are not build targets.
        if overrides is not None and output_path is not None:
            overrides["banks"].append(self)
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
        """Append a short-answer question accepting any of ``answers`` (a str is one,
        a set is sorted: model.as_values), graded +100 and compared as plain strings."""
        texts = [render_text(a) for a in as_values(answers)]
        self._append(QuestionKind.SHORT_ANSWER, name, question, ShortAnswerSet(texts))

    def addNumerical(self, name, question, answers, tolerance=0.01) -> None:
        """Append a numerical question accepting each of ``answers`` within ±tolerance."""
        payload = NumericalAnswerSet(as_values(answers), tolerance)
        self._append(QuestionKind.NUMERICAL, name, question, payload)
        payload.tolerance = float(tolerance)  # checked finite above

    def addMultipleChoice(self, name, question, choices) -> None:
        """Append a single-answer multiple-choice question.

        ``choices`` is read in order (a set is refused, a str is one value).
        The first value is the correct one (graded +100); the rest receive
        the bank's wrong-answer fraction. Values are rendered with str(),
        line breaks as LF. If two choices render to the same trimmed text
        the question is rejected with a warning and the bank is unchanged.
        """
        if isinstance(choices, (set, frozenset)):
            raise ValidationError(
                "choices must be an ordered sequence (the first element is the correct one)"
            )
        texts = [render_text(c) for c in as_values(choices)]
        # The rule is only defined for k >= 2; fewer choices fail the check.
        wrong = self.wrong_fraction_rule(len(texts)) if len(texts) > 1 else 0.0
        try:
            self._append(QuestionKind.MULTIPLE_CHOICE, name, question, graded_choices(texts, wrong))
        except DuplicateTextError as exc:
            self.warn(f"{exc}; question {name!r} not added")

    def addMatching(self, name, question, pairs) -> None:
        """Append a matching question from (prompt, match) pairs, e.g. ``dict.items()``.

        Prompts must be pairwise distinct; matches may repeat (the LMS
        merges repeated matches into one drop-down entry).
        """
        rendered = value_pairs(pairs)
        self._append(QuestionKind.MATCHING, name, question, MatchPairList(rendered))

    # -- random generation (pool-based) --------------------------------------

    addMultipleChoiceFromLists = generators.addMultipleChoiceFromLists
    addMultipleChoiceFromPairs = generators.addMultipleChoiceFromPairs
    addCompleteCode = generators.addCompleteCode

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

