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
from pathlib import Path

from . import generators
from .errors import QuizbankError, ValidationError
from .fileio import atomic_write_bytes
from .model import (
    Choice,
    ChoiceSet,
    MatchPairList,
    NumericalAnswerSet,
    Question,
    QuestionKind,
    ShortAnswerSet,
    normalize,
    normalize_newlines,
    render_text,
    require_finite_number,
    validate_category_path,
)

# Populated by the CLI "build" command to redirect scripts it executes;
# None whenever no build is in progress.
_build_overrides: dict | None = None


def set_build_overrides(seed=None, output_path=None) -> None:
    global _build_overrides
    _build_overrides = {"seed": seed, "out": output_path, "out_used": False}


def clear_build_overrides() -> None:
    global _build_overrides
    _build_overrides = None


def default_wrong_fraction(choice_count: int) -> float:
    """Penalty making random guessing expectation-neutral: -100/(k-1).

    Rounded to 5 decimals so the value lands on the grade grid accepted
    by LMS importers (-33.33333 for four choices).
    """
    return round(-100.0 / (choice_count - 1), 5)


class QuestionBank:
    """Ordered collection of questions bound to an XML output path."""

    def __init__(self, output_path, seed=None, wrong_fraction_rule=None):
        overrides = _build_overrides
        # Pathless banks (e.g. freshly parsed ones) are not build targets.
        if overrides is not None and output_path is not None:
            if overrides["seed"] is not None:
                seed = overrides["seed"]
            if overrides["out"] is not None and not overrides["out_used"]:
                output_path = overrides["out"]
                overrides["out_used"] = True
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
        self._require_open()
        stem = self._check_stem(question)
        answers = _as_answer_list(answers)
        if not answers:
            raise ValidationError("a short-answer question needs at least one answer")
        texts = [normalize_newlines(render_text(a)) for a in answers]
        _reject_duplicates(texts, "short answer")
        self._append(
            Question(QuestionKind.SHORT_ANSWER, str(name), stem, ShortAnswerSet(texts))
        )

    def addNumerical(self, name, question, answers, tolerance=0.01) -> None:
        """Append a numerical question accepting each answer within ±tolerance."""
        self._require_open()
        stem = self._check_stem(question)
        answers = _as_answer_list(answers)
        if not answers:
            raise ValidationError("a numerical question needs at least one answer")
        for value in answers:
            require_finite_number(value, "numerical answer")
        require_finite_number(tolerance, "tolerance")
        if tolerance < 0:
            raise ValidationError(f"tolerance must be non-negative, got {tolerance}")
        self._append(
            Question(
                QuestionKind.NUMERICAL,
                str(name),
                stem,
                NumericalAnswerSet(answers, float(tolerance)),
            )
        )

    def addMultipleChoice(self, name, question, choices) -> None:
        """Append a single-answer multiple-choice question.

        The first element of ``choices`` is the correct one (graded +100);
        the rest receive the bank's wrong-answer fraction. Values that are
        not strings are rendered to text deterministically. If two choices
        render to the same text the question is rejected with a warning
        and the bank is left unchanged.
        """
        self._require_open()
        stem = self._check_stem(question)
        if isinstance(choices, (set, frozenset)):
            raise ValidationError(
                "choices must be an ordered sequence (the first element is the correct one)"
            )
        choices = list(choices)
        if len(choices) < 2:
            raise ValidationError("a multiple-choice question needs at least 2 choices")
        texts = [render_text(c) for c in choices]
        duplicate = _first_duplicate(texts)
        if duplicate is not None:
            self.warn(
                f"duplicated choice text {duplicate!r}; question {name!r} not added"
            )
            return
        self._append_mcq(name, stem, texts[0], texts[1:])

    def addMatching(self, name, question, pairs) -> None:
        """Append a matching question from (prompt, match) pairs.

        Prompts must be pairwise distinct; matches may repeat (the LMS
        merges repeated matches into one drop-down entry).
        """
        self._require_open()
        stem = self._check_stem(question)
        pairs = list(pairs)
        if len(pairs) < 2:
            raise ValidationError("a matching question needs at least 2 pairs")
        rendered = [
            (normalize_newlines(render_text(p)), normalize_newlines(render_text(m)))
            for p, m in pairs
        ]
        _reject_duplicates([p for p, _ in rendered], "matching prompt")
        self._append(
            Question(QuestionKind.MATCHING, str(name), stem, MatchPairList(rendered))
        )

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
        self,
        title,
        pattern,
        source_text,
        tokens,
        extra_distractors=(),
        num_questions=-1,
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
            self,
            title,
            pattern,
            source_text,
            tokens,
            extra_distractors,
            num_questions,
            blank,
        )

    # -- lifecycle -----------------------------------------------------------

    def preview(self):
        """Render the bank to a temporary HTML file and open a browser on it.

        If no browser can be launched the path is printed instead. Returns
        the path of the rendered file.
        """
        from .preview import open_preview

        return open_preview(self)

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
        from .moodle_xml import serialize_bank

        data = serialize_bank(self)
        try:
            atomic_write_bytes(self.output_path, data)
        except OSError as exc:
            raise QuizbankError(
                f"cannot write question bank to {self.output_path}: {exc}"
            ) from exc
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

    def _check_stem(self, question) -> str:
        if not isinstance(question, str) or not question.strip():
            raise ValidationError("question text must be a non-empty string")
        return normalize_newlines(question)

    def _append(self, question: Question) -> None:
        question.category = self.category
        question.name = normalize_newlines(question.name)
        self.questions.append(question)

    def _append_mcq(self, name, stem, correct_text, distractor_texts) -> None:
        # Callers have already guaranteed pairwise-distinct texts.
        wrong = self.wrong_fraction_rule(1 + len(distractor_texts))
        built = [Choice(normalize_newlines(correct_text), 100.0)]
        built += [Choice(normalize_newlines(t), wrong) for t in distractor_texts]
        stem = self._check_stem(stem)
        self._append(
            Question(QuestionKind.MULTIPLE_CHOICE, str(name), stem, ChoiceSet(built))
        )


def _as_answer_list(answers) -> list:
    """Promote a scalar answer to a list; order set inputs deterministically."""
    if isinstance(answers, (set, frozenset)):
        return sorted(answers, key=render_text)
    if isinstance(answers, (list, tuple, range)):
        return list(answers)
    return [answers]


def _first_duplicate(texts):
    seen = set()
    for text in texts:
        key = normalize(text)
        if key in seen:
            return text
        seen.add(key)
    return None


def _reject_duplicates(texts, what: str) -> None:
    duplicate = _first_duplicate(texts)
    if duplicate is not None:
        raise ValidationError(f"duplicate {what}: {duplicate!r}")
