"""The question invariants hold through every path that changes a bank.

A stateful property test drives one bank through random builder calls,
generator calls, maintenance edits and serialize/parse round trips, and
checks after every step that each question passes model.check_question,
that the writer's output round-trips byte for byte, and that a call that
raises leaves the bank as it was.
"""

import copy
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from quizbank import (
    QuestionBank,
    QuizbankError,
    SamplingError,
    parse_bank,
    replace_text,
    replace_text_pattern,
    serialize_bank,
    set_wrong_penalty,
)
from quizbank.model import check_question

# Few letters, so that texts collide and edits make duplicates often.
# XML-illegal characters are the writer's own boundary (serialize_bank
# raises; see test_moodle_xml), not a question invariant, so none are drawn.
_TEXT = st.text(alphabet="ab &<]>\n\t", max_size=4)
_NONEMPTY = st.text(alphabet="ab &<]>\n", min_size=1, max_size=3)
_TEXTS = st.lists(_TEXT, max_size=5)
_NUMBER = st.one_of(
    st.integers(-(10**3), 10**3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(max_denominator=7),
    st.sampled_from([10**400, -(10**400), Fraction(10**400, 3), True, "1"]),
)
_COUNT = st.sampled_from([-1, 0, 1, 2, 5, 30])
_PATTERN = st.sampled_from(["a", "b+", ".+", ".", "^", "$", "\\s+", "[ab]", "(a)|b", "(", "x*"])
_REPLACEMENT = st.sampled_from(["", " ", "a", "b", "ab", "\\1", "\\g<0>", "<&>", "\n"])


class BankMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bank = QuestionBank(None, seed=0)

    def attempt(self, call, *args):
        """Run one call; if it raises, the bank must be as it was."""
        bank = self.bank
        questions = copy.deepcopy(bank.questions)
        state, warnings = bank.rng.getstate(), list(bank.warnings)
        try:
            call(*args)
        except QuizbankError as exc:
            assert bank.questions == questions
            assert bank.rng.getstate() == state
            added = bank.warnings[len(warnings):]
            if isinstance(exc, SamplingError):
                # Documented: the pairs generator names each key it skips
                # before it gives up (test_generators::test_unusable_keys_error).
                added = [w for w in added if not w.startswith("skipping key")]
            assert bank.warnings[: len(warnings)] == warnings and added == []

    # -- the four builders -------------------------------------------------

    @rule(name=_TEXT, stem=_TEXT, answers=_TEXTS)
    def short_answer(self, name, stem, answers):
        self.attempt(self.bank.addShortAnswer, name, stem, answers)

    @rule(name=_TEXT, stem=_TEXT, answers=st.lists(_NUMBER, max_size=3), tolerance=_NUMBER)
    def numerical(self, name, stem, answers, tolerance):
        self.attempt(self.bank.addNumerical, name, stem, answers, tolerance)

    @rule(name=_TEXT, stem=_TEXT, choices=_TEXTS)
    def multiple_choice(self, name, stem, choices):
        self.attempt(self.bank.addMultipleChoice, name, stem, choices)

    @rule(name=_TEXT, stem=_TEXT, pairs=st.lists(st.tuples(_TEXT, _TEXT), max_size=4))
    def matching(self, name, stem, pairs):
        self.attempt(self.bank.addMatching, name, stem, pairs)

    # -- two generators ----------------------------------------------------

    @rule(title=_TEXT, stem=_TEXT, correct=_TEXTS, distractors=_TEXTS, count=_COUNT)
    def from_lists(self, title, stem, correct, distractors, count):
        self.attempt(
            self.bank.addMultipleChoiceFromLists, title, stem, correct, distractors, count
        )

    @rule(
        title=_TEXT,
        pattern=st.sampled_from(["%s", "Which is %s?", " %s ", "\n%s", "no placeholder"]),
        pairs=st.lists(st.tuples(_TEXT, _TEXT), max_size=6),
        extras=_TEXTS,
        count=_COUNT,
    )
    def from_pairs(self, title, pattern, pairs, extras, count):
        self.attempt(self.bank.addMultipleChoiceFromPairs, title, pattern, pairs, extras, count)

    # -- maintenance -------------------------------------------------------

    @rule(old=_NONEMPTY, new=_TEXT)
    def replace(self, old, new):
        self.attempt(replace_text, self.bank, old, new)

    @rule(pattern=_PATTERN, replacement=_REPLACEMENT)
    def replace_pattern(self, pattern, replacement):
        self.attempt(replace_text_pattern, self.bank, pattern, replacement)

    @rule(fraction=st.one_of(_NUMBER, st.integers(-100, 0), st.sampled_from([-100, -25.5])))
    def penalty(self, fraction):
        self.attempt(set_wrong_penalty, self.bank, fraction)

    @rule()
    def round_trip(self):
        parsed = parse_bank(serialize_bank(self.bank))
        assert parsed.warnings == []
        parsed.rng = self.bank.rng
        self.bank = parsed

    # -- invariants ----------------------------------------------------------

    @invariant()
    def every_question_keeps_the_invariants(self):
        for question in self.bank.questions:
            check_question(question)

    @invariant()
    def writer_output_round_trips(self):
        data = serialize_bank(self.bank)
        assert serialize_bank(parse_bank(data)) == data


BankMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestBankMachine = BankMachine.TestCase

