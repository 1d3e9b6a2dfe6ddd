"""Bulk edits: literal text replacement and wrong-penalty rewrites."""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizbank import (
    QuestionBank,
    ValidationError,
    parse_bank,
    replace_text,
    replace_text_pattern,
    serialize_bank,
    set_wrong_penalty,
)
from quizbank.cli import main
from quizbank.model import question_texts



_NEEDLES = st.text("ab", min_size=1, max_size=3)


class TestReplaceText:
    def test_single_occurrence_in_matching_pair(self, rich_bank):
        count = replace_text(rich_bank, "Flux", "Radiant flux")
        assert count == 1
        units = next(q for q in rich_bank.questions if q.name == "units")
        assert units.payload.pairs[0] == ("Radiant flux", "W")

    def test_absent_text_changes_nothing(self, rich_bank):
        before = serialize_bank(rich_bank)
        assert replace_text(rich_bank, "not-in-the-bank", "x") == 0
        assert serialize_bank(rich_bank) == before

    def test_reverse_replacement_restores_bank(self, rich_bank):
        before = serialize_bank(rich_bank)
        replace_text(rich_bank, "Flux", "Radiant flux")
        replace_text(rich_bank, "Radiant flux", "Flux")
        assert serialize_bank(rich_bank) == before

    def test_counts_every_occurrence(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("alpha", "alpha or alpha?", ["alpha"])
        assert replace_text(bank, "alpha", "beta") == 4
        assert bank.questions[0].name == "beta"
        assert bank.questions[0].stem == "beta or beta?"
        assert bank.questions[0].payload.answers == ["beta"]

    def test_numerical_values_are_exempt(self, make_bank):
        bank = make_bank()
        bank.addNumerical("", "Compute the answer to everything", [42], 0.5)
        assert replace_text(bank, "42", "43") == 0
        assert bank.questions[0].payload.answers == [42]

    def test_empty_old_rejected(self, rich_bank):
        with pytest.raises(ValidationError):
            replace_text(rich_bank, "", "x")

    def test_regex_variant(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Week 1 and week 2 and week 13", ["w"])
        assert replace_text_pattern(bank, r"week (\d+)", r"unit \1") == 2
        assert bank.questions[0].stem == "Week 1 and unit 2 and unit 13"

    def test_question_count_kinds_and_fractions_untouched(self, rich_bank):
        kinds = [q.kind for q in rich_bank.questions]
        replace_text(rich_bank, "a", "b")
        assert [q.kind for q in rich_bank.questions] == kinds
        mcq = next(q for q in rich_bank.questions if q.name == "pick-root")
        assert [c.fraction for c in mcq.payload.choices] == [100.0] + [-33.33333] * 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.text("ab", max_size=8), min_size=4, max_size=4), max_size=3),
        st.one_of(
            st.tuples(_NEEDLES, st.text("ab", max_size=4)),
            _NEEDLES.flatmap(lambda old: st.tuples(  # the same length, old itself included
                st.just(old), st.text("ab", min_size=len(old), max_size=len(old)))),
            st.tuples(_NEEDLES, st.text("ab", max_size=2), st.text("ab", max_size=2)).map(
                lambda drawn: (drawn[0], drawn[1] + drawn[0] + drawn[2])),  # new holds old
            _NEEDLES.map(lambda old: (old, old)),
        ),
    )
    @example([["aaaaa", "aa", "aaa", "a"]], ("aa", "b"))  # overlapping needles
    @example([["aaaaa", "aa", "aaa", "a"]], ("aa", "bb"))
    @example([["aaaaa", "aa", "aaa", "a"]], ("aa", "aaa"))
    @example([["aaaaa", "aa", "aaa", "a"]], ("aa", "aa"))
    def test_count_and_texts_match_str_replace(self, questions, pair):
        # The markers hold no "a" or "b": no edit can empty a stem or join two answers.
        old, new = pair
        bank = QuestionBank(None)
        for index, (name, stem, *answers) in enumerate(questions):
            bank.addShortAnswer(
                f"<{index}n>{name}", f"<{index}s>{stem}",
                [f"<{index}a{number}>{answer}" for number, answer in enumerate(answers)],
            )
        before = [question_texts(question) for question in bank.questions]
        expected = [[text.replace(old, new) for text in texts] for texts in before]
        count = sum(text.count(old) for texts in before for text in texts
                    if text.replace(old, new) != text)  # 0 when old == new
        assert replace_text(bank, old, new) == count
        assert [question_texts(question) for question in bank.questions] == expected


def _animals_bank(prompts=("fox", "fix")):
    bank = QuestionBank(None)
    bank.addMultipleChoice("animals", "Which animal?", ["cat", "cot", "dog"])
    bank.addMatching("words", "Match the words", [(prompts[0], "1"), (prompts[1], "2")])
    bank.addShortAnswer("greeting", "Say hello", ["hello"])
    return bank


class TestReplaceKeepsInvariants:
    @pytest.mark.parametrize(
        "edit, prompts, message",
        [
            ((replace_text, "o", "a"), ("fox", "fix"),
             "question 1 ('animals'): duplicated choice text 'cat'"),
            ((replace_text, "i", "a"), ("fax", "fix"),
             "question 2 ('words'): duplicate matching prompt: 'fax'"),
            ((replace_text_pattern, ".+", ""), ("fox", "fix"),
             "question 1 ('animals'): question text must be a non-empty string"),
            ((replace_text, "Say hello", "\t"), ("fox", "fix"),
             "question 3 ('greeting'): question text must be a non-empty string"),
        ],
        ids=["choices", "prompts", "regex-empties-all", "blank-stem"],
    )
    def test_breaking_edit_raises_and_changes_nothing(self, edit, prompts, message):
        bank = _animals_bank(prompts)
        before = serialize_bank(bank)
        objects = list(bank.questions)
        function, old, new = edit
        with pytest.raises(ValidationError) as err:
            function(bank, old, new)
        assert str(err.value).startswith(message)
        assert serialize_bank(bank) == before
        assert all(a is b for a, b in zip(bank.questions, objects))

    def test_duplicate_short_answer_rejected(self):
        bank = QuestionBank(None)
        bank.addShortAnswer("colour", "Spell it", ["color", "colour"])
        with pytest.raises(ValidationError, match="question 1 \\('colour'\\): duplicate short"):
            replace_text(bank, "colour", "color")

    def test_existing_faults_elsewhere_are_not_judged(self):
        bank = parse_bank(FOREIGN_DUPLICATES)
        assert replace_text(bank, "Paris", "Lyon") == 1
        assert bank.questions[1].payload.answers == ["Lyon"]
        assert [c.text for c in bank.questions[0].payload.choices] == ["same", "same"]

    def test_changed_question_is_judged_in_full(self):
        bank = parse_bank(FOREIGN_DUPLICATES)
        before = serialize_bank(bank)
        with pytest.raises(ValidationError, match="question 1 \\('twins'\\): duplicated choice"):
            replace_text(bank, "twins", "pair")
        assert serialize_bank(bank) == before

    def test_unchanged_texts_are_not_edits(self):
        # A replacement that rewrites text to itself changes no question.
        bank = parse_bank(FOREIGN_DUPLICATES)
        before = serialize_bank(bank)
        assert replace_text_pattern(bank, "same", "same") == 0
        assert replace_text(bank, "s", "s") == 0
        assert serialize_bank(bank) == before


FOREIGN_DUPLICATES = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="multichoice">
    <name><text>twins</text></name>
    <questiontext format="html"><text>Pick</text></questiontext>
    <answer fraction="100"><text>same</text></answer>
    <answer fraction="-100"><text>same</text></answer>
  </question>
  <question type="shortanswer">
    <name><text>capital</text></name>
    <questiontext format="html"><text>Capital of France?</text></questiontext>
    <answer fraction="100"><text>Paris</text></answer>
  </question>
</quiz>
"""


class TestSetWrongPenalty:
    def test_all_multichoice_updated(self, make_bank):
        bank = make_bank(seed=1)
        for i in range(10):
            bank.addMultipleChoice(f"q{i}", f"Q{i}?", [f"r{i}", "w1", "w2", "w3"])
        assert set_wrong_penalty(bank, 0) == 10
        for question in bank.questions:
            fractions = sorted(c.fraction for c in question.payload.choices)
            assert fractions == [0.0, 0.0, 0.0, 100.0]

    def test_bank_without_multichoice_reports_zero(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        bank.addNumerical("", "N?", [1])
        assert set_wrong_penalty(bank, 0) == 0

    def test_setting_current_value_is_byte_identical(self, rich_bank):
        before = serialize_bank(rich_bank)
        set_wrong_penalty(rich_bank, -100.0 / 3)
        assert serialize_bank(rich_bank) == before

    def test_correct_choice_and_other_kinds_untouched(self, rich_bank):
        set_wrong_penalty(rich_bank, -10)
        mcq = next(q for q in rich_bank.questions if q.name == "pick-root")
        assert mcq.payload.choices[0].fraction == 100.0
        assert all(c.fraction == -10 for c in mcq.payload.choices[1:])
        units = next(q for q in rich_bank.questions if q.name == "units")
        assert units.payload.pairs[0] == ("Flux", "W")

    @pytest.mark.parametrize("bad", [50, -101, 0.1, float("nan")])
    def test_out_of_range_rejected(self, rich_bank, bad):
        before = serialize_bank(rich_bank)
        with pytest.raises(ValidationError):
            set_wrong_penalty(rich_bank, bad)
        assert serialize_bank(rich_bank) == before


    def test_any_real_number_accepted(self, rich_bank):
        assert set_wrong_penalty(rich_bank, Fraction(-25)) == 2
        mcq = next(q for q in rich_bank.questions if q.name == "pick-root")
        assert [c.fraction for c in mcq.payload.choices] == [100.0, -25.0, -25.0, -25.0]

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), True, "-25", None])
    def test_non_finite_and_non_numbers_rejected(self, rich_bank, bad):
        before = serialize_bank(rich_bank)
        with pytest.raises(ValidationError):
            set_wrong_penalty(rich_bank, bad)
        assert serialize_bank(rich_bank) == before

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 4), st.sampled_from([0.0, -20.0, -100.0 / 3, -50.0])),
                 max_size=4),
        st.one_of(st.sampled_from([0, -20, -33.33333, -100.0 / 3, -50.000001]),
                  st.floats(-100, 0)),
    )
    def test_in_place_set_penalty_writes_exactly_when_the_bytes_change(self, questions, fraction):
        # On a read bank, whose fractions lie on the 5-decimal grid: the command
        # writes the bank and a .bak exactly when the library edit changes a byte.
        bank = QuestionBank(None)
        for index, (wrong_count, wrong) in enumerate(questions):
            bank.wrong_fraction_rule = lambda count, wrong=wrong: wrong
            bank.addMultipleChoice(f"q{index}", "Pick:", [f"c{i}" for i in range(wrong_count + 1)])
        bank = parse_bank(before := serialize_bank(bank))
        assert set_wrong_penalty(bank, fraction) == len(questions)
        after = serialize_bank(bank)
        with tempfile.TemporaryDirectory() as name:
            path = Path(name) / "bank.xml"
            path.write_bytes(before)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(["maintain", str(path), "set-penalty", "--", repr(float(fraction))]) == 0
            assert out.getvalue() == f"questions updated: {len(questions)}\n"
            assert path.read_bytes() == after
            backups = [p.read_bytes() for p in Path(name).glob("bank.xml.*.bak")]
            assert backups == ([before] if after != before else [])
            assert len(list(Path(name).iterdir())) == 1 + len(backups)

    def test_partial_credit_kept_on_foreign_bank(self):
        bank = parse_bank(FOREIGN_PARTIAL_CREDIT)
        assert set_wrong_penalty(bank, -10) == 1
        assert [c.fraction for c in bank.questions[0].payload.choices] == [100, 50, -10, -10]
        assert [c.fraction for c in bank.questions[1].payload.choices] == [100, 50]


FOREIGN_PARTIAL_CREDIT = b"""<?xml version="1.0" encoding="UTF-8"?>
<quiz>
  <question type="multichoice">
    <name><text>partial</text></name>
    <questiontext format="html"><text>Pick</text></questiontext>
    <answer fraction="100"><text>right</text></answer>
    <answer fraction="50"><text>half right</text></answer>
    <answer fraction="-25"><text>wrong</text></answer>
    <answer fraction="0"><text>neutral</text></answer>
  </question>
  <question type="multichoice">
    <name><text>no wrong choice</text></name>
    <questiontext format="html"><text>Pick</text></questiontext>
    <answer fraction="100"><text>right</text></answer>
    <answer fraction="50"><text>half right</text></answer>
  </question>
</quiz>
"""


class TestComposition:
    def test_maintain_parse_serialize_pipeline(self, rich_bank):
        data = serialize_bank(rich_bank)
        bank = parse_bank(data)
        replace_text(bank, "Flux", "Radiant flux")
        set_wrong_penalty(bank, 0)
        again = parse_bank(serialize_bank(bank))
        assert serialize_bank(again) == serialize_bank(bank)
        assert "Radiant flux" in serialize_bank(again).decode()
