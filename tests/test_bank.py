"""Single-question builders, bank lifecycle, and model invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import (
    CapacityError,
    QuestionBank,
    QuizbankError,
    ValidationError,
    default_wrong_fraction,
    parse_bank,
    serialize_bank,
)
from quizbank.model import render_text


class TestConstruction:
    def test_new_bank_is_empty(self, tmp_path):
        bank = QuestionBank(tmp_path / "out.xml")
        assert len(bank) == 0
        assert bank.category == ""

    def test_seeded_banks_draw_identically(self, tmp_path):
        a = QuestionBank(tmp_path / "a.xml", seed=42)
        b = QuestionBank(tmp_path / "b.xml", seed=42)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_six_adds_preserve_insertion_order(self, make_bank):
        bank = make_bank()
        for i in range(6):
            bank.addShortAnswer(f"q{i}", f"Question {i}?", [f"answer {i}"])
        assert [q.name for q in bank.questions] == [f"q{i}" for i in range(6)]


class TestSetCategory:
    def test_subsequent_questions_carry_category(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Before?", ["x"])
        bank.setCategory("Calculus/Derivatives")
        bank.addShortAnswer("", "After?", ["y"])
        assert bank.questions[0].category == ""
        assert bank.questions[1].category == "Calculus/Derivatives"

    def test_empty_path_selects_default(self, make_bank):
        bank = make_bank()
        bank.setCategory("Topic")
        bank.setCategory("")
        bank.addShortAnswer("", "Q?", ["x"])
        assert bank.questions[0].category == ""

    def test_empty_segment_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.setCategory("A//B")
        with pytest.raises(ValidationError):
            bank.setCategory("/A")

    @pytest.mark.parametrize("path", ["Topic ", " ", "A/B\n"])
    def test_trailing_whitespace_rejected(self, make_bank, path):
        # The reader strips the marker text, so such a path cannot round-trip.
        bank = make_bank()
        with pytest.raises(ValidationError, match="ends in whitespace"):
            bank.setCategory(path)
        assert bank.category == ""

    @pytest.mark.parametrize("path", [None, 3, b"A"])
    def test_non_string_rejected(self, make_bank, path):
        bank = make_bank(seed=1)
        bank.setCategory("Topic")
        bank.addShortAnswer("", "Q?", ["x"])
        state = bank.rng.getstate()
        with pytest.raises(ValidationError, match="category path must be a string"):
            bank.setCategory(path)
        assert bank.category == "Topic"
        assert [q.category for q in bank.questions] == ["Topic"]
        assert bank.warnings == [] and bank.rng.getstate() == state

    @pytest.mark.parametrize("path", [" Topic", "A / B"])
    def test_padded_segments_round_trip(self, make_bank, path):
        bank = make_bank()
        bank.setCategory(path)
        bank.addShortAnswer("", "Q?", ["x"])
        data = serialize_bank(bank)
        recovered = parse_bank(data)
        assert recovered.questions[0].category == path
        assert serialize_bank(recovered) == data


class TestShortAnswer:
    def test_scalar_promotes_to_singleton(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Capital of France?", "Paris")
        assert bank.questions[0].payload.answers == ["Paris"]

    def test_multiple_accepted_answers(self, make_bank):
        primes = [101, 103, 107, 109, 113]
        bank = make_bank()
        bank.addShortAnswer("", "Enter a 3-digit prime number:", primes)
        assert bank.questions[0].payload.answers == [str(p) for p in primes]
        bank.addShortAnswer("", "Enter a prime:", {7, 13, 101})  # ordered by rendered text
        assert bank.questions[1].payload.answers == ["101", "13", "7"]

    def test_duplicate_answers_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addShortAnswer("", "Q?", ["a", "b", "a"])

    def test_empty_answer_list_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addShortAnswer("", "Q?", [])

    def test_empty_question_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addShortAnswer("", "   ", ["a"])


class TestNumerical:
    def test_quadratic_roots(self, make_bank):
        # Roots of 2x^2+4x-30 = 0, checked by substitution.
        roots = [3, -5]
        for x in roots:
            assert 2 * x**2 + 4 * x - 30 == 0
        bank = make_bank()
        bank.addNumerical("", "Solve \\(2x^2+4x-30=0\\)", roots, 0.01)
        payload = bank.questions[0].payload
        assert payload.answers == [3, -5]
        assert payload.tolerance == 0.01

    def test_zero_answer_with_default_tolerance(self, make_bank):
        bank = make_bank()
        bank.addNumerical("", "Compute 0+0", [0])
        payload = bank.questions[0].payload
        assert payload.answers == [0]
        assert payload.tolerance == 0.01

    def test_negative_tolerance_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addNumerical("", "Q?", [1], tolerance=-1)

    def test_non_finite_answer_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addNumerical("", "Q?", [float("nan")])
        with pytest.raises(ValidationError):
            bank.addNumerical("", "Q?", [float("inf")])

    @pytest.mark.parametrize(
        "huge", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative", "fraction"]
    )
    def test_answer_beyond_float_range_rejected(self, make_bank, huge):
        bank = make_bank()
        with pytest.raises(ValidationError, match="numerical answer must be finite"):
            bank.addNumerical("", "q", [huge])
        assert len(bank) == 0

    def test_tolerance_beyond_float_range_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError, match="tolerance must be finite"):
            bank.addNumerical("", "q", [1], tolerance=10**400)
        assert len(bank) == 0

    def test_scalar_answer_promotes(self, make_bank):
        bank = make_bank()
        bank.addNumerical("", "Compute 2+2", 4)
        assert bank.questions[0].payload.answers == [4]


class TestMultipleChoice:
    def test_first_choice_is_correct(self, make_bank):
        bank = make_bank()
        bank.addMultipleChoice("", "Select a solution for \\(2x^2+4x-30=0\\)", [3, 2, 4, 5])
        choices = bank.questions[0].payload.choices
        assert choices[0].text == "3"
        assert choices[0].fraction == 100
        assert [c.fraction for c in choices[1:]] == [-33.33333] * 3
        with pytest.raises(ValidationError, match="ordered sequence"):  # a set has no first
            bank.addMultipleChoice("", "Select one", {3, 2, 4, 5})
        assert len(bank) == 1

    def test_two_choices_penalty_is_minus_100(self, make_bank):
        bank = make_bank()
        bank.addMultipleChoice("", "True or false: 1 < 2", ["True", "False"])
        assert bank.questions[0].payload.choices[1].fraction == -100

    def test_duplicate_choices_warn_and_skip(self, make_bank, capsys):
        bank = make_bank()
        bank.addMultipleChoice("dup", "Q?", ["a", "a", "b", "c"])
        assert len(bank.questions) == 0
        assert len(bank.warnings) == 1
        assert "WARN:" in capsys.readouterr().err

    def test_too_few_choices_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMultipleChoice("", "Q?", ["only one"])

    def test_tuple_choices_render_deterministically(self, make_bank):
        bank = make_bank()
        bank.addMultipleChoice("", "Plausible indices?", [(1.1, 1.2), (2.1, 1.2), (1.1, 2.2)])
        texts = [c.text for c in bank.questions[0].payload.choices]
        assert texts == ["(1.1, 1.2)", "(2.1, 1.2)", "(1.1, 2.2)"]

    def test_custom_wrong_fraction_rule(self, tmp_path):
        bank = QuestionBank(tmp_path / "b.xml", wrong_fraction_rule=lambda k: 0.0)
        bank.addMultipleChoice("", "Q?", ["a", "b", "c", "d"])
        assert [c.fraction for c in bank.questions[0].payload.choices[1:]] == [0.0] * 3


class TestWrongFractionRule:
    @pytest.mark.parametrize(
        "k,expected", [(2, -100.0), (3, -50.0), (4, -33.33333), (5, -25.0), (6, -20.0)]
    )
    def test_default_rule_on_grid(self, k, expected):
        assert default_wrong_fraction(k) == expected

    def test_wrong_fractions_sum_to_minus_100_up_to_grid_rounding(self, make_bank):
        for k in range(2, 9):
            bank = make_bank()
            bank.addMultipleChoice("", "Q?", [f"c{i}" for i in range(k)])
            wrong_sum = sum(
                c.fraction for c in bank.questions[0].payload.choices if c.fraction != 100
            )
            assert abs(wrong_sum + 100) < 1e-3


class TestMatching:
    def test_pairs_preserved_in_order(self, make_bank):
        pairs = [
            ("Flux", "W"),
            ("Intensity", "W/sr"),
            ("Irradiance", "W/m^2"),
            ("Radiance", "W/(sr*m^2)"),
        ]
        bank = make_bank()
        bank.addMatching("", "Match magnitudes with units:", pairs)
        assert bank.questions[0].payload.pairs == pairs

    def test_single_pair_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMatching("", "Q?", [("a", "1")])

    def test_duplicate_matches_accepted(self, make_bank):
        bank = make_bank()
        bank.addMatching("", "Q?", [("Lyon", "France"), ("Marseille", "France")])
        assert len(bank.questions) == 1

    def test_duplicate_prompts_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMatching("", "Q?", [("a", "1"), ("a", "2")])


class TestClose:
    def test_writes_all_questions(self, make_bank):
        bank = make_bank()
        for i in range(3):
            bank.addShortAnswer("", f"Q{i}?", [f"a{i}"])
        bank.close()
        content = bank.output_path.read_bytes()
        assert content.count(b"<question type=") == 3

    def test_close_twice_warns_once(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        bank.close()
        bank.close()
        assert len(bank.warnings) == 1
        assert bank.output_path.exists()

    def test_empty_bank_writes_valid_document_with_warning(self, make_bank):
        bank = make_bank()
        bank.close()
        assert bank.warnings
        from quizbank import parse_bank

        assert parse_bank(bank.output_path.read_bytes()).questions == []

    def test_category_marker_precedes_questions(self, rich_bank):
        data = serialize_bank(rich_bank)
        assert data.index(b"$course$/top/Algebra/Quadratics") < data.index(b"2x^2")

    def test_unwritable_path_names_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.xml"
        bank = QuestionBank(target)
        bank.addShortAnswer("", "Q?", ["a"])
        with pytest.raises(QuizbankError) as err:
            bank.close()
        assert "out.xml" in str(err.value)
        assert not target.exists()
        parsed = parse_bank(serialize_bank(bank))  # a parsed bank has no path
        with pytest.raises(QuizbankError, match="bank has no output path; cannot close"):
            parsed.close()
        assert not parsed.closed

    def test_mutation_after_close_raises(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        bank.close()
        with pytest.raises(QuizbankError):
            bank.addShortAnswer("", "Another?", ["b"])
        with pytest.raises(QuizbankError):
            bank.setCategory("X")


class TestDeterministicOutput:
    def test_fixed_seed_gives_byte_identical_xml(self, tmp_path):
        def build(path):
            bank = QuestionBank(path, seed=42)
            bank.addMultipleChoiceFromLists(
                "g", "stem", ["a", "b", "c"], ["d", "e", "f", "g", "h"], 9
            )
            bank.close()
            return path.read_bytes()

        assert build(tmp_path / "one.xml") == build(tmp_path / "two.xml")


class Float64(float):
    """Stand-in for numpy.float64: str() gives the plain float form, repr()
    names the type."""

    def __str__(self):
        return float.__repr__(self)

    def __repr__(self):
        return f"np.float64({float.__repr__(self)})"


def canonical(text):
    """Reference for the comparison key: line breaks as LF, then trimmed."""
    return text.replace("\r\n", "\n").replace("\r", "\n").strip()


class TestCanonicalText:
    def test_choices_differing_only_in_line_breaks_are_duplicates(self, make_bank, capsys):
        bank = make_bank()
        bank.addMultipleChoice("", "q", ["a\r\nb", "a\nb", "c"])
        bank.addMultipleChoice("", "q", ["a\rb", "c", "a\nb"])
        assert len(bank) == 0
        assert capsys.readouterr().err.count("WARN: duplicated choice text") == 2

    def test_float_subclass_round_trips(self, make_bank):
        bank = make_bank()
        bank.addMultipleChoice("", "Pick one", [Float64(0.5), Float64(0.25), 1])
        bank.addNumerical("", "Value?", [Float64(0.1), 3], tolerance=Float64(0.05))
        data = serialize_bank(bank)
        assert b"np.float64" not in data
        recovered = parse_bank(data)
        assert serialize_bank(recovered) == data
        assert [c.text for c in recovered.questions[0].payload.choices] == ["0.5", "0.25", "1"]
        assert recovered.questions[1].payload.answers == [0.1, 3]
        assert recovered.questions[1].payload.tolerance == 0.05

    def test_container_items_print_with_str(self, make_bank):
        # Items print with str(), except str items (repr's quotes) and tuple or
        # list items (this same rule, at every depth).
        assert render_text((Float64(0.5), 1)) == "(0.5, 1)"
        assert render_text(("a", 2)) == "('a', 2)"
        assert render_text((Fraction(1, 2),)) == "(1/2,)"
        assert render_text([1, [Fraction(3, 4), ("b",)], None]) == "[1, [3/4, ('b',)], None]"
        looped = [1]
        looped.append(looped)
        assert render_text(looped) == str(looped) == "[1, [...]]"
        bank = make_bank()
        bank.addMultipleChoice("", "q", [(Float64(0.5), 1), (0.5, 1), (1, 0), (0, 0)])
        assert len(bank) == 0
        assert bank.warnings == ["duplicated choice text '(0.5, 1)'; question '' not added"]
        np = pytest.importorskip("numpy")
        assert render_text((np.float64(0.5), 1)) == "(0.5, 1)"
        bank.addMultipleChoice("", "q", [(np.float64(0.5), 1), (0.5, 1), (1, 0), (0, 0)])
        assert len(bank) == 0 and len(bank.warnings) == 2

    def test_fraction_answers_and_tolerance(self, make_bank):
        bank = make_bank()
        bank.addNumerical("", "Value?", [Fraction(1, 4), Fraction(6, 3)], Fraction(1, 20))
        data = serialize_bank(bank)
        assert b"<text>0.25</text>" in data and b"<text>2.0</text>" in data
        assert b"<tolerance>0.05</tolerance>" in data
        recovered = parse_bank(data)
        assert recovered.questions[0].payload.answers == [0.25, 2.0]
        assert serialize_bank(recovered) == data

    def test_numpy_scalar_answers_and_tolerance(self, make_bank):
        np = pytest.importorskip("numpy")
        bank = make_bank()
        answers = [np.int64(3), np.float32(0.1), np.float64(-2.5), np.int8(-7)]
        bank.addNumerical("", "Value?", answers, tolerance=np.float32(0.5))
        data = serialize_bank(bank)
        for text in (b"3", b"0.10000000149011612", b"-2.5", b"-7"):
            assert b"<text>%s</text>" % text in data
        assert data.count(b"<tolerance>0.5</tolerance>") == 4
        recovered = parse_bank(data)
        assert recovered.questions[0].payload.answers == [3, 0.10000000149011612, -2.5, -7]
        assert serialize_bank(recovered) == data

    @pytest.mark.parametrize("value", [True, "3", None, complex(1, 0)])
    def test_non_real_answers_rejected(self, make_bank, value):
        bank = make_bank()
        with pytest.raises(ValidationError, match="numerical answer must be a number"):
            bank.addNumerical("", "Value?", [value])
        assert len(bank) == 0


# Line breaks drawn often, and between letters, where trimming keeps them.
_LF_TEXT = st.lists(st.sampled_from(["a", "b", " ", "\t", "\n", "a\nb"]), max_size=4).map("".join)
_BREAK = st.sampled_from(["\r\n", "\r", "\n"])


@st.composite
def spelled_texts(draw, min_size, max_size):
    """Padded texts, each written out once or twice with every line break
    spelled \\r\\n, \\r or \\n at random, in shuffled order."""
    spelled = [
        "".join(draw(_BREAK) if ch == "\n" else ch for ch in text)
        for text in draw(st.lists(_LF_TEXT, min_size=min_size, max_size=max_size))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return draw(st.permutations(spelled))


class TestBuilderTextProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        choices=spelled_texts(2, 4),
        correct=spelled_texts(1, 3),
        distractors=spelled_texts(3, 6),
    )
    def test_distinct_choices_exact_capacity_and_round_trip(self, choices, correct, distractors):
        bank = QuestionBank(None, seed=0)
        bank.addMultipleChoice("", "Pick\r\none", choices)
        keys = [canonical(t) for t in choices]
        assert len(bank) == (len(set(keys)) == len(keys))

        correct_keys = {canonical(t) for t in correct}
        distractor_keys = {canonical(t) for t in distractors}
        if correct_keys & distractor_keys or len(distractor_keys) < 3:
            with pytest.raises(ValidationError):
                bank.addMultipleChoiceFromLists("", "Pick\rone", correct, distractors)
        else:
            bank.addMultipleChoiceFromLists("", "Pick\rone", correct, distractors)
            capacity = len(correct_keys) * math.comb(len(distractor_keys), 3)
            before = (len(bank), bank.rng.getstate())
            with pytest.raises(CapacityError):
                bank.addMultipleChoiceFromLists(
                    "", "Pick\rone", correct, distractors, capacity + 1
                )
            assert (len(bank), bank.rng.getstate()) == before

        for question in bank.questions:
            texts = [canonical(c.text) for c in question.payload.choices]
            assert len(set(texts)) == len(texts)
        data = serialize_bank(bank)
        assert serialize_bank(parse_bank(data)) == data
