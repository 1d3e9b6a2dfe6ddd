"""Generator behavior: counting arithmetic, sampling, and the three pool kinds."""

import inspect
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quizbank import (
    CapacityError,
    QuestionBank,
    QuizbankError,
    SamplingError,
    ValidationError,
    count_distinct,
    count_unique,
    generators,
    sample_distractors,
)
from quizbank.generators import BLANK_MARKER, _unrank_triple


def enumerate_question_space(c, d):
    """Brute-force list of every (correct, 3-distractor-subset) question."""
    return [
        (correct, frozenset(combo))
        for correct in range(c)
        for combo in combinations(range(d), 3)
    ]


def question_signature(question):
    choices = question.payload.choices
    correct = [c.text for c in choices if c.fraction == 100]
    wrong = frozenset(c.text for c in choices if c.fraction != 100)
    assert len(correct) == 1
    return correct[0], wrong


def assert_generated_invariants(questions):
    """Checks shared by all generators: 4 distinct choices, one +100 each,
    first-c uniqueness handled by callers."""
    signatures = set()
    for question in questions:
        choices = question.payload.choices
        assert len(choices) == 4
        texts = [c.text.strip() for c in choices]
        assert len(set(texts)) == 4
        assert sum(1 for c in choices if c.fraction == 100) == 1
        signatures.add(question_signature(question))
    assert len(signatures) == len(questions), "questions are not pairwise distinct"


# -- counting ------------------------------------------------------------


class TestCounting:
    def test_count_unique_returns_c(self):
        assert count_unique(1) == 1
        assert count_unique(6) == 6

    def test_count_unique_matches_enumeration(self):
        space = enumerate_question_space(7, 10)
        assert count_unique(7) == len({correct for correct, _ in space})

    def test_count_unique_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            count_unique(0)
        with pytest.raises(ValidationError):
            count_unique(-2)

    def test_count_distinct_trivial(self):
        assert count_distinct(4, 3) == 4  # C(3,3) == 1

    def test_count_distinct_frozen_values(self):
        # Enumerated once by hand with the oracle below: 6*C(10,3) and 7*C(10,3).
        assert count_distinct(6, 10) == 720
        assert count_distinct(7, 10) == 840
        assert count_distinct(6, 10) == len(enumerate_question_space(6, 10))
        assert count_distinct(7, 10) == len(enumerate_question_space(7, 10))

    def test_count_distinct_matches_enumeration_small_grid(self):
        for c in range(1, 6):
            for d in range(3, 8):
                assert count_distinct(c, d) == len(enumerate_question_space(c, d))

    def test_count_distinct_rejects_small_pools(self):
        with pytest.raises(ValidationError):
            count_distinct(4, 2)


# -- distractor sampling ---------------------------------------------------


class TestSampleDistractors:
    def test_basic_draw(self):
        rng = random.Random(0)
        picked = sample_distractors([f"d{i}" for i in range(10)], 3, set(), rng)
        assert len(picked) == len(set(picked)) == 3

    def test_duplicates_collapse(self):
        rng = random.Random(0)
        picked = sample_distractors(["a", "b", "c", "a"], 3, set(), rng)
        assert sorted(picked) == ["a", "b", "c"]

    def test_exclusion(self):
        rng = random.Random(1)
        for _ in range(50):
            picked = sample_distractors(["a", "b", "c", "d"], 3, {"b"}, rng)
            assert "b" not in picked

    def test_insufficient_pool(self):
        with pytest.raises(SamplingError):
            sample_distractors(["a", "b"], 3, set(), random.Random(0))
        with pytest.raises(SamplingError):
            sample_distractors(["a", "b", "c"], 3, {"c"}, random.Random(0))

    def test_subsets_drawn_uniformly(self):
        # Pool of 4 choose 3 has exactly 4 outcomes; over 10,000 seeded
        # draws each should appear with frequency 0.25 +/- 0.02.
        rng = random.Random(1234)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            counts[frozenset(sample_distractors(["a", "b", "c", "d"], 3, set(), rng))] += 1
        assert len(counts) == 4
        for subset, count in counts.items():
            assert abs(count / draws - 0.25) < 0.02, subset


# -- list pools ------------------------------------------------------------


SHADER_CORRECT = [  # six items that satisfy the property being asked about
    "Write the projected vertex position.",
    "Forward texture coordinates to the next stage.",
    "Animate the mesh vertices.",
    "Compute per-vertex lighting.",
    "Compute the light vector.",
    "Compute lighting.",
]
SHADER_DISTRACTORS = [  # ten that do not
    "Call screen-space derivative functions.",
    "Discard the current sample.",
    "Write the output color.",
    "Read the window-space coordinates.",
    "Write the depth value.",
    "Apply bump mapping.",
    "Apply normal mapping.",
    "Write to read-only built-ins.",
    "Create new primitives.",
    "Create new fragments.",
]


class TestFromLists:
    def test_default_count_is_c(self, make_bank):
        bank = make_bank(seed=3)
        added = bank.addMultipleChoiceFromLists(
            "shader", "Select the task that belongs here:", SHADER_CORRECT, SHADER_DISTRACTORS
        )
        assert added == 6
        assert len(bank.questions) == 6
        assert_generated_invariants(bank.questions)
        corrects = [question_signature(q)[0] for q in bank.questions]
        assert sorted(corrects) == sorted(SHADER_CORRECT)

    def test_capacity_error_names_both_numbers(self, make_bank):
        bank = make_bank(seed=0)
        with pytest.raises(CapacityError) as err:
            bank.addMultipleChoiceFromLists("", "stem", ["only"], ["a", "b", "c"], 2)
        assert "2" in str(err.value) and "1" in str(err.value)
        assert len(bank.questions) == 0

    def test_full_capacity_exhausts_space_exactly(self, make_bank):
        # c=2, d=4 supports 2*C(4,3) = 8 distinct questions; asking for all
        # 8 must produce the whole enumerated space, whatever the seed.
        expected = {
            (correct, frozenset(combo))
            for correct in ("x", "y")
            for combo in combinations(["d1", "d2", "d3", "d4"], 3)
        }
        for seed in range(20):
            bank = make_bank(seed=seed)
            added = bank.addMultipleChoiceFromLists(
                "", "stem", ["x", "y"], ["d1", "d2", "d3", "d4"], 8
            )
            assert added == 8
            assert {question_signature(q) for q in bank.questions} == expected

    def test_unique_prefix_and_round_robin(self, make_bank):
        bank = make_bank(seed=11)
        bank.addMultipleChoiceFromLists("", "stem", ["x", "y"], ["d1", "d2", "d3", "d4"], 8)
        corrects = [question_signature(q)[0] for q in bank.questions]
        assert set(corrects[:2]) == {"x", "y"}
        assert corrects.count("x") == corrects.count("y") == 4

    def test_overlapping_pools_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMultipleChoiceFromLists("", "stem", ["a", "b"], ["b", "c", "d", "e"])

    def test_too_few_distractors_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMultipleChoiceFromLists("", "stem", ["a"], ["b", "c"])

    def test_zero_questions_is_allowed(self, make_bank):
        bank = make_bank(seed=1)
        assert bank.addMultipleChoiceFromLists("", "stem", ["a"], ["b", "c", "d"], 0) == 0
        assert len(bank.questions) == 0

    def test_count_below_minus_one_rejected(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMultipleChoiceFromLists("", "stem", ["a"], ["b", "c", "d"], -2)
        with pytest.raises(ValidationError, match="question count must be an integer, got 1.0"):
            bank.addMultipleChoiceFromLists("", "stem", ["a"], ["b", "c", "d"], 1.0)
        assert len(bank) == 0

    def test_numeric_pool_items_are_rendered(self, make_bank):
        bank = make_bank(seed=5)
        added = bank.addMultipleChoiceFromLists("", "Pick the prime:", [7, 13], [8, 9, 10, 12])
        assert added == 2
        for question in bank.questions:
            for choice in question.payload.choices:
                assert isinstance(choice.text, str)


# -- pair pools -------------------------------------------------------------


DERIVATIVE_PAIRS = [
    ("\\(\\cos(x^2)\\)", "\\(-2x\\sin(x^2)\\)"),
    ("\\(2x\\sin(x)\\)", "\\(2\\sin(x)+2x\\cos(x)\\)"),
    ("\\(\\sin(x)\\cos(x)\\)", "\\(\\cos(2x)\\)"),
    ("\\(2\\sin(\\cos(x))\\)", "\\(-2\\sin(x)\\cos(\\cos(x))\\)"),
    ("\\(\\sin(2x)\\)", "\\(2\\cos(2x)\\)"),
    ("\\(\\tan(2x)\\)", "\\(2/\\cos^2(2x)\\)"),
]


class TestFromPairs:
    def test_default_count_and_substitution(self, make_bank):
        bank = make_bank(seed=9)
        added = bank.addMultipleChoiceFromPairs(
            "Derivatives", "Select the derivative of %s", DERIVATIVE_PAIRS
        )
        assert added == 6
        assert_generated_invariants(bank.questions)
        keys = {key for key, _ in DERIVATIVE_PAIRS}
        for question in bank.questions:
            assert "%s" not in question.stem
            assert any(key in question.stem for key in keys)
        # injective pairs: the first c questions have pairwise different answers
        corrects = [question_signature(q)[0] for q in bank.questions]
        assert len(set(corrects)) == 6

    def test_extra_distractors_extend_the_pool(self, make_bank):
        pairs = [(f"term{i}", f"meaning {i}") for i in range(7)]
        extras = ["other A.", "other B.", "other C.", "other D."]
        bank = make_bank(seed=2)
        added = bank.addMultipleChoiceFromPairs("", "What is %s?", pairs, extras)
        assert added == 7
        assert_generated_invariants(bank.questions)
        pool = {answer for _, answer in pairs} | set(extras)
        for question in bank.questions:
            for choice in question.payload.choices:
                assert choice.text in pool

    def test_collision_rule_on_non_injective_pairs(self, make_bank):
        pairs = [("Lyon", "France"), ("Marseille", "France"), ("Turin", "Italy")]
        extras = ["Spain", "Portugal", "Greece"]
        for seed in range(40):
            bank = make_bank(seed=seed)
            added = bank.addMultipleChoiceFromPairs(
                "", "Which country is %s in?", pairs, extras
            )
            assert added == 3
            for question in bank.questions:
                correct, wrong = question_signature(question)
                assert correct not in wrong

    def test_pattern_must_contain_exactly_one_placeholder(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMultipleChoiceFromPairs("", "no placeholder", DERIVATIVE_PAIRS)
        with pytest.raises(ValidationError):
            bank.addMultipleChoiceFromPairs("", "two %s here %s", DERIVATIVE_PAIRS)

    def test_literal_percent_signs_survive(self, make_bank):
        bank = make_bank(seed=4)
        pairs = [(f"k{i}", f"a{i}") for i in range(5)]
        bank.addMultipleChoiceFromPairs("", "Raise by 50%: what is %s?", pairs)
        for question in bank.questions:
            assert "50%" in question.stem

    def test_unusable_keys_error(self, make_bank):
        # Every key's usable pool is {the other answer}, far below 3: the
        # call errors out, naming both numbers, and leaves the bank as it was.
        bank = make_bank(seed=0)
        bank.warn("earlier")
        pairs = [("k1", "same"), ("k2", "same"), ("k3", "same"), ("k4", "other")]
        with pytest.raises(SamplingError, match="none of the 4 keys .* holds 1 "):
            bank.addMultipleChoiceFromPairs("", "what is %s?", pairs)
        assert len(bank.questions) == 0
        assert bank.warnings == ["earlier"]

    def test_small_pair_pool_needs_extras(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addMultipleChoiceFromPairs("", "%s?", [("a", "1"), ("b", "2")])


# -- token pools (fill in the blanks) ----------------------------------------


VERTEX_SHADER = """
void main()
{
    vec3 P = (modelViewMatrix * vec4(vertex, 1.0)).xyz;
    vec3 N = normalize(normalMatrix * normal);
    gl_Position = modelViewProjectionMatrix * vec4(vertex, 1.0);
}
"""

SHADER_TOKENS = ["modelViewMatrix", "modelViewProjectionMatrix", "normalMatrix"]
SHADER_TOKEN_DISTRACTORS = ["viewMatrix", "viewProjectionMatrix", "modelViewMatrixInverse"]


class TestCompleteCode:
    def test_three_tokens_three_questions(self, make_bank):
        bank = make_bank(seed=21)
        added = bank.addCompleteCode(
            "shader-blanks",
            "Complete this vertex shader: <p><pre>%s</pre>",
            VERTEX_SHADER,
            SHADER_TOKENS,
            SHADER_TOKEN_DISTRACTORS,
        )
        assert added == 3
        assert_generated_invariants(bank.questions)
        corrects = {question_signature(q)[0] for q in bank.questions}
        assert corrects == set(SHADER_TOKENS)

    def test_all_occurrences_blanked(self, make_bank):
        bank = make_bank(seed=1)
        source = "alpha beta alpha gamma"
        bank.addCompleteCode(
            "", "Fill in: %s", source, ["alpha"], ["delta", "epsilon", "zeta"], 1
        )
        stem = bank.questions[0].stem
        assert "alpha" not in stem
        assert stem.count(BLANK_MARKER) == 2
        assert "beta" in stem and "gamma" in stem

    def test_blanked_token_never_among_distractors(self, make_bank):
        for seed in range(30):
            bank = make_bank(seed=seed)
            bank.addCompleteCode(
                "",
                "Complete: %s",
                VERTEX_SHADER,
                SHADER_TOKENS,
                SHADER_TOKEN_DISTRACTORS,
            )
            for question in bank.questions:
                correct, wrong = question_signature(question)
                assert correct not in wrong

    def test_missing_token_is_named(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError) as err:
            bank.addCompleteCode("", "%s", "some text", ["absent"], ["a", "b", "c"])
        assert "absent" in str(err.value)
        with pytest.raises(ValidationError, match="source text must be a non-empty string"):
            bank.addCompleteCode("", "%s", "", ["a"], ["b", "c", "d"])
        with pytest.raises(ValidationError, match="the token list is empty"):
            bank.addCompleteCode("", "%s", "some text", [], ["a", "b", "c"])
        assert len(bank) == 0

    def test_insufficient_distractors(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError):
            bank.addCompleteCode("", "%s", "x y z", ["x"], ["y", "z"])

    def test_custom_blank_marker(self, make_bank):
        bank = make_bank(seed=2)
        bank.addCompleteCode(
            "",
            "Fill: %s",
            "pick me or not",
            ["me"],
            ["you", "them", "us"],
            1,
            blank="<u>____</u>",
        )
        assert "<u>____</u>" in bank.questions[0].stem


# -- cross-cutting properties --------------------------------------------


class TestDeterminism:
    def test_same_seed_same_questions(self, make_bank):
        def build(seed):
            bank = make_bank(seed=seed)
            bank.addMultipleChoiceFromLists(
                "", "stem", SHADER_CORRECT, SHADER_DISTRACTORS, 12
            )
            return [question_signature(q) for q in bank.questions]

        assert build(99) == build(99)
        # Set-valued pools are ordered by rendered text, whatever their hash order.
        from_sets = make_bank(seed=99)
        from_sets.addMultipleChoiceFromLists(
            "", "stem", set(SHADER_CORRECT), frozenset(SHADER_DISTRACTORS), 12
        )
        from_lists = make_bank(seed=99)
        from_lists.addMultipleChoiceFromLists(
            "", "stem", sorted(SHADER_CORRECT), sorted(SHADER_DISTRACTORS), 12
        )
        assert from_sets.questions == from_lists.questions

    def test_different_seeds_usually_differ(self, make_bank):
        def build(seed):
            bank = make_bank(seed=seed)
            bank.addMultipleChoiceFromLists("", "stem", SHADER_CORRECT, SHADER_DISTRACTORS)
            return tuple(question_signature(q) for q in bank.questions)

        outcomes = {build(seed) for seed in range(30)}
        assert len(outcomes) > 25

    def test_correct_answers_not_repeated_until_all_used(self, make_bank):
        for seed in range(20):
            bank = make_bank(seed=seed)
            bank.addMultipleChoiceFromLists(
                "", "stem", SHADER_CORRECT, SHADER_DISTRACTORS, 9
            )
            corrects = [question_signature(q)[0] for q in bank.questions]
            assert len(set(corrects[:6])) == 6


# -- exact capacity and the rank-based core ------------------------------------


def enumerate_space(answers, pool):
    """Every (answer, 3-subset of the pool without that answer) question."""
    return {
        (answer, frozenset(combo))
        for answer in set(answers)
        for combo in combinations(sorted(set(pool) - {answer}), 3)
    }


def _values(prefix, low, high, min_size, max_size):
    return st.lists(
        st.integers(low, high).map(lambda i: f"{prefix}{i}"),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def list_pools(draw):
    correct = draw(_values("c", 0, 5, 1, 6))
    distractors = draw(_values("d", 0, 7, 3, 9).filter(lambda d: len(set(d)) >= 3))
    space = enumerate_space(correct, distractors)

    def generate(bank, count):
        return bank.addMultipleChoiceFromLists("", "stem", correct, distractors, count)

    return space, generate


@st.composite
def pair_pools(draw):
    # Answers and extras come from one alphabet, so answers repeat (the
    # pairs are not injective) and extras may equal an answer.
    answers = draw(_values("v", 0, 6, 1, 6))
    extras = draw(_values("v", 0, 9, 0, 6))
    pool = set(answers) | set(extras)
    assume(len(pool) - 1 >= 3)
    pairs = [(f"k{i}", answer) for i, answer in enumerate(answers)]
    space = enumerate_space(answers, pool)

    def generate(bank, count):
        return bank.addMultipleChoiceFromPairs("", "what is %s?", pairs, extras, count)

    return space, generate


@st.composite
def token_pools(draw):
    tokens = draw(_values("t", 0, 9, 1, 5))
    extras = draw(_values("t", 0, 14, 0, 6))
    pool = set(tokens) | set(extras)
    assume(len(pool) - 1 >= 3)
    source = " ; ".join(f"use({t})" for t in tokens)
    space = enumerate_space(tokens, pool)

    def generate(bank, count):
        return bank.addCompleteCode("", "Fill: %s", source, tokens, extras, count)

    return space, generate


class TestExactCapacity:
    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(list_pools(), pair_pools(), token_pools()), seed=st.integers(0, 2**32))
    def test_capacity_is_exact(self, case, seed):
        space, generate = case
        capacity = len(space)
        bank = QuestionBank(None, seed=seed)
        assert generate(bank, capacity) == capacity
        signatures = [question_signature(q) for q in bank.questions]
        assert set(signatures) == space and len(signatures) == capacity
        assert_generated_invariants(bank.questions)

        with pytest.raises(CapacityError) as err:
            generate(QuestionBank(None, seed=seed), capacity + 1)
        assert str(capacity + 1) in str(err.value) and str(capacity) in str(err.value)

    def test_shared_answers_count_once(self):
        # Nominally 5 * C(4, 3) = 20, but the two keys answering "A" share
        # one subset: exactly 4 distinct questions exist.
        pairs = [("k0", "A"), ("k1", "A"), ("k2", "B"), ("k3", "C"), ("k4", "D")]
        with pytest.raises(CapacityError) as err:
            QuestionBank(None, seed=0).addMultipleChoiceFromPairs("", "%s?", pairs, (), 20)
        assert "20" in str(err.value) and "4" in str(err.value)
        with pytest.raises(CapacityError):
            QuestionBank(None, seed=0).addMultipleChoiceFromPairs("", "%s?", pairs, (), 5)

    def test_default_count_capped_with_one_warning(self, capsys):
        pairs = [("k0", "A"), ("k1", "A"), ("k2", "B"), ("k3", "C"), ("k4", "D")]
        bank = QuestionBank(None, seed=0)
        assert bank.addMultipleChoiceFromPairs("", "%s?", pairs) == 4
        assert_generated_invariants(bank.questions)
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WARN:")]
        assert len(warnings) == 1 and "4" in warnings[0]
        assert len(bank.warnings) == 1


class TestCanonicalLineBreaks:
    """Texts that differ only in \\r\\n, \\r or \\n are one text."""

    def test_lists_count_capacity_over_canonical_texts(self, make_bank):
        bank = make_bank(seed=1)
        distractors = ["p\r\nq", "p\nq", "p\rq", "r", "s", "t"]
        with pytest.raises(CapacityError, match="at most 4 "):
            bank.addMultipleChoiceFromLists("t", "q?", ["x"], distractors, 5)
        assert bank.addMultipleChoiceFromLists("t", "q?", ["x"], distractors, 4) == 4
        assert_generated_invariants(bank.questions)

    def test_pairs_collapse_answers(self, make_bank):
        bank = make_bank(seed=1)
        pairs = [("k1", "a\r\nb"), ("k2", "a\nb"), ("k3", "c"), ("k4", "d"), ("k5", "e")]
        with pytest.raises(CapacityError, match="at most 4 "):
            bank.addMultipleChoiceFromPairs("t", "%s?", pairs, num_questions=5)
        assert bank.addMultipleChoiceFromPairs("t", "%s?", pairs, num_questions=4) == 4
        assert_generated_invariants(bank.questions)

    def test_complete_code_tokens_match_crlf_source(self, make_bank):
        bank = make_bank(seed=1)
        source = "if x:\r\n    y = 1\r\nelse:\r\n    z = 2\r\n"
        tokens = ["x:\r\n    y", "x:\n    y", "z", "else", "2"]
        assert bank.addCompleteCode("t", "<pre>%s</pre>", source, tokens) == 4
        assert_generated_invariants(bank.questions)
        assert all("\r" not in question.stem for question in bank.questions)


class TestFailedCallLeavesBankUnchanged:
    @pytest.mark.parametrize(
        "call",
        [
            lambda bank: bank.addMultipleChoiceFromPairs(
                "t", "%s", [(" ", "a"), ("k", "b"), ("m", "c"), ("n", "d"), ("o", "e")]
            ),
            lambda bank: bank.addMultipleChoiceFromLists("t", " \r\n", ["a", "b"], ["c", "d", "e"]),
            lambda bank: bank.addCompleteCode("t", "%s", "tok", ["tok"], ["x", "y", "z"], blank=" "),
        ],
        ids=["pairs", "lists", "complete-code"],
    )
    def test_invalid_stem_changes_nothing(self, make_bank, call):
        bank = make_bank(seed=2)
        bank.addShortAnswer("", "Q?", ["a"])
        state = bank.rng.getstate()
        with pytest.raises(ValidationError, match="question text"):
            call(bank)
        assert len(bank) == 1
        assert bank.rng.getstate() == state
        assert bank.warnings == []


class TestUnranking:
    def test_bijection_onto_triples(self):
        for m in range(3, 10):
            triples = [_unrank_triple(rank) for rank in range(math.comb(m, 3))]
            assert sorted(triples) == list(combinations(range(m), 3))

    def test_large_ranks(self):
        m = 10**6
        assert _unrank_triple(math.comb(m, 3) - 1) == (m - 3, m - 2, m - 1)
        assert _unrank_triple(math.comb(m - 1, 3)) == (0, 1, m - 1)


class TestScaling:
    def test_pairs_text_work_is_linear(self, monkeypatch):
        # Counts, not wall time: the rendering and comparison work of the
        # pairs generator must grow linearly with the number of pairs.
        calls = Counter()
        for name in ("render_text", "normalize"):
            original = getattr(generators, name)

            def counted(value, _name=name, _original=original):
                calls[_name] += 1
                return _original(value)

            monkeypatch.setattr(generators, name, counted)

        def work(n):
            calls.clear()
            bank = QuestionBank(None, seed=1)
            pairs = [(f"key {i}", f"answer {i}") for i in range(n)]
            assert bank.addMultipleChoiceFromPairs("", "What is %s?", pairs) == n
            return sum(calls.values())

        assert work(400) / work(200) <= 2.5


class TestMethodSurface:
    # The three generator methods as scripts see them: parameters after the
    # bank, the docstring's first line (help() shows it), and the closed-bank
    # error, raised before any argument is looked at.
    SURFACE = {
        "addMultipleChoiceFromLists": (
            "title, question, correct, distractors, num_questions=-1",
            "Generate multiple-choice questions from a correct/distractor pool.",
            ("t", "q", [], []),
        ),
        "addMultipleChoiceFromPairs": (
            "title, pattern, pairs, extra_distractors=(), num_questions=-1",
            "Generate multiple-choice questions from (key, answer) pairs.",
            ("t", "no placeholder", [], (), -5),
        ),
        "addCompleteCode": (
            "title, pattern, source_text, tokens, extra_distractors=(), num_questions=-1, "
            "blank=None",
            "Generate fill-in-the-blank questions by blanking tokens in a text.",
            ("t", "no placeholder", "", [], (), "many", 0),
        ),
    }

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_parameters_and_docstring(self, name):
        parameters, first_line, _ = self.SURFACE[name]
        method = getattr(QuestionBank, name)
        after_bank = list(inspect.signature(method).parameters.values())[1:]
        assert ", ".join(map(str, after_bank)) == parameters
        assert method.__doc__.splitlines()[0] == first_line

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_closed_bank_raises_before_arguments_are_checked(self, name, tmp_path, capsys):
        bank = QuestionBank(tmp_path / "bank.xml", seed=1)
        bank.addShortAnswer("", "Q?", "a")
        bank.close()
        with pytest.raises(QuizbankError) as err:
            getattr(bank, name)(*self.SURFACE[name][2])
        assert type(err.value) is QuizbankError
        assert str(err.value) == "bank is closed and can no longer be modified"
        assert len(bank) == 1
