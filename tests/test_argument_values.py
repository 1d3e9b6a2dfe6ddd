"""How builder and generator arguments become values (model.as_values).

A set or frozenset is sorted by its rendered text; a str, bytes, or anything
iter() refuses is one value; any other iterable is read in its own order. A
pair must hold exactly two values.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import QuestionBank, ValidationError, sample_distractors, serialize_bank
from quizbank.model import as_values, render_text

from test_cli import _SUBPROCESS_ENV

CITIES = ["Lyon", "Rome", "Oslo", "Bern", "Madrid"]


class TestTheRule:
    @pytest.mark.parametrize("value", ["Paris", b"Paris", bytearray(b"Paris"), 7, 2.5, None])
    def test_a_str_bytes_or_non_iterable_is_one_value(self, value):
        assert as_values(value) == [value]

    def test_a_set_is_sorted_by_rendered_text(self):
        assert as_values({7, 13, 101}) == [101, 13, 7]
        assert as_values(frozenset({"b", "a"})) == ["a", "b"]

    def test_other_iterables_are_read_in_order(self):
        assert as_values((i * i for i in range(3))) == [0, 1, 4]
        assert as_values(map(str, [2, 1])) == ["2", "1"]
        assert as_values({"x": 1, "y": 2}) == ["x", "y"]
        assert as_values({"x": 1}.values()) == [1]
        assert as_values(range(3)) == [0, 1, 2]

    def test_a_type_error_raised_while_iterating_propagates(self):
        def broken():
            yield 1
            raise TypeError("boom")

        with pytest.raises(TypeError, match="boom"):
            as_values(broken())


class TestBuilders:
    def test_numpy_array_answers(self, make_bank):
        np = pytest.importorskip("numpy")
        bank = make_bank()
        bank.addNumerical("", "Solve \\(x^2-x-6=0\\)", np.roots([1, -1, -6]))
        assert sorted(bank.questions[0].payload.answers) == [-2.0, 3.0]
        data = serialize_bank(bank)
        assert b"<text>3.0</text>" in data and b"<text>-2.0</text>" in data
        bank.addShortAnswer("", "Any of these?", np.array([1, 2]))
        assert bank.questions[1].payload.answers == ["1", "2"]

    def test_numpy_zero_d_array_is_one_value_and_refused(self, make_bank):
        np = pytest.importorskip("numpy")
        bank = make_bank()
        with pytest.raises(ValidationError, match="numerical answer must be a number"):
            bank.addNumerical("", "Value?", np.array(3.0))
        assert len(bank) == 0

    def test_generator_answers_write_the_same_bytes_in_two_processes(self, tmp_path):
        script = (
            "import sys\n"
            "from quizbank import QuestionBank, serialize_bank\n"
            "bank = QuestionBank(None, seed=1)\n"
            "bank.addShortAnswer('', 'Squares?', (str(i * i) for i in range(3)))\n"
            "bank.addShortAnswer('', 'Digits?', map(str, [4, 2]))\n"
            "sys.stdout.buffer.write(serialize_bank(bank))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], env=_SUBPROCESS_ENV, cwd=tmp_path,
                capture_output=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        for text in (b"0", b"1", b"4", b"2"):
            assert b"<text>%s</text>" % text in runs[0]
        assert b"object at" not in runs[0]

    def test_a_str_is_one_choice(self, make_bank):
        bank = make_bank()
        with pytest.raises(ValidationError, match="at least 2 choices"):
            bank.addMultipleChoice("", "Pick one", "Paris")
        assert len(bank) == 0


class TestGenerators:
    def test_a_str_of_correct_answers_makes_one_question(self, make_bank):
        bank = make_bank(seed=3)
        assert bank.addMultipleChoiceFromLists("", "Capital of France?", "Paris", CITIES) == 1
        assert [q.payload.choices[0].text for q in bank.questions] == ["Paris"]

    def test_a_str_of_tokens_is_one_token(self, make_bank):
        bank = make_bank(seed=3)
        extras = ["while", "def", "class"]
        assert bank.addCompleteCode("", "Complete: %s", "for x in y: pass", "for", extras) == 1

    def test_an_excluded_str_is_never_drawn(self):
        rng = random.Random(0)
        pool = ["Paris", "a", "P", "r", "s", "i", "Lyon"]
        for _ in range(200):
            assert "Paris" not in sample_distractors(pool, 3, "Paris", rng)
        # Only "Paris" is excluded, not its characters.
        assert sorted(sample_distractors(pool, 6, "Paris", rng)) == sorted(pool[1:])


class TestPairs:
    @pytest.mark.parametrize(
        "pairs, named",
        [
            ({"ab": "x", "cd": "y"}, "'ab'"),  # a dict reads as its keys
            ({"Flux": "W", "Intensity": "W/sr"}, "'Flux'"),
            ([("a", "1"), ("b", "2", "3")], "('b', '2', '3')"),
            ([("a", "1"), ("b",)], "('b',)"),
            ([("a", "1"), "b2"], "'b2'"),
            ([("a", "1"), 5], "5"),
        ],
    )
    def test_an_item_not_holding_two_values_is_refused(self, make_bank, pairs, named):
        bank = make_bank(seed=1)
        message = f"a pair must hold exactly two values, got {named}"
        with pytest.raises(ValidationError) as err:
            bank.addMatching("", "Match:", pairs)
        assert str(err.value) == message
        extras = ["p", "q", "r"]
        with pytest.raises(ValidationError) as err:
            bank.addMultipleChoiceFromPairs("", "Which is %s?", pairs, extras)
        assert str(err.value) == message
        assert len(bank) == 0

    def test_dict_items_and_generators_of_pairs_are_read(self, make_bank):
        units = {"Flux": "W", "Intensity": "W/sr", "Irradiance": "W/m^2", "Radiance": "W/sr/m^2"}
        bank = make_bank(seed=1)
        bank.addMatching("", "Match:", units.items())
        bank.addMatching("", "Match:", ([k, v] for k, v in units.items()))
        assert bank.questions[0].payload.pairs == bank.questions[1].payload.pairs
        assert bank.questions[0].payload.pairs == list(units.items())
        assert bank.addMultipleChoiceFromPairs("", "Unit of %s?", units.items()) == 4


# -- every builder reads a container as it reads the list of its values --------


_CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda values: (value for value in values),
    "map": lambda values: map(lambda value: value, values),
    "set": set,
    "frozenset": frozenset,
}


def _read(kind, items):
    """The list of values every builder must read from the argument
    _CONTAINERS[kind](items): sorted by rendered text for a set."""
    return sorted(items, key=render_text) if "set" in kind else list(items)


@st.composite
def _arguments(draw):
    """(kind, values, pass_values): pass_values() makes a fresh argument each call."""
    kind = draw(st.sampled_from([*_CONTAINERS, "range"]))
    if kind == "range":
        start, step = draw(st.integers(-20, 20)), draw(st.sampled_from([1, 3, -2]))
        values = range(start, start + step * draw(st.integers(4, 8)), step)
        return "tuple", list(values), lambda: values  # pairs are passed as a tuple
    words = st.text(alphabet="abcxyz", min_size=1, max_size=3)
    values = draw(st.lists(st.one_of(st.integers(-99, 99), words), min_size=4, max_size=8,
                           unique_by=render_text))
    return kind, values, lambda: _CONTAINERS[kind](values)


def _built(kind, pass_values, pass_pairs):
    """The bytes of a bank built by each builder and generator from the
    arguments pass_values() and pass_pairs() make."""
    bank = QuestionBank(None, seed=5)
    bank.addShortAnswer("", "Any?", pass_values())
    if all(isinstance(value, int) for value in pass_values()):
        bank.addNumerical("", "Which?", pass_values())
    if "set" not in kind:  # a set has no first choice
        bank.addMultipleChoice("", "Pick", pass_values())
    bank.addMultipleChoiceFromLists("", "Pick", pass_values(), ["d1", "d2", "d3", "d4"])
    bank.addMultipleChoiceFromLists("", "Pick", ["c1", "c2"], pass_values())
    bank.addCompleteCode("", "Fill %s", "d1 d2 d3 d4", ["d1"], pass_values())
    bank.addMatching("", "Match", pass_pairs())
    bank.addMultipleChoiceFromPairs("", "Of %s?", pass_pairs(), pass_values())
    return serialize_bank(bank)


class TestOneRuleProperty:
    @settings(max_examples=80, deadline=None)
    @given(_arguments())
    def test_every_builder_reads_the_values_of_list(self, argument):
        kind, values, pass_values = argument
        pairs = [(f"p{render_text(value)}", value) for value in values]
        assert as_values(pass_values()) == _read(kind, values)
        pool = ["e1", "e2", "e3", *(render_text(value) for value in values[:2])]
        assert sorted(sample_distractors(pool, 3, pass_values(), random.Random(0))) == pool[:3]
        built = _built(kind, pass_values, lambda: _CONTAINERS[kind](pairs))
        read = _built(kind, lambda: _read(kind, values), lambda: _read(kind, pairs))
        assert built == read
