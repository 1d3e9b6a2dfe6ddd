"""The record types behind quizbank.__all__: construction, defaults, repr,
equality, pattern matching, hashing, immutability and copying."""

import copy
import pickle

import pytest

from quizbank import (
    Choice,
    ChoiceSet,
    MatchPairList,
    MediaAsset,
    NumericalAnswerSet,
    Question,
    QuestionKind,
    ShortAnswerSet,
)

# (type, field names, positional arguments, repr of the built record)
RECORDS = [
    (Choice, ("text", "fraction"), ("a", 100.0), "Choice(text='a', fraction=100.0)"),
    (
        ChoiceSet,
        ("choices",),
        ([Choice("a", 100.0), Choice("b", -100.0)],),
        "ChoiceSet(choices=[Choice(text='a', fraction=100.0), Choice(text='b', fraction=-100.0)])",
    ),
    (ShortAnswerSet, ("answers",), (["x", "y"],), "ShortAnswerSet(answers=['x', 'y'])"),
    (
        NumericalAnswerSet,
        ("answers", "tolerance"),
        ([1, 2.5], 0.5),
        "NumericalAnswerSet(answers=[1, 2.5], tolerance=0.5)",
    ),
    (MatchPairList, ("pairs",), ([("p", "m")],), "MatchPairList(pairs=[('p', 'm')])"),
    (
        Question,
        ("kind", "name", "stem", "payload", "category"),
        (QuestionKind.SHORT_ANSWER, "n", "s", ShortAnswerSet(["x"]), "A/B"),
        "Question(kind=<QuestionKind.SHORT_ANSWER: 'shortanswer'>, name='n', stem='s', "
        "payload=ShortAnswerSet(answers=['x']), category='A/B')",
    ),
    (
        MediaAsset,
        ("data", "media_type", "alt_text"),
        (b"x", "image/png", "a dot"),
        "MediaAsset(data=b'x', media_type='image/png', alt_text='a dot')",
    ),
]
MUTABLE = [record for record in RECORDS if record[0] is not MediaAsset]
ids = [record[0].__name__ for record in RECORDS]
mutable_ids = [record[0].__name__ for record in MUTABLE]

# A value of the right kind that differs from each positional argument above.
OTHER = {
    "text": "b",
    "fraction": -50.0,
    "choices": [Choice("c", 100.0), Choice("d", 0.0)],
    "answers": ["z"],
    "tolerance": 0.25,
    "pairs": [("q", "n")],
    "kind": QuestionKind.NUMERICAL,
    "name": "other",
    "stem": "other stem",
    "payload": ShortAnswerSet(["w"]),
    "category": "C",
    "data": b"y",
    "media_type": "image/gif",
    "alt_text": None,
}


@pytest.mark.parametrize("cls, fields, args, shown", RECORDS, ids=ids)
class TestEveryRecord:
    def test_positional_and_keyword_construction_agree(self, cls, fields, args, shown):
        positional = cls(*args)
        keyword = cls(**dict(zip(fields, args)))
        assert positional == keyword
        assert tuple(getattr(positional, name) for name in fields) == args

    def test_repr(self, cls, fields, args, shown):
        assert repr(cls(*args)) == shown

    def test_match_args(self, cls, fields, args, shown):
        assert cls.__match_args__ == fields

    def test_equality_compares_every_field(self, cls, fields, args, shown):
        record = cls(*args)
        assert record == cls(*args) and not record != cls(*args)
        for index, name in enumerate(fields):
            changed = list(args)
            changed[index] = OTHER[name]
            assert record != cls(*changed), name

    def test_other_types_are_not_implemented(self, cls, fields, args, shown):
        record = cls(*args)
        other_record = ShortAnswerSet(["a"]) if cls is Choice else Choice("a", 100.0)
        assert record.__eq__(object()) is NotImplemented
        assert record.__eq__(other_record) is NotImplemented
        assert record != args and record != object()

    def test_copies_and_pickles_compare_equal(self, cls, fields, args, shown):
        record = cls(*args)
        pickled = [pickle.dumps(record, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [copy.copy(record), copy.deepcopy(record), *map(pickle.loads, pickled)]:
            assert type(clone) is cls and clone == record

    def test_no_instance_dict(self, cls, fields, args, shown):
        record = cls(*args)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1


def test_class_patterns_bind_fields_by_position():
    match Question(QuestionKind.MATCHING, "n", "s", MatchPairList([("p", "m")])):
        case Question(QuestionKind.MATCHING, name, _, MatchPairList(pairs), category):
            assert (name, pairs, category) == ("n", [("p", "m")], "")
        case _:
            pytest.fail("no match")
    match MediaAsset(b"x", "image/png"):
        case MediaAsset(data, media_type, None):
            assert (data, media_type) == (b"x", "image/png")
        case _:
            pytest.fail("no match")


class TestDefaults:
    def test_tolerance(self):
        assert NumericalAnswerSet([1]).tolerance == 0.01

    def test_category(self):
        assert Question(QuestionKind.SHORT_ANSWER, "n", "s", ShortAnswerSet(["x"])).category == ""

    def test_alt_text(self):
        assert MediaAsset(b"x", "image/png").alt_text is None


class TestFieldTupleEquality:
    # Fields are compared as tuples, which test identity before ==.
    def test_same_nan_object_compares_equal(self):
        nan = float("nan")
        assert Choice("a", nan) == Choice("a", nan)
        assert NumericalAnswerSet([1], nan) == NumericalAnswerSet([1], nan)

    def test_distinct_nan_objects_differ(self):
        assert Choice("a", float("nan")) != Choice("a", float("nan"))


@pytest.mark.parametrize("cls, fields, args, shown", MUTABLE, ids=mutable_ids)
class TestMutableRecords:
    def test_unhashable(self, cls, fields, args, shown):
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(cls(*args))

    def test_fields_can_be_reassigned(self, cls, fields, args, shown):
        record = cls(*args)
        setattr(record, fields[0], OTHER[fields[0]])
        assert getattr(record, fields[0]) == OTHER[fields[0]]


class TestMediaAssetIsFrozen:
    def test_hashable_by_value(self):
        assert hash(MediaAsset(b"x", "image/png")) == hash(MediaAsset(b"x", "image/png"))
        assert len({MediaAsset(b"x", "image/png"), MediaAsset(b"x", "image/png")}) == 1

    @pytest.mark.parametrize("name", ["data", "media_type", "alt_text"])
    def test_assignment_and_deletion_raise(self, name):
        asset = MediaAsset(b"x", "image/png", "a dot")
        with pytest.raises(AttributeError):
            setattr(asset, name, OTHER[name])
        with pytest.raises(AttributeError):
            delattr(asset, name)
        assert asset == MediaAsset(b"x", "image/png", "a dot")
