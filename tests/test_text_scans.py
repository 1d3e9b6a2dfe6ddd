"""The whole-field text scans (escape_for_cdata, the reader's _uncdata and
render_text) test for one rare character before their substring searches.
Each must give exactly what its unguarded form gives, and a text without
that character must come back as the same object."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import MediaAsset, QuestionBank, embed_image, parse_bank, serialize_bank
from quizbank.model import render_text
from quizbank.moodle_xml import _uncdata, escape_for_cdata

# ASCII-range, two-byte and four-byte characters, so that texts of all three
# str kinds are drawn, around the characters the scans look for.
_ALPHABET = ["]", ">", "[", "\r", "\n", "a", "é", "中", "😀", "<"]
_SPLIT = "]]]]><![CDATA[>"
_TEXTS = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=60),
    # Long runs: a substring search over a long text takes another code path.
    st.lists(st.tuples(st.sampled_from(_ALPHABET), st.integers(1, 400)), max_size=8).map(
        lambda runs: "".join(char * count for char, count in runs)
    ),
    # Pieces of the writer's split, so that _uncdata meets well-formed ones.
    st.lists(st.sampled_from(_ALPHABET + ["]]>", _SPLIT, "\r\n"]), max_size=30).map("".join),
)


class Sub(str):
    pass


def reference_escape(text):
    return text.replace("]]>", _SPLIT)


def reference_uncdata(raw):
    if "]]>" not in raw:
        return raw
    parts = raw.split(_SPLIT)
    if any("]]>" in part for part in parts):
        raise ValueError("CDATA not split by the writer")
    return "]]>".join(parts)


def reference_render(value):
    return str(value).replace("\r\n", "\n").replace("\r", "\n")


def _outcome(function, text):
    try:
        return function(text)
    except ValueError:
        return ValueError


class TestGuardsMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    def test_escape_for_cdata(self, text):
        escaped = escape_for_cdata(text)
        assert escaped == reference_escape(text) and type(escaped) is str
        if "]]>" not in text:
            assert escaped is text
        from_subclass = escape_for_cdata(Sub(text))
        assert type(from_subclass) is str and from_subclass == reference_escape(text)

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    def test_uncdata(self, raw):
        assert _outcome(_uncdata, raw) == _outcome(reference_uncdata, raw)
        if "]]>" not in raw:
            assert _uncdata(raw) is raw
        # What the writer wrote always reads back.
        assert _uncdata(reference_escape(raw)) == raw

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    def test_render_text(self, text):
        rendered = render_text(text)
        assert rendered == reference_render(text) and type(rendered) is str
        if "\r" not in text:
            assert rendered is text
        from_subclass = render_text(Sub(text))
        assert type(from_subclass) is str and from_subclass == reference_render(text)

    @pytest.mark.parametrize("value", [1, 2.5, None, Sub("a\r\nb\rc")])
    def test_render_text_of_other_values(self, value):
        rendered = render_text(value)
        assert type(rendered) is str and rendered == reference_render(value)


class TestLargeStem:
    # A display-math \[x\] before a ~2 MiB image, and a "]]>" and a "\r\n"
    # past it, near the stem's end: both must still be found and rewritten.
    TAIL = " done]]> now\r\nlast line ]"

    @pytest.fixture(scope="class")
    def stem(self):
        image = random.Random(21).randbytes(3 << 19)  # 1.5 MiB: 2 MiB of base64
        stem = r"Solve \[x\] and read " + embed_image(MediaAsset(image, "image/png")) + self.TAIL
        assert len(self.TAIL) <= 64 and len(stem) > 2 << 20
        return stem

    def test_build_parse_reserialize(self, stem):
        bank = QuestionBank(None)
        bank.addShortAnswer("big", stem, "x")
        data = serialize_bank(bank)
        rendered = reference_render(stem)
        assert bank.questions[0].stem == rendered
        body = data.index(b"<![CDATA[", data.index(b"<questiontext")) + len(b"<![CDATA[")
        split = rendered.index("]]>")
        assert split > len(rendered) - 64
        assert data.index(_SPLIT.encode(), body) == body + split  # base64 and the stem are ASCII
        assert data[body:body + len(rendered) + len(_SPLIT) - 3].decode() == reference_escape(rendered)
        parsed = parse_bank(data)
        assert parsed.questions[0].stem == rendered
        assert serialize_bank(parsed) == data
