"""Streamed writes: banks and previews go to disk in UTF-8 chunks of about
1 MiB, byte for byte what serialize_bank and build_preview_html give, and a
failure found in a late chunk leaves nothing behind."""

import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import (
    Choice,
    ChoiceSet,
    MediaAsset,
    Question,
    QuestionBank,
    QuestionKind,
    QuizbankError,
    embed_image,
    render_preview,
    serialize_bank,
)
from quizbank import fileio
from quizbank.fileio import CHUNK_CHARS, atomic_write_chunks, utf8_chunks
from quizbank.moodle_xml import serialize_chunks
from quizbank.preview import build_preview_html

from test_moodle_xml import _question

# One to four UTF-8 bytes, so that chunk boundaries fall next to each width.
_EDGE_CHAR = st.sampled_from(["a", "é", "€", "😀"])


@st.composite
def _near_chunk_text(draw):
    """A text a few characters shorter or longer than one chunk, with
    multi-byte characters at both ends."""
    length = CHUNK_CHARS + draw(st.integers(-3, 3))
    return draw(_EDGE_CHAR) + "x" * (length - 2) + draw(_EDGE_CHAR)


@st.composite
def _bank(draw):
    """Random small questions with up to two chunk-sized questions among them."""
    questions = draw(st.lists(_question(), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        stem, choice = draw(_near_chunk_text()), draw(_near_chunk_text())
        big = Question(
            QuestionKind.MULTIPLE_CHOICE, "big", stem,
            ChoiceSet([Choice(choice, 100.0), Choice(draw(_EDGE_CHAR), 0.0)]),
            draw(st.sampled_from(["", "A"])),
        )
        questions.insert(draw(st.integers(0, len(questions))), big)
    bank = QuestionBank(None)
    bank.questions = questions
    return bank


class TestStreamedOutput:
    @settings(max_examples=25, deadline=None)
    @given(bank=_bank())
    def test_files_match_the_whole_documents(self, bank):
        with tempfile.TemporaryDirectory() as directory:
            bank.output_path = Path(directory) / "bank.xml"
            bank.close()
            assert bank.output_path.read_bytes() == serialize_bank(bank)
            page = render_preview(bank, Path(directory) / "page.html")
            assert page.read_bytes() == build_preview_html(bank).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(
        blocks=st.lists(st.lists(st.text(st.sampled_from("ab\n<é€😀"), max_size=12))),
        size=st.integers(1, 16),
    )
    def test_chunks_end_between_pieces(self, blocks, size):
        pieces = [piece for block in blocks for piece in block]
        with mock.patch.object(fileio, "CHUNK_CHARS", size):
            chunks = list(utf8_chunks(blocks))
        assert b"".join(chunks) == "".join(pieces).encode("utf-8")
        texts = [chunk.decode("utf-8") for chunk in chunks]  # none splits a character
        for piece in pieces:
            if len(piece) >= size:
                assert piece in texts  # encoded on its own, never joined

    def test_check_sees_every_chunk(self):
        blocks = [["a" * 5, "b"], ["c" * 9], ["d"]]
        seen = []
        with mock.patch.object(fileio, "CHUNK_CHARS", 4):
            chunks = list(utf8_chunks(blocks, lambda text, data: seen.append((text, data))))
        assert [data for _, data in seen] == chunks
        assert [text for text, _ in seen] == ["a" * 5, "b", "c" * 9, "d"]


# Rejected by XML in a question that follows more than 1 MiB of good document.
_LATE_BAD = ["\x07", "\ufffe", "\udcff"]


def _late_failing_bank(path, bad):
    bank = QuestionBank(path)
    bank.addShortAnswer("padding", "x" * (3 * CHUNK_CHARS // 2), ["x"])
    bank.addShortAnswer("late", f"Say {bad}", ["x"])
    return bank


class TestLateFailure:
    @pytest.mark.parametrize("bad", _LATE_BAD, ids=["bell", "fffe", "surrogate"])
    def test_close_raises_and_creates_no_file(self, tmp_path, bad):
        bank = _late_failing_bank(tmp_path / "bank.xml", bad)
        with pytest.raises(QuizbankError, match="question 'late' contains"):
            bank.close()
        assert list(tmp_path.iterdir()) == []
        assert not bank.closed

    @pytest.mark.parametrize("bad", _LATE_BAD, ids=["bell", "fffe", "surrogate"])
    def test_failure_comes_after_good_chunks(self, bad):
        chunks = serialize_chunks(_late_failing_bank(None, bad))
        assert len(next(chunks)) + len(next(chunks)) > CHUNK_CHARS
        with pytest.raises(QuizbankError, match="question 'late' contains"):
            list(chunks)


def _media_bank(count):
    """``count`` questions whose stem is one 8 MB image, shared to spare memory."""
    image = embed_image(MediaAsset(random.Random(0).randbytes(8_000_000), "image/png"))
    bank = QuestionBank(None)
    for number in range(count):
        bank.addShortAnswer(f"figure {number}", image, ["x"])
    return bank


def _traced_peak(function):
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_serialize_bank_peaks_below_twice_its_output(self):
        bank = _media_bank(3)
        sizes = []
        peak = _traced_peak(lambda: sizes.append(len(serialize_bank(bank))))
        assert peak <= 2 * sizes[0]

    def test_streamed_write_peak_does_not_grow_with_the_bank(self, tmp_path):
        path = tmp_path / "bank.xml"
        peaks = []
        for count in (3, 6):
            bank = _media_bank(count)
            peaks.append(_traced_peak(lambda: atomic_write_chunks(path, serialize_chunks(bank))))
            assert path.stat().st_size > count * 10_000_000
        assert peaks[1] - peaks[0] < 1 << 20
