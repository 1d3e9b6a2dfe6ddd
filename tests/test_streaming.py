"""Streamed writes: banks and previews go to disk in UTF-8 chunks of under
CHUNK_CHARS characters, byte for byte what serialize_bank and
build_preview_html give, and a failure found in a late chunk leaves nothing
behind."""

import base64
import html
import itertools
import random
import sys
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
    embed_video,
    render_preview,
    serialize_bank,
)
from quizbank import cli, fileio
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
        size=st.integers(2, 16),  # a limit of 1 character admits no non-empty chunk
    )
    def test_chunks_end_between_pieces(self, blocks, size):
        pieces = [piece for block in blocks for piece in block]
        with mock.patch.object(fileio, "CHUNK_CHARS", size):
            chunks = list(utf8_chunks(blocks))
        assert b"".join(chunks) == "".join(pieces).encode("utf-8")
        texts = [chunk.decode("utf-8") for chunk in chunks]  # none splits a character
        assert all(len(text) < size for text in texts)
        ends = set(itertools.accumulate(map(len, texts), initial=0))
        start = 0
        for piece in pieces:
            if len(piece) >= size:  # sliced into consecutive chunks of its own
                assert {start, start + len(piece)} <= ends
            start += len(piece)

    def test_check_sees_every_chunk(self):
        blocks = [["a" * 5, "b"], ["c" * 9], ["d"]]
        seen = []
        with mock.patch.object(fileio, "CHUNK_CHARS", 4):
            chunks = list(utf8_chunks(blocks, lambda text, data: seen.append((text, data))))
        assert [data for _, data in seen] == chunks
        assert [text for text, _ in seen] == ["aaa", "aa", "b", "ccc", "ccc", "ccc", "d"]


# Rejected by XML in a question that follows more than a chunk of good document.
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


_FREES_TEMPORARY_ARGUMENTS = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before CPython 3.11 the caller's frame keeps a temporary argument alive, "
    "so parse_bank cannot free the file's bytes while it parses",
)


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

    @_FREES_TEMPORARY_ARGUMENTS
    def test_stats_holds_the_text_and_fields_not_the_bytes(self, tmp_path, capsys):
        path = tmp_path / "bank.xml"
        atomic_write_chunks(path, serialize_chunks(_media_bank(3)))
        size = path.stat().st_size
        assert size > 30_000_000
        peak = _traced_peak(lambda: cli.main(["stats", str(path)]))
        assert "questions: 3" in capsys.readouterr().out
        assert peak < 2 * size + (1 << 20)

    @_FREES_TEMPORARY_ARGUMENTS
    @pytest.mark.parametrize("before", [b"<quiz>", b"</quiz>"])
    def test_stats_of_a_foreign_layout_does_not_keep_the_text(self, tmp_path, capsys, before):
        """A comment at the start fails the layout check, one at the end fails
        the direct reader midway: either way ElementTree holds the bytes and
        two copies of each field (expat's pieces and their join), and the
        decoded text is freed before it runs."""
        path = tmp_path / "bank.xml"
        data = serialize_bank(_media_bank(3)).replace(before, b"<!-- edited -->" + before, 1)
        path.write_bytes(data)
        size = len(data)
        del data
        peak = _traced_peak(lambda: cli.main(["stats", str(path)]))
        assert "questions: 3" in capsys.readouterr().out
        assert peak < 3 * size + (4 << 20)

    def test_streamed_write_of_a_large_field_holds_one_chunk(self, tmp_path):
        """The bank's texts exist before tracing starts, so the peak is what
        the write adds to them: one chunk and its scans, never the field."""
        bank = _media_bank(1)
        assert len(bank.questions[0].stem) >= 10_000_000
        path = tmp_path / "bank.xml"
        peak = _traced_peak(lambda: atomic_write_chunks(path, serialize_chunks(bank)))
        assert path.read_bytes() == serialize_bank(bank)
        assert peak < 3 << 20


def _old_fragment(asset, tag):
    """embed_image and embed_video as f-strings around MediaAsset.data_uri."""
    uri = f"data:{asset.media_type};base64,{base64.b64encode(asset.data).decode('ascii')}"
    if tag == "video":
        return f'<video controls src="{uri}"></video>'
    alt = html.escape(asset.alt_text or "", quote=True)
    return f'<img src="{uri}" alt="{alt}">'


class TestEmbedding:
    @pytest.mark.parametrize(
        "media_type, alt",
        [("image/png", None), ("image/png", 'a "dot" <b>'), ("image/svg+xml", "é ✓ 😀"),
         ("image/gif", "odd \udcff"), ("video/mp4", None)],
    )
    def test_fragments_equal_the_f_string_form(self, media_type, alt):
        asset = MediaAsset(random.Random(1).randbytes(1000), media_type, alt)
        tag = media_type.partition("/")[0]
        embed = embed_video if tag == "video" else embed_image
        assert embed(asset) == _old_fragment(asset, tag)
        assert asset.data_uri() in embed(asset)

    @pytest.mark.parametrize(
        "embed, media_type, alt",
        [(embed_image, "image/png", None), (embed_image, "image/png", "é"),
         (embed_video, "video/mp4", None)],
    )
    def test_at_most_two_full_size_copies(self, embed, media_type, alt):
        embed(MediaAsset(b"x", media_type, alt))  # imports what embedding needs
        asset = MediaAsset(random.Random(2).randbytes(6_000_000), media_type, alt)
        lengths = []
        peak = _traced_peak(lambda: lengths.append(len(embed(asset))))
        assert peak < 2 * lengths[0] + (1 << 16)
