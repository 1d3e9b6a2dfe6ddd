"""Media embedding: data URIs, family checks, payload accounting."""

import base64
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizbank import MediaAsset, ValidationError, embed_image, embed_raw_html, embed_video
from quizbank.media import data_uri_payload_bytes, question_media_bytes

from conftest import PNG_1PX


def decode_payload(fragment):
    match = re.search(r"data:[^;]+;base64,([A-Za-z0-9+/=]+)", fragment)
    return base64.b64decode(match.group(1))


class TestMediaAsset:
    def test_empty_bytes_rejected(self):
        with pytest.raises(ValidationError):
            MediaAsset(b"", "image/png")

    @pytest.mark.parametrize("bad", ["png", "image/", "/png", "image png", "", "image/png\n"])
    def test_malformed_media_type_rejected(self, bad):
        with pytest.raises(ValidationError):
            MediaAsset(PNG_1PX, bad)

    def test_text_data_rejected(self):
        with pytest.raises(ValidationError, match="bytes-like"):
            MediaAsset("abc", "image/png")

    def test_non_string_media_type_rejected(self):
        with pytest.raises(ValidationError, match="media type 5"):
            MediaAsset(PNG_1PX, 5)

    def test_non_string_alt_text_rejected(self):
        with pytest.raises(ValidationError, match="alt text"):
            MediaAsset(PNG_1PX, "image/png", 7)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytearray_and_memoryview_data_accepted(self, wrap):
        fragment = embed_image(MediaAsset(wrap(PNG_1PX), "image/png"))
        assert decode_payload(fragment) == PNG_1PX


class TestEmbedImage:
    def test_payload_round_trips(self):
        fragment = embed_image(MediaAsset(PNG_1PX, "image/png"))
        assert fragment.startswith('<img src="data:image/png;base64,')
        assert decode_payload(fragment) == PNG_1PX

    def test_alt_text_is_escaped(self):
        fragment = embed_image(MediaAsset(PNG_1PX, "image/png", alt_text='a "dot" <img>'))
        assert 'alt="a &quot;dot&quot; &lt;img&gt;"' in fragment

    def test_video_family_rejected(self):
        with pytest.raises(ValidationError):
            embed_image(MediaAsset(b"\x00\x01", "video/mp4"))

    def test_no_local_file_references(self):
        fragment = embed_image(MediaAsset(PNG_1PX, "image/png"))
        assert "file://" not in fragment and "src=\"/" not in fragment


class TestEmbedVideo:
    def test_payload_round_trips(self):
        payload = b"\x00\x00\x00\x18ftypmp42 fake"
        fragment = embed_video(MediaAsset(payload, "video/mp4"))
        assert fragment.startswith("<video controls")
        assert decode_payload(fragment) == payload

    def test_image_family_rejected(self):
        with pytest.raises(ValidationError):
            embed_video(MediaAsset(PNG_1PX, "image/png"))


class TestEmbedRawHtml:
    def test_identity(self):
        assert embed_raw_html("<b>hi</b>") == "<b>hi</b>"
        assert embed_raw_html("") == ""

    def test_viewer_blob_passes_through_into_stem(self, make_bank):
        blob = '<div id="viewer"><script>initViewer({"zoom":1});</script></div>'
        bank = make_bank()
        bank.addMultipleChoice(
            "", f"Identify the transform: {embed_raw_html(blob)}", ["a", "b", "c", "d"]
        )
        assert blob in bank.questions[0].stem


def _regex_payload_bytes(text):
    """data_uri_payload_bytes as one regex over the whole text: the oracle."""
    total = 0
    for match in re.finditer(r"data:[\w!#$&^.+-]+/[\w!#$&^.+-]+;base64,([A-Za-z0-9+/=]+)", text):
        start, end = match.span(1)
        while end > start and text[end - 1] == "=":
            end -= 1
        total += ((end - start) * 3) // 4
    return total


# Headers (some malformed, some back to back), payload pieces, padding, text
# around them, and runs that end on either side of a 64 KiB slice boundary.
_MEDIA_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["data:image/png;base64,", "data:video/mp4;base64,", "data:a/b;base64,data:c/d;base64,"]
            + ["data:image;base64,", "data:/png;base64,", ";base64,", "data:", "=", "==", "QQ=="]
            + [" ", '"', "<", "\u00e9", "\u4e2d", "\U0001f600", "\udcff", "\n", "-", "_", ":"]
        ),
        st.text("ABCxyz019+/=", max_size=8),
        st.builds(
            str.__mul__,
            st.sampled_from(["A", "=", "Qz", "a+/"]),
            st.integers(21_840, 21_850) | st.integers(43_680, 43_700) | st.integers(65_530, 65_540),
        ),
    ),
    max_size=12,
).map("".join)


class TestPayloadAccounting:
    @settings(max_examples=600, deadline=None)
    @given(text=_MEDIA_TEXT)
    def test_sizes_as_the_whole_text_regex_does(self, text):
        assert data_uri_payload_bytes(text) == _regex_payload_bytes(text)

    def test_data_uri_payload_bytes_is_exact(self):
        # 3, 4 and 5 bytes encode with no, two and one "=" of padding.
        for payload in (PNG_1PX, b"abc", b"abcd", b"abcde"):
            fragment = embed_image(MediaAsset(payload, "image/png"))
            assert data_uri_payload_bytes(fragment) == len(payload)

    def test_multiple_uris_are_summed(self):
        one = embed_image(MediaAsset(PNG_1PX, "image/png"))
        padded = [embed_video(MediaAsset(b"abcdef"[:n], "video/mp4")) for n in (6, 5, 4)]
        assert data_uri_payload_bytes(one + " and ".join(padded)) == len(PNG_1PX) + 15

    def test_question_media_bytes_covers_choices(self, make_bank):
        fragment = embed_image(MediaAsset(PNG_1PX, "image/png"))
        bank = make_bank()
        bank.addMultipleChoice(
            "", f"Look: {fragment}", [f"yes {fragment}", "no", "maybe", "unsure"]
        )
        assert question_media_bytes(bank.questions[0]) == 2 * len(PNG_1PX)

    def test_plain_text_counts_zero(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        assert question_media_bytes(bank.questions[0]) == 0
