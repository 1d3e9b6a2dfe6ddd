"""Inline media embedding: raw bytes in, self-contained HTML fragments out.

The bank itself never touches plotting or imaging libraries; whatever
produces the bytes (matplotlib, PIL, a renderer, a file on disk) is the
caller's business. Fragments embed their payload as an RFC 2397 data URI,
so previews and exported banks stay self-contained with no references to
local files.
"""

from __future__ import annotations

import binascii
import re

from .errors import ValidationError
from .model import ChoiceSet, MatchPairList, Record

_MEDIA_TYPE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9!#$&^_.+-]*/[A-Za-z0-9][A-Za-z0-9!#$&^_.+-]*$")


class MediaAsset(Record):
    """Raw media content plus its IANA media type (e.g. "image/png"). Frozen:
    fields cannot be assigned or deleted, and equal assets hash alike."""

    __slots__ = __match_args__ = ("data", "media_type", "alt_text")

    def __init__(self, data: bytes, media_type: str, alt_text: str | None = None):
        try:
            empty = not memoryview(data)
        except TypeError:
            raise ValidationError(f"media data is not bytes-like: {type(data).__name__}") from None
        if empty:
            raise ValidationError("media asset has no content")
        if not isinstance(media_type, str) or not _MEDIA_TYPE_RE.match(media_type):
            raise ValidationError(f"media type {media_type!r} is not a valid type/subtype string")
        if alt_text is not None and not isinstance(alt_text, str):
            raise ValidationError(f"alt text must be a string or None, got {alt_text!r}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "media_type", media_type)
        object.__setattr__(self, "alt_text", alt_text)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __hash__(self):
        return hash(self._fields())

    def data_uri(self) -> str:
        return _around_data_uri("", self, "")


def _around_data_uri(before: str, asset: MediaAsset, after: str) -> str:
    """before + the asset's data URI + after, from one join of the base64 bytes
    and one decode: two full-size copies at most are alive at once."""
    head = f"{before}data:{asset.media_type};base64,".encode()
    # A non-ASCII after would make the decoder widen a full-size str midway.
    tail, rest = (after, "") if after.isascii() else ("", after)
    return b"".join(
        (head, binascii.b2a_base64(asset.data, newline=False), tail.encode())
    ).decode("ascii") + rest


def embed_image(asset: MediaAsset) -> str:
    """Render an image asset as a self-contained <img> fragment."""
    if not asset.media_type.startswith("image/"):
        raise ValidationError(
            f"embed_image needs an image/* asset, got {asset.media_type!r}"
        )
    import html  # here, not at the top: only image embedding and previews escape text

    alt = html.escape(asset.alt_text or "", quote=True)
    return _around_data_uri('<img src="', asset, f'" alt="{alt}">')


def embed_video(asset: MediaAsset) -> str:
    """Render a video asset as a self-contained <video> fragment with controls."""
    if not asset.media_type.startswith("video/"):
        raise ValidationError(
            f"embed_video needs a video/* asset, got {asset.media_type!r}"
        )
    return _around_data_uri('<video controls src="', asset, '"></video>')


def embed_raw_html(fragment: str) -> str:
    """Pass a prebuilt HTML fragment (e.g. an interactive viewer) through as-is.

    Content is trusted instructor input; nothing is escaped or rewritten.
    """
    return fragment


# Compiled on first use (re caches it): only stats scans for data URIs.
_DATA_URI = r"data:[\w!#$&^.+-]+/[\w!#$&^.+-]+;base64,([A-Za-z0-9+/=]+)"


def data_uri_payload_bytes(text: str) -> int:
    """Total decoded size of every base64 data URI embedded in ``text``."""
    if ";base64," not in text:  # a C-speed search spares most texts the regex
        return 0
    total = 0
    for match in re.compile(_DATA_URI).finditer(text):
        # Sized from the span and the padding, without copying the payload.
        start, end = match.span(1)
        while end > start and text[end - 1] == "=":
            end -= 1
        total += ((end - start) * 3) // 4
    return total


def question_media_bytes(question) -> int:
    """Decoded size of all media embedded in one question's HTML fields."""
    total = data_uri_payload_bytes(question.stem)
    payload = question.payload
    if isinstance(payload, ChoiceSet):
        for choice in payload.choices:
            total += data_uri_payload_bytes(choice.text)
    elif isinstance(payload, MatchPairList):
        for prompt, match in payload.pairs:
            total += data_uri_payload_bytes(prompt)
            total += data_uri_payload_bytes(match)
    return total
