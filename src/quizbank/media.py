"""Inline media embedding: raw bytes in, self-contained HTML fragments out.

The bank itself never touches plotting or imaging libraries; whatever
produces the bytes (matplotlib, PIL, a renderer, a file on disk) is the
caller's business. Fragments embed their payload as an RFC 2397 data URI,
so previews and exported banks stay self-contained with no references to
local files.
"""

from __future__ import annotations

import base64
import html
import re
from dataclasses import dataclass

from .errors import ValidationError
from .model import ChoiceSet, MatchPairList

_MEDIA_TYPE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9!#$&^_.+-]*/[A-Za-z0-9][A-Za-z0-9!#$&^_.+-]*$")


@dataclass(frozen=True)
class MediaAsset:
    """Raw media content plus its IANA media type (e.g. "image/png")."""

    data: bytes
    media_type: str
    alt_text: str | None = None

    def __post_init__(self):
        if not self.data:
            raise ValidationError("media asset has no content")
        if not _MEDIA_TYPE_RE.match(self.media_type):
            raise ValidationError(
                f"media type {self.media_type!r} is not a valid type/subtype string"
            )

    def data_uri(self) -> str:
        payload = base64.b64encode(self.data).decode("ascii")
        return f"data:{self.media_type};base64,{payload}"


def embed_image(asset: MediaAsset) -> str:
    """Render an image asset as a self-contained <img> fragment."""
    if not asset.media_type.startswith("image/"):
        raise ValidationError(
            f"embed_image needs an image/* asset, got {asset.media_type!r}"
        )
    alt = html.escape(asset.alt_text or "", quote=True)
    return f'<img src="{asset.data_uri()}" alt="{alt}">'


def embed_video(asset: MediaAsset) -> str:
    """Render a video asset as a self-contained <video> fragment with controls."""
    if not asset.media_type.startswith("video/"):
        raise ValidationError(
            f"embed_video needs a video/* asset, got {asset.media_type!r}"
        )
    return f'<video controls src="{asset.data_uri()}"></video>'


def embed_raw_html(fragment: str) -> str:
    """Pass a prebuilt HTML fragment (e.g. an interactive viewer) through as-is.

    Content is trusted instructor input; nothing is escaped or rewritten.
    """
    return fragment


_DATA_URI_RE = re.compile(r"data:[\w!#$&^.+-]+/[\w!#$&^.+-]+;base64,([A-Za-z0-9+/=]+)")


def data_uri_payload_bytes(text: str) -> int:
    """Total decoded size of every base64 data URI embedded in ``text``."""
    total = 0
    for match in _DATA_URI_RE.finditer(text):
        payload = match.group(1).rstrip("=")
        total += (len(payload) * 3) // 4
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
