"""The one write policy: banks, backups and previews are written atomically.

Every write fills a temporary sibling of its target and renames it into
place, so no partial file can ever appear. A new file gets the mode
open() would give it (0666 less the umask); a replaced file keeps its
permission bits. A failure removes the temporary file, leaves the target
untouched and raises an OSError that names the target.

Documents stream into the temporary file as UTF-8 chunks (utf8_chunks), so
a write holds the document's texts plus one chunk, not the whole document.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import stat
import time
from pathlib import Path


# Streamed text is encoded in chunks of under this many characters: a chunk's
# str and its encoding stay near 1 MiB together for ASCII text.
CHUNK_CHARS = 1 << 19


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no partial file can ever appear."""
    atomic_write_chunks(path, (data,))


def atomic_write_chunks(path: Path, chunks, before_replace=None) -> None:
    """Stream bytes ``chunks`` to ``path`` atomically; an exception raised while
    making them abandons the write. ``before_replace()`` runs once all are on
    file, just before the rename."""

    def fill(tmp):
        with open(tmp, "wb") as out:
            out.writelines(chunks)  # drops each chunk before making the next
        if before_replace is not None:
            before_replace()

    _replace_via_temp(Path(path), fill)


def utf8_chunks(blocks, check=None):
    """Encode the str pieces of ``blocks`` (lists of str) as UTF-8 chunks of
    under CHUNK_CHARS characters, each passed to ``check(text, data)`` if
    given. A longer piece is sliced into consecutive chunks of its own."""
    size, batch, length = CHUNK_CHARS, [], 0
    for block in blocks:
        block_length = sum(map(len, block))
        if length + block_length < size:  # the common case: the whole block fits
            batch += block
            length += block_length
            continue
        for piece in block:
            if batch and length + len(piece) >= size:
                yield _encoded(batch, check)
                batch, length = [], 0
            if len(piece) >= size:
                for start in range(0, len(piece), size - 1):
                    yield _encoded([piece[start:start + size - 1]], check)
                continue
            batch.append(piece)
            length += len(piece)
    if batch:
        yield _encoded(batch, check)


def _encoded(pieces, check) -> bytes:
    text = "".join(pieces)  # one piece is returned as it is, uncopied
    data = text.encode("utf-8")
    if check is not None:
        check(text, data)
    return data


def timestamped_backup(path: Path) -> Path:
    """Copy ``path`` to a sibling ``<name>.<stamp>.bak`` and return it.

    The copy is atomic too and keeps the original's mode and timestamps.
    """
    path = Path(path)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    backup = path.with_name(f"{path.name}.{stamp}.bak")
    counter = 1
    while backup.exists():
        backup = path.with_name(f"{path.name}.{stamp}-{counter}.bak")
        counter += 1
    _replace_via_temp(backup, lambda tmp: shutil.copy2(path, tmp))
    return backup


def _replace_via_temp(path: Path, fill) -> None:
    # The kernel applies the umask to 0o666, as it does for open(); the
    # random name and O_EXCL make the temporary file ours alone.
    tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        try:
            fill(tmp)
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename not in (None, tmp, str(tmp)):
            raise  # about another file, such as a failed backup: it names that file
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
