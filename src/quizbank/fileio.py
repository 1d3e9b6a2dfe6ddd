"""The one file policy: banks, backups and previews are written atomically,
and a bank is read from a read-only mapping of its file (map_file).

Every write fills a temporary sibling of its target (of the file a symlink
points to: the link stays) and renames it into place, so no partial file
can ever appear, and no write opens an existing file: a backup that is a
hard link to the file a write replaces keeps the old bytes for good. A new
file gets open()'s mode (0666 less the umask); a replaced file keeps its
permission bits. A failure removes the temporary file, leaves the target
untouched and raises an OSError naming the target.

Documents stream into the temporary file as UTF-8 chunks of under 128 Ki
characters (utf8_chunks), so a write holds the document's texts plus one
chunk, about 256 KiB with its encoding for ASCII text, not the document.
A chunk that does not encode, or that the writer's ``legal`` check rejects,
ends the stream with the writer's own error, ``fail()``, in place of the
UnicodeEncodeError; the temporary file is then removed like on any failure.
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat
import time
from pathlib import Path


# Streamed text is encoded in chunks of under this many characters: a chunk's
# str and its encoding stay near 256 KiB together for ASCII text.
CHUNK_CHARS = 1 << 17


def map_file(path: Path):
    """The file at ``path`` as a read-only mapping, to use in a ``with``
    statement that closes it; its bytes, read plainly, where it cannot be
    mapped (empty, a pipe or a device)."""
    import mmap  # here, not at the top: a build never reads a bank

    with open(path, "rb") as file:  # the mapping keeps a file descriptor of its own
        try:
            return mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return contextlib.nullcontext(file.read())


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no partial file can ever appear."""
    atomic_write_chunks(path, (data,))


def atomic_write_chunks(path: Path, chunks, before_replace=None) -> None:
    """Stream bytes ``chunks`` to ``path`` atomically; an exception raised while
    making them abandons the write. ``before_replace()`` runs once all are on
    file, just before the rename; it abandons the write by returning False."""

    def fill(tmp):
        with open(tmp, "wb") as out:
            out.writelines(chunks)  # drops each chunk before making the next
        return before_replace is None or before_replace()

    _replace_via_temp(path, fill)


def utf8_chunks(blocks, fail, legal=None):
    """Encode the str pieces of ``blocks`` (lists of str) as UTF-8 chunks of
    under CHUNK_CHARS characters. A longer piece is sliced into consecutive
    chunks of its own. Raise ``fail()`` for a chunk that does not encode or
    that ``legal(text, data)``, if given, rejects."""
    size, batch, length = CHUNK_CHARS, [], 0
    for block in blocks:
        block_length = sum(map(len, block))
        if length + block_length < size:  # the common case: the whole block fits
            batch += block
            length += block_length
            continue
        for piece in block:
            if batch and length + len(piece) >= size:
                yield _encoded(batch, fail, legal)
                batch, length = [], 0
            if len(piece) >= size:
                for start in range(0, len(piece), size - 1):
                    yield _encoded([piece[start:start + size - 1]], fail, legal)
                continue
            batch.append(piece)
            length += len(piece)
        del block  # a long piece is dropped before the next block is made
    if batch:
        yield _encoded(batch, fail, legal)


def _encoded(pieces, fail, legal) -> bytes:
    text = "".join(pieces)  # one piece is returned as it is, uncopied
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        raise fail() from None
    if legal is not None and not legal(text, data):
        raise fail()
    return data


# How a filesystem refuses a hard link where a copy still works.
_NO_LINK = {errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP, errno.EOPNOTSUPP}


def timestamped_backup(path: Path) -> Path:
    """Keep the file at ``path`` (a symlink's target) as a sibling
    ``<name>.<stamp>[-N].bak`` and return it: a hard link to the file the next
    write renames away, or an atomic copy where the filesystem refuses the
    link. Either way it has the file's bytes, mode and timestamps."""
    path = Path(path)
    stamp, counter = time.strftime("%Y%m%d-%H%M%S"), 0
    while True:
        backup = path.with_name(f"{path.name}.{stamp}{f'-{counter}' if counter else ''}.bak")
        try:
            os.link(os.path.realpath(path), backup)
            return backup
        except FileExistsError:
            counter += 1
        except OSError as exc:
            if exc.errno not in _NO_LINK:
                raise OSError(exc.errno, exc.strerror, str(backup)) from exc
            import shutil  # here, not at the top: only a refused link copies
            _replace_via_temp(backup, lambda tmp: shutil.copy2(path, tmp))
            return backup


def _replace_via_temp(path: Path, fill) -> None:
    # The kernel applies the umask to 0o666, as it does for open(); the
    # random name and O_EXCL make the temporary file ours alone.
    real = os.path.realpath(path)  # a symlink's target is replaced, not the link
    tmp = f"{real}.{os.urandom(6).hex()}.tmp"
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        try:
            if fill(tmp) is not False:  # False abandons the write
                with contextlib.suppress(FileNotFoundError):
                    os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
                os.replace(tmp, real)
        finally:  # once renamed it is gone; after a failure or an abandon, it goes
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    except OSError as exc:
        if exc.filename not in (None, tmp):
            raise  # about another file, such as a failed backup: it names that file
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
