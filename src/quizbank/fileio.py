"""The one write policy: banks, backups and previews are written atomically.

Every write fills a temporary sibling of its target and renames it into
place, so no partial file can ever appear. A new file gets the mode
open() would give it (0666 less the umask); a replaced file keeps its
permission bits. A failure removes the temporary file, leaves the target
untouched and raises an OSError that names the target.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import stat
import time
from pathlib import Path


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no partial file can ever appear."""
    _replace_via_temp(Path(path), lambda tmp: tmp.write_bytes(data))


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
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
