"""Small file helpers shared by bank finalization and the CLI."""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no partial file can ever appear.

    The bytes go to a temporary sibling first and are moved into place
    with os.replace; on any failure the temporary file is removed and the
    destination is left untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def timestamped_backup(path: Path) -> Path:
    """Copy ``path`` to a sibling ``<name>.<stamp>.bak`` and return it."""
    path = Path(path)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    backup = path.with_name(f"{path.name}.{stamp}.bak")
    counter = 1
    while backup.exists():
        backup = path.with_name(f"{path.name}.{stamp}-{counter}.bak")
        counter += 1
    shutil.copy2(path, backup)
    return backup
