"""Atomic file writes: temp file in the same directory + fsync + rename.

A crash mid-write must never leave a torn artifact on disk — watchdog
post-mortems, fleet status files, checkpoints and journal snapshots are
exactly the files an operator reads *after* a crash, so they get the
full temp-file/fsync/rename discipline.  ``os.replace`` is atomic on
POSIX (and on Windows for same-volume paths), so readers observe either
the old complete file or the new complete file, never a mixture.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_write_json"]


def atomic_write_bytes(path: Any, data: bytes, fsync: bool = True) -> None:
    """Write *data* to *path* so that a crash can never tear it.

    The temp file lives in the target's directory (rename is only atomic
    within one filesystem).  With *fsync* (default) the data is on disk
    before the rename, so even a power loss leaves the old or the new
    file, complete.
    """
    path = os.fspath(path)
    fd = None
    while fd is None:
        # Unique to this process, thread and moment — and exclusive, so
        # a leftover of the same name is stepped over, never reused.
        # (``tempfile.mkstemp`` does the same behind ``shutil``, ``random``
        # and three compression modules that a serving process would
        # import for nothing else.)
        tmp = (f"{path}.{os.getpid()}.{threading.get_ident()}."
               f"{time.monotonic_ns()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                         | getattr(os, "O_BINARY", 0), 0o600)
        except FileExistsError:
            pass  # a crashed writer's leftover: the next moment's name
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Any, text: str, fsync: bool = True) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(path: Any, obj: Any, indent: int = 2,
                      fsync: bool = True, default=str) -> None:
    atomic_write_text(path,
                      json.dumps(obj, indent=indent, default=default)
                      + "\n",
                      fsync=fsync)
