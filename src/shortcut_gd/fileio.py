"""Atomic text-file writes for the package's outputs."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from typing import TextIO


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces path only when the block completes.

    The text goes to a temporary file in path's directory, which os.replace
    then moves over path. If the block raises, the temporary file is removed
    and path keeps its old contents.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
