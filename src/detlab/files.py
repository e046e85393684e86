"""Artifact files written whole or not at all."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Yields a file open on a temp file beside `path`, and moves it over
    `path` once the block ends; if the block raises, the temp file is removed
    and `path` keeps its previous contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
