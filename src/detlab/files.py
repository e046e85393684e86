"""Artifact files written whole or not at all, and the one array-file format."""

from __future__ import annotations

import contextlib
import os
import zipfile
from pathlib import Path

import numpy as np


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


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Writes `arrays` by name as one uncompressed `.npz` file, whole or not at all."""
    with atomic_write(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **arrays)


class Arrays(dict):
    """Arrays by name from one file; a name it lacks raises ValueError naming both."""

    def __init__(self, path, arrays: dict[str, np.ndarray]):
        super().__init__(arrays)
        self.path = path

    def __missing__(self, name: str):
        raise ValueError(f"array file {self.path} holds no array {name!r}")


def read_arrays(path) -> Arrays:
    """Every array of the `.npz` file at `path`, read whole and never unpickled;
    a file that is no whole zip of plain `.npy` arrays raises ValueError naming it."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        if other := [name for name, a in arrays.items() if not isinstance(a, np.ndarray)]:
            raise ValueError(f"member {other[0]!r} is not an array")
        return Arrays(path, arrays)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ValueError(f"unreadable array file {path}: {exc}") from exc
