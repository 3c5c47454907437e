"""File access shared by every loader and saver.

Text inputs are read only through ``read_lines``, and the artifact
loaders decode inside ``decoding``, so a file that cannot be decoded is
reported the same way wherever it is read: one ``io.MalformedLine``
naming it.

``np.savez`` stamps zip entries with the current time, so two identical
saves differ at the byte level.  Rerunning a command with the same inputs
must produce identical artifacts, so entries are written with a fixed
timestamp and in sorted name order.  Files load with plain ``np.load``.
"""

from __future__ import annotations

import io
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import MalformedLine

_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest timestamp zip can represent


def save_arrays(path: str | Path, **arrays) -> None:
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(
                buf, np.asarray(arrays[name]), allow_pickle=False
            )
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            zf.writestr(info, buf.getvalue())


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for each line of the UTF-8 text file ``path``,
    numbered from 1, without its line end.  Each format applies its own
    comment and field rules to the lines."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def decoding(path: str | Path, what: str):
    """Report a ``what`` at ``path`` that is not valid JSON or npz, is
    truncated, or lacks a key or array as ``io.MalformedLine`` naming it."""
    try:
        yield
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise MalformedLine(f"{path}: corrupt {what} ({type(exc).__name__}: {exc})") from None
