"""File access shared by every loader and saver.

Text inputs are read only through ``read_lines`` and, for commented TSV
tables, ``read_table``, which reads the whole file, and the artifact
loaders decode inside ``decoding``, so a file that cannot be decoded is
reported the same way wherever it is read: one ``io.MalformedLine``
naming it.

Every file the package writes is written through ``writing``, so it is
either whole or as it was: a failure mid-write never leaves a partial file.

``np.savez`` stamps zip entries with the current time, so two identical
saves differ at the byte level.  Rerunning a command with the same inputs
must produce identical artifacts, so entries are written with a fixed
timestamp and in sorted name order.  Files load with plain ``np.load``.
"""

from __future__ import annotations

import io
import os
import zipfile
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import MalformedLine

_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest timestamp zip can represent


@contextmanager
def writing(path: str | Path, binary: bool = False):
    """Yield a new file, UTF-8 text or binary, on a temporary name in
    ``path``'s directory, and move it onto ``path`` once the block ends.  On
    any exception the temporary file is removed and ``path`` is left as it
    was.  Opening and moving errors name ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path: str | Path, **arrays) -> None:
    with writing(path, binary=True) as fh, \
            zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
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


def read_table(path: str | Path, columns: int
               ) -> tuple[list[list[str]], Sequence[int], MalformedLine | None]:
    """The rows of a TSV file of ``columns`` (two or more) tab-separated
    fields, as ``columns`` lists of fields, the line number of each row, and
    the fault of the first line with another field count, which ends the
    rows; empty lines and lines starting with ``#`` are skipped.

    The file is read whole in text mode, so it is refused before any row
    is read if it is not UTF-8, and split on ``"\n"`` alone: the other
    line breaks of ``str.splitlines`` stay inside fields.  When every line
    is a row, the whole text is split at once."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = text.split("\n")
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    if (not text.startswith("#") and "\n#" not in text
            and set(map(str.count, lines, repeat("\t"))) <= {columns - 1}):
        cells = "\t".join(lines).split("\t") if lines else []
        return [cells[k::columns] for k in range(columns)], range(1, len(lines) + 1), None
    table: list[list[str]] = [[] for _ in range(columns)]
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != columns:
            return table, linenos, MalformedLine(
                f"{path}:{lineno}: expected {columns} tab-separated fields, got {len(fields)}")
        for column, field in zip(table, fields):
            column.append(field)
        linenos.append(lineno)
    return table, linenos, None


@contextmanager
def decoding(path: str | Path, what: str):
    """Report a ``what`` at ``path`` that is not valid JSON or npz, is
    truncated, lacks a key or array, or names a zip compression method
    (``NotImplementedError``) as ``io.MalformedLine`` naming it; an
    ``io.MalformedLine`` raised inside gets the path put before its
    message."""
    try:
        yield
    except MalformedLine as exc:
        raise MalformedLine(f"{path}: {exc.message}") from None
    except (EOFError, KeyError, NotImplementedError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise MalformedLine(f"{path}: corrupt {what} ({type(exc).__name__}: {exc})") from None
