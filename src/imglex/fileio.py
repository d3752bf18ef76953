"""Line-file reading and atomic artifact writing.

Every line-file loader reads through :func:`read_rows`, so a file that is
missing, not UTF-8 or has the wrong number of columns fails with a
:class:`DataError` naming the file and line. Every artifact writer goes
through :func:`atomic_write`, so a failed run never leaves a partial output
file: content is written to a temporary file in the target directory and
moved into place with os.replace.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from imglex.errors import DataError


def read_rows(
    path: str | Path, what: str, ncols: int | None = None, sep: str = "\t"
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each line of the UTF-8 file at ``path``.

    ``fields`` is the line without its terminator, split on ``sep``. With
    ``ncols`` set, a line with another number of fields raises DataError.
    ``what`` names the file in the error raised when it cannot be opened.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    kind = "tab" if sep == "\t" else repr(sep)
    lineno = 0
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split(sep)
                if ncols is not None and len(fields) != ncols:
                    raise DataError(f"{path}:{lineno}: expected {ncols} {kind}-separated columns, got {len(fields)}")
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text after line {lineno}: {exc.reason}") from None


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces ``path`` only if the block succeeds.

    On an exception the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write ``content`` to ``path`` atomically as UTF-8."""
    with atomic_write(path) as fh:
        fh.write(content.encode("utf-8"))


def encode_lines(lines: Iterable[str]) -> bytes:
    """UTF-8 text of ``lines``, each terminated by LF: the layout of every line file."""
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` atomically, each terminated by LF."""
    with atomic_write(path) as fh:
        fh.write(encode_lines(lines))
