"""Line-file reading, input numbers and atomic artifact writing.

Every line-file loader reads through :func:`read_rows`, so a file that is
missing, not UTF-8 or has the wrong number of columns fails with a
:class:`DataError` naming the file and line; every number in an input file
follows :func:`parse_number`. Files of vector rows are read by
:func:`read_vectors` and written with :func:`vector_row`. Every artifact
writer goes through :func:`atomic_write`, so a failed run never leaves a
partial output file: content is written to a temporary file in the target
directory and moved into place with os.replace, and the file gets the
mode open() would give it under the umask. :func:`write_lines` streams a
line file: each line is encoded as it is written, so a writer holds one
line of the file, not the whole text.
"""

from __future__ import annotations

import math
import os
import secrets
from contextlib import closing, contextmanager, suppress
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from imglex.errors import DataError


def read_rows(
    path: str | Path, what: str, ncols: int | None = None, sep: str = "\t", maxsplit: int = -1
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each line of the UTF-8 file at ``path``.

    ``fields`` is the line without its terminator, split on ``sep`` (at most
    ``maxsplit`` times). With ``ncols`` set, a line with another number of
    fields raises DataError. ``what`` names the file in the error raised
    when it cannot be opened.
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
                fields = line.rstrip("\n").split(sep, maxsplit)
                if ncols is not None and len(fields) != ncols:
                    raise DataError(f"{path}:{lineno}: expected {ncols} {kind}-separated columns, got {len(fields)}")
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text after line {lineno}: {exc.reason}") from None


def parse_number(raw: str, path: str | Path, lineno: int, what: str) -> float:
    """``float(raw)`` if finite; otherwise a DataError naming the file, the
    line, ``what`` the number is and the text: the rule for every number."""
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric {what} {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite {what} {raw!r}")
    return value


def read_vectors(
    path: str | Path, rows: Callable[[], Iterator[tuple[int, list[str]]]], sep: str, what: str, dim: int | None = None
) -> tuple[list[str], np.ndarray]:
    """Keys and (N, d) float64 matrix of the rows ``(lineno, [key, values])``
    that each call of ``rows`` reads, ``values`` being ``sep``-separated
    ``what`` numbers. d is ``dim`` or the first row's length; keys are unique.

    One np.loadtxt pass converts every value (for the ASCII syntax it
    accepts, exactly as float() does). A file it rejects or that fails a
    check is read again with parse_number per value, which raises the first
    bad line's DataError, or returns float()'s values (``1_0``, non-ASCII digits).
    """
    keys: list[str] = []

    def value_fields() -> Iterator[str]:
        for _, fields in rows():
            if len(fields) < 2 or not fields[1]:
                # loadtxt would skip the empty line and shift every later row onto the wrong key.
                raise ValueError("no values")
            keys.append(fields[0])
            yield fields[1]

    # Any failure, a DataError from read_rows too, falls through to the per-value pass: it raises in file order.
    with suppress(StopIteration, ValueError), closing(value_fields()) as values:
        # The peek keeps an empty file (StopIteration) from loadtxt, which warns on input without rows.
        matrix = np.loadtxt(chain([next(values)], values), delimiter=sep, comments=None, dtype=np.float64, ndmin=2)
        if len(matrix) == len(keys) == len(set(keys)) and dim in (None, matrix.shape[1]) and np.isfinite(matrix).all():
            return keys, matrix
    vectors: dict[str, list[float]] = {}
    for lineno, (key, *values) in rows():
        if key in vectors:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        vec = vectors[key] = [parse_number(raw, path, lineno, what) for raw in values[0].split(sep)] if values else []
        dim = len(vec) if dim is None else dim
        if len(vec) != dim:
            raise DataError(f"{path}:{lineno}: expected {dim} {what}s, got {len(vec)}")
    return list(vectors), np.array(list(vectors.values()) or np.empty((0, 0)), dtype=np.float64)


def vector_row(key: str, vector: Iterable[float], key_sep: str, sep: str) -> str:
    """``key``, ``key_sep``, then repr(float(x)) of each value separated by
    ``sep``: the shortest text read_vectors turns back into the same doubles."""
    return key + key_sep + sep.join(map(repr, np.asarray(vector, dtype=np.float64).tolist()))


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces ``path`` only if the block succeeds.

    On an exception the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A fresh name, created exclusively with mode 0o666, so the umask applies
    # (mkstemp would make every artifact owner-only).
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_lines(lines: Iterable[str]) -> bytes:
    """UTF-8 text of ``lines``, each terminated by LF: the layout of every line file."""
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` atomically, each terminated by LF: the
    bytes of :func:`encode_lines`, each line encoded as the file's buffer
    takes it, so only one line's text is held at a time."""
    with atomic_write(path) as fh:
        fh.writelines(f"{line}\n".encode("utf-8") for line in lines)
