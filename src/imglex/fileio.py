"""Line-file reading, input numbers and atomic artifact writing.

Every line-file loader reads through :func:`read_rows`, so a file that is
missing, not UTF-8 or has the wrong number of columns fails with a
:class:`DataError` naming the file and line; every number in an input file
follows :func:`parse_number`. Files of vector rows are read in one pass by
:func:`read_vectors` and written with :func:`vector_row`. Every artifact
writer goes through :func:`atomic_write`, so a failed run never leaves a
partial output file: content is written to a temporary file in the target
directory and moved into place with os.replace, and the file gets the
mode open() would give it under the umask. :func:`write_lines` streams a
line file: each line is encoded as it is written, so a writer holds one
line of the file, not the whole text. :func:`write_npz` writes the archive
np.savez writes from each array's own buffer; :func:`read_npz`, the one
archive reader, raises a DataError naming the file and member for any defect.
:func:`file_digest` and ``read_rows(digest=)`` hash a file's bytes in 1 MiB
chunks, never the whole file at once.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import secrets
import zipfile
from contextlib import contextmanager, suppress
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from imglex.errors import DataError

DIGEST_CHUNK_BYTES = 1 << 20
VECTOR_CHUNK_ROWS = 1024  # rows read_vectors converts per np.loadtxt call


def file_digest(path: str | Path) -> str:
    """Hex SHA-256 of the bytes of the file at ``path``, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(DIGEST_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _DigestingReader(io.RawIOBase):
    """An unbuffered binary file that feeds every byte read from it into ``digest``."""

    def __init__(self, raw: BinaryIO, digest: hashlib._Hash):
        self.raw, self.digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self.raw.close()
        super().close()


def read_rows(
    path: str | Path,
    what: str,
    ncols: int | None = None,
    sep: str = "\t",
    maxsplit: int = -1,
    digest: hashlib._Hash | None = None,
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each line of the UTF-8 file at ``path``.

    ``fields`` is the line without its terminator, split on ``sep`` (at most
    ``maxsplit`` times). With ``ncols`` set, a line with another number of
    fields raises DataError. ``what`` names the file in the error raised
    when it cannot be opened. Each byte read is fed into ``digest`` when it
    is given (a hashlib object), so once the last row is yielded it has
    hashed exactly the bytes the rows came from.
    """
    try:
        raw = open(path, "rb", buffering=0)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    size = io.DEFAULT_BUFFER_SIZE
    if digest is not None:  # hashed 1 MiB at a time, as file_digest hashes
        raw, size = _DigestingReader(raw, digest), DIGEST_CHUNK_BYTES
    fh = io.TextIOWrapper(io.BufferedReader(raw, size), encoding="utf-8")
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
    path: str | Path, rows: Iterator[tuple[int, list[str]]], sep: str, what: str, dim: int | None = None
) -> tuple[list[str], np.ndarray]:
    """Keys and (N, d) float64 matrix of the rows ``(lineno, [key, values])``
    ``rows`` yields, ``values`` being ``sep``-separated ``what`` numbers. d
    is ``dim`` or the first row's length; keys are unique.

    ``rows`` is read once: np.loadtxt converts VECTOR_CHUNK_ROWS rows a call
    (for the ASCII syntax it accepts, exactly as float() does), and a chunk
    it rejects or that fails a check goes through parse_number per value,
    which raises the first bad line's DataError (before one ``rows`` raises)
    or returns float()'s values (``1_0``, non-ASCII digits).
    """
    keys: dict[str, None] = {}

    def convert(chunk: list[tuple[int, list[str]]], dim: int | None) -> np.ndarray:
        new = dict.fromkeys(fields[0] for _, fields in chunk)
        # loadtxt warns on no rows, and would skip an empty line and shift every later row onto the wrong key.
        if 0 < len(new) == len(chunk) and keys.keys().isdisjoint(new) and all(len(f) == 2 and f[1] for _, f in chunk):
            with suppress(ValueError):
                block = np.loadtxt([f[1] for _, f in chunk], delimiter=sep, comments=None, dtype=np.float64, ndmin=2)
                if len(block) == len(chunk) and dim in (None, block.shape[1]) and np.isfinite(block).all():
                    keys.update(new)
                    return block
        vectors = []
        for lineno, (key, *values) in chunk:
            if key in keys:
                raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
            keys[key] = None
            vectors.append([parse_number(raw, path, lineno, what) for raw in values[0].split(sep)] if values else [])
            dim = len(vectors[-1]) if dim is None else dim
            if len(vectors[-1]) != dim:
                raise DataError(f"{path}:{lineno}: expected {dim} {what}s, got {len(vectors[-1])}")
        return np.array(vectors, dtype=np.float64)

    matrix, size = np.empty((0, 0)), 0
    while True:
        chunk: list[tuple[int, list[str]]] = []
        try:
            chunk.extend(islice(rows, VECTOR_CHUNK_ROWS))  # extend keeps the rows read before the error
        except DataError:
            convert(chunk, dim)  # so an earlier bad line's error wins
            raise
        if not chunk:
            matrix.resize((size, matrix.shape[1]), refcheck=False)
            return list(keys), matrix
        block = convert(chunk, dim)
        size, dim = size + len(block), block.shape[1]
        if size > len(matrix):  # in place: concatenated blocks would hold the matrix twice
            capacity = size if len(chunk) < VECTOR_CHUNK_ROWS else max(2 * len(matrix), size)  # short: the last chunk
            matrix.resize((capacity, dim), refcheck=False)
        matrix[size - len(block) : size] = block


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


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` atomically as UTF-8, each terminated by
    LF (the layout of every line file), each line encoded as the file's
    buffer takes it, so only one line's text is held at a time."""
    with atomic_write(path) as fh:
        fh.writelines(f"{line}\n".encode("utf-8") for line in lines)


def write_npz(path: str | Path, entries: Mapping[str, np.ndarray]) -> None:
    """Write ``entries`` to ``path`` atomically as the archive ``np.savez(path,
    **entries)`` writes, member for member, but each array's own buffer is
    written into its member: np.savez copies it through tobytes. An array
    that is not C-contiguous is stored in C order."""
    with atomic_write(path) as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
        for name, value in entries.items():
            # The header is taken from the C-ordered array, which the data follows.
            array = np.asarray(value, order="C")
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                # A 1-D byte view: Python 3.10's zipfile counts len(data), not bytes.
                member.write(array.reshape(-1).view(np.uint8))


def read_npz(path: str | Path, what: str) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path``, read now, as an
    array by name without ``.npy``. A file that cannot be opened or is no
    archive, a member that is no .npy file, and a member that cannot be read
    (a CRC or decompression error, short data, an object array, a shape that
    cannot be allocated) raise DataError naming ``path``, ``what`` it is and
    the member."""
    try:
        fh = open(path, "rb")  # opened here: np.load leaks the handle of a bad zip
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None
    with fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except Exception:  # BadZipFile, EOFError, ValueError (whose message speaks of pickled data), ...
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DataError(f"{path}: not a {what}: not an .npz archive")
        entries = {}
        with archive:
            for name in archive.files:
                try:
                    entries[name] = archive[name]
                # Each a defect of the file: BadZipFile, zlib.error, EOFError, ValueError, MemoryError, OSError, RuntimeError, ...
                except Exception as exc:
                    raise DataError(f"{path}: {what} entry {name!r} cannot be read: {str(exc) or type(exc).__name__}") from None
                if not isinstance(entries[name], np.ndarray):  # np.load returns the bytes of a member that is no .npy file
                    raise DataError(f"{path}: {what} entry {name!r} is not an .npy array")
    return entries
