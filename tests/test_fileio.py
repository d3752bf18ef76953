"""The shared line-file reader, number rule, vector-row reader and writer and
atomic writer, through every loader and writer that uses them."""

import dataclasses
import hashlib
import math
import os
import random
import re
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from damaged_npz import DAMAGED_MEMBERS, npy_bytes
from imglex.data import load_features, load_triples, save_features
from imglex.errors import DataError
from imglex.evaluation import load_class_task, load_lexicon, load_sim_task
from imglex.fileio import atomic_write, file_digest, read_npz, write_lines, write_npz
from imglex.model import load_word2vec, save_word2vec
from imglex.textproc import LangMode, Vocabulary
from oracles import encode_lines, full_table

LOADERS = {
    "load_triples": load_triples,
    "load_features": load_features,
    "load_sim_task": load_sim_task,
    "load_class_task": lambda path: load_class_task(path, path),
    "load_lexicon": load_lexicon,
    "load_word2vec": load_word2vec,
    "Vocabulary.load": Vocabulary.load,
}

# (loader, file name, content whose last line has the wrong column or field count, that line)
BAD_COUNT = [
    ("load_triples", "triples.tsv", "1.0\ten\tq\timg\n1.0\ten\tq\n", 2),
    ("load_features", "features.tsv", "a\t0.1,0.2\nb\n", 2),
    ("load_sim_task", "sim.tsv", "en:a\ten:b\t1.0\nen:a\ten:b\n", 2),
    ("load_class_task", "docs.tsv", "x\ten\tsome text\nx\ten\n", 2),
    ("load_lexicon", "lexicon.tsv", "l0:a\tl1:b\t0\nl0:a\tl1:b\t0\textra\n", 2),
    ("load_word2vec", "emb.vec", "2 2\nw1 0.5 0.25\nw2 0.5\n", 3),
]


@pytest.mark.parametrize("name, filename, content, line", BAD_COUNT, ids=[case[0] for case in BAD_COUNT])
def test_wrong_column_count_names_file_and_line(tmp_path, name, filename, content, line):
    path = tmp_path / filename
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=rf"{re.escape(filename)}:{line}: expected"):
        LOADERS[name](path)


@pytest.mark.parametrize("name", [case[0] for case in BAD_COUNT])
def test_missing_file_is_data_error(tmp_path, name):
    with pytest.raises(DataError, match="cannot read"):
        LOADERS[name](tmp_path / "missing.txt")


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


# Characters the file formats give meaning to, so short inputs often reach
# the field parsers instead of failing the column count.
FORMAT_TEXT = st.text(alphabet="0123456789 \t\n\r.,:-+eEinfa_xé", max_size=60)


def numbers(value):
    """Every float in a loader's result."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, dict):
        for item in value.values():
            yield from numbers(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from numbers(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from numbers(getattr(value, f.name))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(FORMAT_TEXT.map(str.encode), st.text(max_size=40).map(str.encode), st.binary(max_size=40)))
@example(data=b"1 1\nw nan\n")
def test_loaders_return_or_raise_data_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for name, load in LOADERS.items():
        try:
            result = load(fuzz_path)
        except DataError:
            continue  # any other exception, a bare ValueError included, fails the test
        assert all(math.isfinite(x) for x in numbers(result)), name


# (loader, file name, content with {} where the number goes, that line, what the number is)
NUMBER_FIELDS = [
    ("load_triples", "triples.tsv", "1.0\ten\tq\timg\n{}\ten\tq\timg\n", 2, "weight"),
    ("load_sim_task", "sim.tsv", "en:a\ten:b\t{}\n", 1, "score"),
    ("load_features", "features.tsv", "a\t0.5,{}\n", 1, "feature value"),
    ("load_word2vec", "emb.vec", "1 2\nw 0.5 {}\n", 2, "vector value"),
]


@pytest.mark.parametrize("raw, problem", [("x", "non-numeric"), ("0x10", "non-numeric"), ("nan", "non-finite"),
                                          ("-inf", "non-finite"), ("1e400", "non-finite")])
@pytest.mark.parametrize("name, filename, content, line, what", NUMBER_FIELDS, ids=[case[0] for case in NUMBER_FIELDS])
def test_bad_number_names_file_line_and_text(tmp_path, name, filename, content, line, what, raw, problem):
    path = tmp_path / filename
    path.write_text(content.format(raw), encoding="utf-8")
    with pytest.raises(DataError) as err:
        LOADERS[name](path)
    assert str(err.value) == f"{path}:{line}: {problem} {what} {raw!r}"


# Finite doubles, any exponent, with the edges weighted in; values up to
# 1e150 keep most rows' L2 norms finite, so most .vec files load.
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e150, max_value=1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


def assert_same_rows(loaded, keys, matrix):
    assert list(loaded) == keys
    for key, row in zip(keys, matrix):
        assert loaded[key].dtype == np.float64 and loaded[key].tobytes() == row.tobytes(), key


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12).flatmap(lambda d: st.lists(st.lists(FINITE_DOUBLES, min_size=d, max_size=d), min_size=1, max_size=5)))
def test_vector_files_round_trip_bit_for_bit(round_trip_dir, rows):
    matrix = np.array(rows, dtype=np.float64)
    keys = [f"en:w{n}" for n in range(len(rows))]
    features, vec = round_trip_dir / "features.tsv", round_trip_dir / "emb.vec"
    save_features(features, dict(zip(keys, matrix)))
    save_word2vec(vec, Vocabulary(tuple(keys), 1, LangMode.AWARE), full_table(matrix))
    assert_same_rows(load_features(features), keys, matrix)
    with np.errstate(over="ignore"):
        overflow = np.flatnonzero(~np.isfinite(np.linalg.norm(matrix, axis=1)))
    if overflow.size:
        with pytest.raises(DataError, match=rf"emb\.vec:{overflow[0] + 2}: L2 norm of '{keys[overflow[0]]}' overflows$"):
            load_word2vec(vec)
    else:
        assert_same_rows(load_word2vec(vec), keys, matrix)


def test_atomic_write_failure_keeps_existing_file(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"partial new content")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_atomic_write_file_mode_follows_the_umask(tmp_path, umask, mode):
    # As open() would create it: 0o666 less the umask, not owner-only.
    previous = os.umask(umask)
    try:
        with atomic_write(tmp_path / "artifact.bin") as fh:
            fh.write(b"content")
        write_lines(tmp_path / "lines.txt", ["a", "b"])
    finally:
        os.umask(previous)
    assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {"artifact.bin": mode, "lines.txt": mode}


# case -> lines: none, more short lines than the 8 KiB file buffer holds, a
# line longer than that buffer, and lines of 2-, 3- and 4-byte UTF-8 characters
WRITE_LINES_CASES = {
    "no-lines": [],
    "short-lines-past-the-buffer": [f"line {n}" for n in range(1025)],
    "a-line-longer-than-the-buffer": ["a" * 20_000, "b"],
    "non-ascii": ["en:straße\tde:weiß", "", "zh:图像 ja:画像", "emoji 🙂"] * 512,
}


@pytest.mark.parametrize("case", WRITE_LINES_CASES)
def test_write_lines_writes_the_bytes_of_encode_lines(tmp_path, case):
    lines = WRITE_LINES_CASES[case]
    path = tmp_path / "lines.txt"
    write_lines(path, iter(lines))
    assert path.read_bytes() == encode_lines(lines)


def test_write_npz_writes_the_archive_np_savez_writes(tmp_path):
    entries = {
        "bytes": np.frombuffer("a\x00\nstraße".encode("utf-8"), dtype=np.uint8),
        "empty": np.empty((0, 0)),
        "scalar": np.array(7, dtype=np.int64),
        "matrix": np.random.default_rng(0).standard_normal((50, 7)),
    }
    write_npz(tmp_path / "got.npz", entries)
    np.savez(tmp_path / "want.npz", **entries)
    assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()
    # Another layout is stored in C order, by value.
    fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    write_npz(tmp_path / "fortran.npz", {"fortran": fortran})
    with np.load(tmp_path / "fortran.npz") as archive:
        assert archive["fortran"].flags.c_contiguous and np.array_equal(archive["fortran"], fortran)


NPZ_ENTRIES = {
    "key": np.frombuffer(b"sha256:0 version:1", dtype=np.uint8),
    "scalar": np.array(2**63 - 1, dtype=np.int64),
    "empty": np.empty((0, 3)),
    "float32": np.array([[-0.0, np.nan], [np.inf, 1e-45]], dtype=np.float32),
    "matrix": np.random.default_rng(1).standard_normal((40, 6)),
}


def test_read_npz_reads_what_write_npz_wrote(tmp_path):
    path = tmp_path / "a.npz"
    write_npz(path, NPZ_ENTRIES)
    got = read_npz(path, "test archive")
    assert list(got) == list(NPZ_ENTRIES)
    for name, array in NPZ_ENTRIES.items():
        assert (got[name].dtype, got[name].shape, got[name].tobytes()) == (array.dtype, array.shape, array.tobytes()), name
        assert got[name].flags.writeable and got[name].flags.c_contiguous, name


def written_then_appended(name, data):
    def make(path):
        write_npz(path, NPZ_ENTRIES)
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr(name, data)

    return make


def written_then_damaged(damage):
    def make(path):
        write_npz(path, NPZ_ENTRIES)
        damage(path, "matrix")

    return make


# case -> (what makes the file at path, its DataError with {path} for the path)
READ_NPZ_FAILURES = {
    "missing file": (lambda path: None, "cannot read test archive {path}: [Errno 2] No such file or directory"),
    "a directory": (lambda path: path.mkdir(), "cannot read test archive {path}: [Errno 21] Is a directory"),
    "empty file": (lambda path: path.write_bytes(b""), "{path}: not a test archive: not an .npz archive"),
    "text": (lambda path: path.write_bytes(b"not an archive\n"), "{path}: not a test archive: not an .npz archive"),
    "bad zip": (lambda path: path.write_bytes(b"PK\x03\x04truncated"), "{path}: not a test archive: not an .npz archive"),
    "an npy file": (lambda path: path.write_bytes(npy_bytes(np.arange(3.0))), "{path}: not a test archive: not an .npz archive"),
    "pickled member": (
        lambda path: np.savez(path, objects=np.array([{}], dtype=object)),
        "{path}: test archive entry 'objects' cannot be read: Object arrays cannot be loaded when allow_pickle=False",
    ),
    "member not npy": (
        written_then_appended("notes.txt", b"\x93 not npy"),
        "{path}: test archive entry 'notes.txt' is not an .npy array",
    ),
    **{
        case: (written_then_damaged(damage), "{path}: test archive entry 'matrix' cannot be read: ")
        for case, damage in DAMAGED_MEMBERS.items()
    },
}


@pytest.mark.parametrize("case", READ_NPZ_FAILURES)
def test_read_npz_failure_is_data_error(tmp_path, case):
    make, message = READ_NPZ_FAILURES[case]
    path = tmp_path / "a.npz"
    make(path)
    with pytest.raises(DataError) as err:
        read_npz(path, "test archive")
    assert str(err.value).startswith(message.format(path=path))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list open descriptors")
@pytest.mark.parametrize("case", READ_NPZ_FAILURES)
def test_read_npz_failure_leaves_no_file_open(tmp_path, case):
    path = tmp_path / "a.npz"
    READ_NPZ_FAILURES[case][0](path)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(DataError):  # the exception, and the frames it holds, stay alive
        read_npz(path, "test archive")
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("compressed", [False, True], ids=["stored", "compressed"])
def test_read_npz_of_randomly_damaged_bytes_reads_or_raises_data_error(tmp_path, compressed):
    path = tmp_path / "a.npz"
    (np.savez_compressed if compressed else np.savez)(path, **NPZ_ENTRIES)
    valid, rng = path.read_bytes(), random.Random(int(compressed))
    for _ in range(300):
        data = bytearray(valid)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        path.write_bytes(bytes(data[: rng.randrange(len(data))] if rng.random() < 0.2 else data))
        try:
            read_npz(path, "test archive")
        except DataError:
            pass  # any other exception fails the test


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 << 20])
def test_file_digest_is_the_sha256_of_the_bytes(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
