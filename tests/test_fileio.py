"""The shared line-file reader, number rule, vector-row reader and writer and
atomic writer, through every loader and writer that uses them."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imglex.data import load_features, load_triples, save_features
from imglex.errors import DataError
from imglex.evaluation import load_class_task, load_lexicon, load_sim_task
from imglex.fileio import atomic_write, encode_lines, write_lines
from imglex.model import load_word2vec, save_word2vec
from imglex.textproc import LangMode, Vocabulary
from oracles import full_table

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
