"""The shared line-file reader and atomic writer, through every loader that uses them."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imglex.data import load_features, load_triples
from imglex.errors import DataError
from imglex.evaluation import load_class_task, load_lexicon, load_sim_task
from imglex.fileio import atomic_write
from imglex.model import load_word2vec
from imglex.textproc import Vocabulary

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


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(FORMAT_TEXT.map(str.encode), st.text(max_size=40).map(str.encode), st.binary(max_size=40)))
def test_loaders_return_or_raise_data_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for load in LOADERS.values():
        try:
            load(fuzz_path)
        except DataError:
            pass  # any other exception, a bare ValueError included, fails the test


def test_atomic_write_failure_keeps_existing_file(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"partial new content")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]

