"""Corpus file formats, the multilingual filter, and the synthetic generator."""

import errno
import hashlib
import math
import os
import random
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import imglex.data
import imglex.fileio
from damaged_npz import DAMAGED_MEMBERS, rewrite_member
from imglex.data import (
    FeatureTable,
    SyntheticSpec,
    TripleRecord,
    feature_cache_path,
    filter_multilingual,
    gen_synthetic,
    generate_synthetic,
    load_features,
    load_triples,
    prepare_corpus,
    prepare_examples,
    save_features,
    save_triples,
)
from imglex.errors import DataError
from imglex.model import MAX_EMBEDDING_ROWS
from imglex.textproc import LangMode, Vocabulary, build_vocab, tokenize
from oracles import load_features_per_value, lookup, tokenize_regex
from single_read import PIPE_KINDS, counted_reads, load_piped


def triple(weight, lang, query, image_id):
    return TripleRecord(weight=weight, lang=lang, query=query, image_id=image_id)


def test_load_triples_basic(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("1.0\ten\tback pain\timg42\n0.5\tde\tkatze\timg7\n", encoding="utf-8")
    records = load_triples(path)
    assert records[0] == triple(1.0, "en", "back pain", "img42")
    assert records[1].weight == 0.5


def test_load_triples_records_are_slotted_with_one_string_per_language(tmp_path):
    # 30,000 records stay in memory through a training run: no per-record
    # __dict__, one shared language-code string per language, and each
    # record's line in the file.
    path = tmp_path / "triples.tsv"
    langs = ["en", "de", "en", "fr", "de", "en"]
    path.write_text("".join(f"1.0\t{lang}\tq{k}\timg{k % 2}\n" for k, lang in enumerate(langs)), encoding="utf-8")
    records = load_triples(path)
    assert not any(hasattr(t, "__dict__") for t in records)
    assert {lang: len({id(t.lang) for t in records if t.lang == lang}) for lang in langs} == {"en": 1, "de": 1, "fr": 1}
    assert [t.line for t in records] == [1, 2, 3, 4, 5, 6]
    # The line names the record's origin and is not part of its value.
    assert records[0] == triple(1.0, "en", "q0", "img0") and records[0].line != triple(1.0, "en", "q0", "img0").line
    assert [t.line for t in filter_multilingual(records)] == [1, 2, 3, 4, 5, 6]


def test_load_triples_wrong_column_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1.0\ten\tno image column\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.tsv:1"):
        load_triples(path)


def test_load_triples_negative_weight(tmp_path):
    path = tmp_path / "neg.tsv"
    path.write_text("-1\ten\tq\timg\n", encoding="utf-8")
    with pytest.raises(DataError, match="negative weight"):
        load_triples(path)


def test_load_triples_non_numeric_weight(tmp_path):
    path = tmp_path / "nan.tsv"
    path.write_text("ok\ten\tq\timg\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric weight"):
        load_triples(path)


def test_load_triples_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_triples(tmp_path / "nope.tsv")


def test_triples_round_trip(tmp_path):
    records = [triple(1.0, "en", "a b", "i1"), triple(0.25, "fr", "c", "i2")]
    path = tmp_path / "t.tsv"
    save_triples(path, records)
    assert load_triples(path) == records


def test_load_features_basic(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("img1\t0.1,0.2\nimg2\t0.3,0.4\n", encoding="utf-8")
    feats = load_features(path)
    assert set(feats) == {"img1", "img2"}
    assert np.allclose(feats["img1"], [0.1, 0.2])


def test_load_features_dimension_mismatch(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("img1\t0.1,0.2\nimg2\t0.3,0.4,0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected 2 feature values, got 3"):
        load_features(path)


def test_load_features_duplicate_id(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("img1\t0.1,0.2\nimg1\t0.3,0.4\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate key 'img1'"):
        load_features(path)


def test_filter_multilingual_forced_example():
    triples = [
        triple(1, "en", "q1", "imgA"),
        triple(1, "de", "q2", "imgA"),
        triple(1, "en", "q3", "imgB"),
        triple(1, "en", "q4", "imgA"),
    ]
    kept = filter_multilingual(triples)
    assert [t.image_id for t in kept] == ["imgA", "imgA", "imgA"]
    assert kept == [triples[0], triples[1], triples[3]]  # stable order


def test_filter_multilingual_empty():
    assert filter_multilingual([]) == []


def test_filter_multilingual_hand_enumerated_corpus():
    langs = ["en", "en", "de", "fr", "en", "de", "en", "fr", "de", "en"]
    images = ["i1", "i2", "i1", "i3", "i2", "i2", "i3", "i1", "i3", "i1"]
    triples = [triple(1, langs[k], f"q{k}", images[k]) for k in range(10)]
    # By hand: i1 has {en, de, fr}; i2 has {en, de}; i3 has {fr, en, de}.
    assert filter_multilingual(triples) == triples


def test_filter_multilingual_matches_bruteforce_and_idempotent():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(0, 120)
        triples = [
            triple(1, rng.choice(["en", "de", "fr"]), f"q{k}", f"i{rng.randrange(12)}")
            for k in range(n)
        ]
        kept = filter_multilingual(triples)
        brute = [
            t
            for t in triples
            if len({u.lang for u in triples if u.image_id == t.image_id}) >= 2
        ]
        assert kept == brute
        assert filter_multilingual(kept) == kept


def small_spec(**overrides):
    defaults = dict(
        num_concepts=3,
        num_languages=2,
        words_per_concept=2,
        feature_dim=6,
        noise_sigma=0.1,
        num_examples=40,
        seed=11,
        images_per_concept=4,
        isolated_image_fraction=0.25,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


def test_gen_synthetic_zero_sigma_identical_features():
    corpus = generate_synthetic(small_spec(noise_sigma=0.0))
    by_concept = {}
    for image_id, vec in corpus.features.items():
        if image_id.startswith("c"):  # pool image id: c<concept>i<slot>
            by_concept.setdefault(image_id[1:].split("i")[0], []).append(vec)
    assert len(by_concept) == 3
    for vecs in by_concept.values():
        for v in vecs[1:]:
            assert np.array_equal(v, vecs[0])


def test_gen_synthetic_counting():
    corpus = generate_synthetic(small_spec(num_concepts=2, num_languages=2, words_per_concept=1, num_examples=4))
    assert len(corpus.triples) == 4
    words = {w for w1, w2, _ in corpus.lexicon for w in (w1.split(":", 1)[1], w2.split(":", 1)[1])}
    assert len(words) == 4  # 2 concepts x 2 languages x 1 word


def test_gen_synthetic_deterministic(tmp_path):
    a = gen_synthetic(small_spec(), tmp_path / "a")
    b = gen_synthetic(small_spec(), tmp_path / "b")
    for pa, pb in [(a.triples, b.triples), (a.features, b.features), (a.lexicon, b.lexicon)]:
        assert pa.read_bytes() == pb.read_bytes()


# sha256 of the files gen_synthetic writes for the default spec with 200
# examples, 10 images per concept and seed 1.
PINNED_GENSYNTH = {
    "triples.tsv": "768c710a3621b9ee46e03b2ea5852825c0d0802a9e977e37550d782f9352f6cd",
    "features.tsv": "abf3a353f867b3a5ce3edd6612f95952c595aa7aca799f84571fd8daab5afd89",
    "lexicon.tsv": "6093bfbc1be468197b0c982542bf08bb1bcb8187da8d8eb72bca6f875b88ddd7",
}


def test_gen_synthetic_default_output_is_pinned(tmp_path):
    # The generator's draws and file formats are a contract: a corpus once
    # generated is regenerated byte for byte by every later version.
    paths = gen_synthetic(SyntheticSpec(num_examples=200, images_per_concept=10, seed=1), tmp_path)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (paths.triples, paths.features, paths.lexicon)}
    assert got == PINNED_GENSYNTH


def test_gen_synthetic_lexicon_is_crosslingual_same_concept():
    corpus = generate_synthetic(small_spec())
    assert corpus.lexicon
    for w1, w2, concept in corpus.lexicon:
        lang1, word1 = w1.split(":", 1)
        lang2, word2 = w2.split(":", 1)
        assert lang1 != lang2
        # Synthetic words embed their concept: l<lang>w<concept>k<slot>.
        assert word1.split("w")[1].split("k")[0] == str(concept)
        assert word2.split("w")[1].split("k")[0] == str(concept)


def test_gen_synthetic_features_are_normalized_and_cover_all_images():
    corpus = generate_synthetic(small_spec())
    referenced = {t.image_id for t in corpus.triples}
    assert referenced <= set(corpus.features)
    for vec in corpus.features.values():
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sigma", [1e154, 1e200, 1e308])
def test_gen_synthetic_huge_sigma_features_are_finite_unit_rows(sigma):
    # sigma * noise overflows the norm (1e154 and up) or the entries
    # themselves (1e308); every row must still be a finite unit vector
    # pointing along the noise, with no numpy warning.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        corpus = generate_synthetic(small_spec(noise_sigma=sigma))
    matrix = np.array(list(corpus.features.values()))
    assert np.isfinite(matrix).all()
    assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.count_nonzero(matrix) > 0.9 * matrix.size


def prepared_fixture(tower, triples=None, features=None):
    triples = triples or [
        triple(1.0, "en", "back pain", "img42"),
        triple(0.5, "en", "???", "img42"),
        triple(2.0, "de", "katze", "img7"),
    ]
    stream = ["en:back"] * 6 + ["en:pain"] * 6 + ["de:katze"] * 6
    vocab = build_vocab(stream, min_count=6, num_buckets=10, mode=LangMode.AWARE)
    return prepare_examples(triples, vocab, tower=tower, features=features), vocab


def test_prepare_examples_mlp():
    features = FeatureTable(["img42", "img7"], np.array([[0.1, 0.2], [0.3, 0.4]]))
    prep, vocab = prepared_fixture("mlp", features=features)
    assert prep.dropped == 1  # "???" tokenizes to nothing
    corpus = prep.examples
    assert corpus.size == 2
    assert corpus.token_ids[: corpus.counts[0]].tolist() == [vocab.index["en:back"], vocab.index["en:pain"]]
    assert np.array_equal(corpus.images[0], features["img42"])
    assert corpus.weights[0] == 1.0
    assert prep.feature_dim == 2


def test_prepare_examples_missing_feature_named():
    features = FeatureTable(["img42"], np.array([[0.1, 0.2]]))
    with pytest.raises(DataError, match="img7"):
        prepared_fixture("mlp", features=features)


def test_prepare_examples_lookup_dense_reindex():
    triples = [
        triple(1.0, "en", "back pain", "a"),
        triple(1.0, "de", "katze", "b"),
        triple(1.0, "en", "pain", "a"),
    ]
    prep, _ = prepared_fixture("lookup", triples=triples)
    assert prep.examples.image_rows.tolist() == [0, 1, 0]
    assert prep.num_images == 2


def test_prepare_examples_hashes_oov_tokens():
    _, vocab = prepared_fixture("lookup")
    prep = prepare_examples([triple(1.0, "fr", "inconnu", "x")], vocab, tower="lookup")
    assert prep.examples.token_ids[0] >= vocab.vocab_size


def test_prepare_examples_preserves_order():
    triples = [triple(1.0, "en", f"back pain {k}", f"i{k}") for k in range(5)]
    prep, _ = prepared_fixture("lookup", triples=triples)
    assert prep.examples.image_rows.tolist() == [0, 1, 2, 3, 4]


# One chunk of read_vectors' rows: in the cases that follow it, line N1 opens chunk 2.
CHUNK = "".join(f"i{n}\t{n},-0.5\n" for n in range(imglex.fileio.VECTOR_CHUNK_ROWS))
CHUNK_VECTORS = {f"i{n}": [float(n), -0.5] for n in range(imglex.fileio.VECTOR_CHUNK_ROWS)}
N1 = imglex.fileio.VECTOR_CHUNK_ROWS + 1

# (case, features.tsv content, vectors by id, or the DataError message after "f.tsv:")
FEATURE_CASES = [
    ("empty file", "", {}),
    ("single row", "a\t0.5,-1\n", {"a": [0.5, -1.0]}),
    ("one value per row", "a\t1\nb\t2e-3\n", {"a": [1.0], "b": [0.002]}),
    ("empty value field", "a\t1,2\nb\t\nc\t3,4\n", "2: non-numeric feature value ''"),
    ("empty first value field", "a\t\n", "1: non-numeric feature value ''"),
    ("blank value field", "a\t1\nb\t  \n", "2: non-numeric feature value '  '"),
    ("hash in a value", "a\t1,2\nb\t3,4#5\n", "2: non-numeric feature value '4#5'"),
    ("hash starts a value", "a\t1,#2\n", "1: non-numeric feature value '#2'"),
    ("spaces around a value", "a\t 1.5 ,2 \n", {"a": [1.5, 2.0]}),
    ("trailing comma", "a\t1,2,\n", "1: non-numeric feature value ''"),
    ("underscore digits", "a\t1_0,2\n", {"a": [10.0, 2.0]}),
    ("non-ASCII digits", "a\t١٢,3\n", {"a": [12.0, 3.0]}),
    ("hex", "a\t0x10,2\n", "1: non-numeric feature value '0x10'"),
    ("nan", "a\t1,2\nb\tnan,1\n", "2: non-finite feature value 'nan'"),
    ("inf", "a\t-inf,1\n", "1: non-finite feature value '-inf'"),
    ("overflow to inf", "a\t1,1e400\n", "1: non-finite feature value '1e400'"),
    ("length change mid-file", "a\t1,2\nb\t3,4\nc\t5\n", "3: expected 2 feature values, got 1"),
    ("duplicate id", "a\t1,2\nb\t3,4\na\t5,6\n", "3: duplicate key 'a'"),
    ("first bad line wins", "a\t1\nb\tx\nc\n", "2: non-numeric feature value 'x'"),
    ("column count", "a\t1\nb\t2\t3\n", "2: expected 2 tab-separated columns, got 3"),
    ("rows in two chunks", CHUNK + "b\t5,6\n", {**CHUNK_VECTORS, "b": [5.0, 6.0]}),
    ("underscore digits in chunk 2", CHUNK + "b\t1_0,2\n", {**CHUNK_VECTORS, "b": [10.0, 2.0]}),
    ("bad value in chunk 2", CHUNK + "b\t1,2\nc\tx,3\n", f"{N1 + 1}: non-numeric feature value 'x'"),
    ("duplicate id across chunks", CHUNK + "i0\t5,6\n", f"{N1}: duplicate key 'i0'"),
    ("length change across chunks", CHUNK + "b\t5,6,7\n", f"{N1}: expected 2 feature values, got 3"),
    ("column count opens chunk 2", CHUNK + "b\n", f"{N1}: expected 2 tab-separated columns, got 1"),
    ("column count after a bad value in chunk 2", CHUNK + "b\t1,2\nc\tx,3\nd\t4\t5\n", f"{N1 + 1}: non-numeric feature value 'x'"),
]


def assert_same_features(got, want):
    assert list(got) == list(want)
    for image_id, vec in want.items():
        assert got[image_id].dtype == vec.dtype and got[image_id].tobytes() == vec.tobytes(), image_id


def parse_forbidden(*args, **kwargs):
    raise AssertionError("the features file was parsed, not read from its cache")


def load_warm(monkeypatch, path):
    """load_features served by the feature cache alone: a parse fails the test."""
    with monkeypatch.context() as patch:
        patch.setattr(imglex.data, "read_vectors", parse_forbidden)
        return load_features(path)


@pytest.mark.parametrize("content, expected", [case[1:] for case in FEATURE_CASES], ids=[case[0] for case in FEATURE_CASES])
def test_load_features_edge_cases(tmp_path, monkeypatch, content, expected):
    path = tmp_path / "f.tsv"
    path.write_text(content, encoding="utf-8")
    if isinstance(expected, str):
        for _ in ("cold", "again"):  # a bad file writes no cache, so each load parses it
            with pytest.raises(DataError) as err:
                load_features(path)
            assert str(err.value) == f"{path}:{expected}"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tsv"]
        with pytest.raises(DataError) as reference:
            load_features_per_value(path)
        assert str(reference.value) == str(err.value)
        return
    want = {image_id: np.array(values, dtype=np.float64) for image_id, values in expected.items()}
    assert_same_features(load_features(path), want)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".f.tsv.imglex-cache.npz", "f.tsv"]
    assert_same_features(load_warm(monkeypatch, path), want)
    assert_same_features(load_features_per_value(path), want)


def test_load_features_rows_view_one_matrix(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("a\t1,2,3\nb\t4,5,6\n", encoding="utf-8")
    feats = load_features(path)
    matrix = feats["a"].base
    assert matrix is not None and matrix is feats["b"].base
    assert matrix.shape == (2, 3) and matrix.dtype == np.float64


def test_feature_table_reads_the_file_in_order(tmp_path, monkeypatch):
    path = tmp_path / "f.tsv"
    path.write_text("b\t1.5,-0.0\na\t3.0,4.0\nc\t5e-324,1e+308\n", encoding="utf-8")  # as save_features writes
    for table in (load_features(path), load_warm(monkeypatch, path)):  # parsed, then from the cache
        assert isinstance(table, FeatureTable)
        assert len(table) == 3 and list(table) == ["b", "a", "c"] and "a" in table and "z" not in table
        assert table.matrix.shape == (3, 2) and [table.index[k] for k in table] == [0, 1, 2]
        assert_same_features(table, load_features_per_value(path))
        with pytest.raises(KeyError):
            table["z"]
        assert table.get("z") is None
        with pytest.raises(ValueError, match="read-only"):
            table["a"][0] = 1.0
        copy = tmp_path / "copy.tsv"
        save_features(copy, table)
        assert copy.read_bytes() == path.read_bytes()


FEATURES = "a\t1,2\nb\t3,4\n"


def test_feature_cache_sits_next_to_the_file(tmp_path):
    assert feature_cache_path(tmp_path / "features.tsv") == tmp_path / ".features.tsv.imglex-cache.npz"
    assert feature_cache_path("features.tsv") == Path(".features.tsv.imglex-cache.npz")


def test_feature_cache_is_keyed_by_the_bytes_not_the_size_or_mtime(tmp_path, monkeypatch):
    path = tmp_path / "f.tsv"
    path.write_text(FEATURES, encoding="utf-8")
    load_features(path)
    before = path.stat()
    path.write_text(FEATURES.replace("4", "5"), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    want = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 5.0])}
    assert_same_features(load_features(path), want)
    assert_same_features(load_warm(monkeypatch, path), want)


def test_feature_cache_of_another_version_is_parsed_over(tmp_path, monkeypatch):
    path = tmp_path / "f.tsv"
    path.write_text(FEATURES, encoding="utf-8")
    load_features(path)
    monkeypatch.setattr(imglex.data, "FEATURE_CACHE_VERSION", imglex.data.FEATURE_CACHE_VERSION + 1)
    parses = []

    def read_vectors(*args):
        parses.append(args[0])
        return imglex.fileio.read_vectors(*args)

    with monkeypatch.context() as patch:
        patch.setattr(imglex.data, "read_vectors", read_vectors)
        assert_same_features(load_features(path), load_features_per_value(path))
    assert parses == [path]
    assert_same_features(load_warm(monkeypatch, path), load_features_per_value(path))


def test_feature_cache_is_keyed_by_the_bytes_the_parse_read(tmp_path, monkeypatch):
    # The file changes while it loads: once the parse's one read has taken its
    # bytes ("1_0" is not np.loadtxt syntax, so the per-value conversion runs,
    # with no second read), then after the parse. A later load of any of the
    # file's contents gets its values.
    path = tmp_path / "f.tsv"
    path.write_text("a\t1_0\n", encoding="utf-8")
    reads = []

    def read_rows(*args, **kwargs):
        reads.append(args[0])
        for row in imglex.fileio.read_rows(*args, **kwargs):
            path.write_text("a\t2_0\n", encoding="utf-8")
            yield row

    with monkeypatch.context() as patch:
        patch.setattr(imglex.data, "read_rows", read_rows)
        assert load_features(path)["a"].tolist() == [10.0]
    assert reads == [path]
    assert load_features(path)["a"].tolist() == [20.0]
    path.write_text("a\t1_0\n", encoding="utf-8")
    assert load_features(path)["a"].tolist() == [10.0]

    def read_vectors(*args):
        parsed = imglex.fileio.read_vectors(*args)
        path.write_text("a\t3_0\n", encoding="utf-8")
        return parsed

    path.write_text("a\t4,5\n", encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(imglex.data, "read_vectors", read_vectors)
        assert load_features(path)["a"].tolist() == [4.0, 5.0]
    assert load_features(path)["a"].tolist() == [30.0]


def rewrite_cache(cache, **changes):
    """Rewrite the archive at ``cache`` with some members replaced (None drops
    one, a callable maps the stored array)."""
    with np.load(cache) as archive:
        members = {name: archive[name] for name in archive.files}
    members.update((name, change(members[name]) if callable(change) else change) for name, change in changes.items())
    np.savez(cache, **{name: value for name, value in members.items() if value is not None})


def write_npy(cache, array):
    with cache.open("wb") as fh:
        np.save(fh, array)


# case -> what damages the cache of FEATURES; each is a miss that is parsed over and rewritten
CORRUPT_CACHES = {
    "empty file": lambda cache: cache.write_bytes(b""),
    "not a zip": lambda cache: cache.write_bytes(b"not an archive\n"),
    "truncated": lambda cache: cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2]),
    "an npy file": lambda cache: write_npy(cache, np.zeros((2, 2))),
    "no vectors": lambda cache: rewrite_cache(cache, vectors=None),
    "no key": lambda cache: rewrite_cache(cache, key=None),
    "wrong key": lambda cache: rewrite_cache(cache, key=np.frombuffer(b"sha256:0 version:1", dtype=np.uint8)),
    "key of another dtype": lambda cache: rewrite_cache(cache, key=lambda key: key.astype(np.int16)),
    "ids as a unicode array": lambda cache: rewrite_cache(cache, ids=np.array(["a", "b"])),
    "pickled ids": lambda cache: rewrite_cache(cache, ids=np.array(["a", "b"], dtype=object)),
    "ids not UTF-8": lambda cache: rewrite_cache(cache, ids=np.frombuffer(b"\xff\nb", dtype=np.uint8)),
    "fewer ids than rows": lambda cache: rewrite_cache(cache, ids=np.frombuffer(b"a", dtype=np.uint8)),
    "duplicate ids": lambda cache: rewrite_cache(cache, ids=np.frombuffer(b"a\na", dtype=np.uint8)),
    "float32 vectors": lambda cache: rewrite_cache(cache, vectors=np.zeros((2, 2), dtype=np.float32)),
    "1-D vectors": lambda cache: rewrite_cache(cache, vectors=np.zeros(2)),
    "non-finite value": lambda cache: rewrite_cache(cache, vectors=np.array([[1.0, 2.0], [3.0, np.nan]])),
    "vectors not an npy file": lambda cache: rewrite_member(cache, "vectors", b"\x93garbage\xff"),
    **{f"vectors: {case}": lambda cache, damage=damage: damage(cache, "vectors") for case, damage in DAMAGED_MEMBERS.items()},
}


@pytest.mark.parametrize("case", CORRUPT_CACHES)
def test_a_damaged_feature_cache_is_parsed_over_and_rewritten(tmp_path, monkeypatch, case):
    path = tmp_path / "f.tsv"
    path.write_text(FEATURES, encoding="utf-8")
    load_features(path)
    CORRUPT_CACHES[case](feature_cache_path(path))
    want = load_features_per_value(path)
    assert_same_features(load_features(path), want)
    assert_same_features(load_warm(monkeypatch, path), want)


def test_an_unreadable_feature_cache_is_parsed_over(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text(FEATURES, encoding="utf-8")
    feature_cache_path(path).mkdir()  # can be neither read nor replaced
    assert_same_features(load_features(path), load_features_per_value(path))
    assert feature_cache_path(path).is_dir()


def fail_with(error):
    def fail(*args, **kwargs):
        raise error

    return fail


def open_failing_for_temporary_files(path, *args, real_open=os.open):
    if str(path).endswith(".tmp"):
        raise PermissionError(errno.EACCES, "Permission denied")
    return real_open(path, *args)


# where the cache write fails -> (object, attribute, replacement)
FAILED_WRITES = {
    "creating the file": (os, "open", open_failing_for_temporary_files),
    "writing a member": (np.lib.format, "write_array_header_1_0", fail_with(OSError(errno.ENOSPC, "No space left on device"))),
    "moving it into place": (os, "replace", fail_with(PermissionError(errno.EACCES, "Permission denied"))),
}


@pytest.mark.parametrize("where", FAILED_WRITES)
def test_a_failed_feature_cache_write_is_ignored(tmp_path, monkeypatch, where):
    path = tmp_path / "f.tsv"
    path.write_text(FEATURES, encoding="utf-8")
    monkeypatch.setattr(*FAILED_WRITES[where])
    assert_same_features(load_features(path), load_features_per_value(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tsv"]


@pytest.mark.parametrize("content", [FEATURES, "a\t1_0,2\nb\t3,4\n", "a\t1,2\nb\tx,4\n"], ids=["clean", "1_0", "bad value"])
def test_a_features_parse_opens_the_file_once(tmp_path, content):
    path = tmp_path / "f.tsv"
    path.write_text(content, encoding="utf-8")
    with counted_reads(imglex.data) as (reads, opens):
        try:
            got = load_features(path)
        except DataError as exc:
            got = exc
    assert reads == [path] and opens == [path]
    if isinstance(got, DataError):
        assert str(got) == f"{path}:2: non-numeric feature value 'x'"
    else:
        assert_same_features(got, load_features_per_value(path))


@pytest.mark.parametrize("kind", PIPE_KINDS)
@pytest.mark.parametrize("content, expected", [case[1:] for case in FEATURE_CASES], ids=[case[0] for case in FEATURE_CASES])
def test_load_features_from_a_pipe(tmp_path, kind, content, expected):
    # One pass over the pipe: the regular file's rows or its DataError, and no cache.
    path, got = load_piped(kind, tmp_path, content, load_features)
    if isinstance(expected, str):
        assert isinstance(got, DataError) and str(got) == f"{path}:{expected}"
    else:
        assert_same_features(got, {image_id: np.array(values, dtype=np.float64) for image_id, values in expected.items()})
    assert [p.name for p in tmp_path.iterdir()] == ([] if kind == "anonymous" else ["pipe"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_features_from_a_pipe_are_parsed_with_no_cache(tmp_path):
    path = tmp_path / "f.tsv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(FEATURES,), kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    table = load_features(path)
    writer.join(timeout=10)
    assert_same_features(table, {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tsv"]


@pytest.mark.parametrize(
    "content",
    ["a\x00\t1\n\x00b\x00\t2\nstraße 图像\t3\n two words \t4\n\t5\n", "\t5\n", "\x00\t5\n", ""],
    ids=["NULs, non-ASCII, spaces and an empty id", "one empty id", "one NUL id", "empty file"],
)
def test_feature_cache_keeps_every_id_exactly(tmp_path, monkeypatch, content):
    path = tmp_path / "f.tsv"
    path.write_text(content, encoding="utf-8")
    want = load_features_per_value(path)
    assert_same_features(load_features(path), want)
    warm = load_warm(monkeypatch, path)
    assert_same_features(warm, want)
    assert warm.matrix.shape == load_features(path).matrix.shape


def test_prepare_examples_shares_the_loaded_matrix(tmp_path):
    features = {"img42": np.array([0.1, 0.2]), "img7": np.array([0.3, 0.4]), "unused": np.array([0.5, 0.6])}
    path = tmp_path / "f.tsv"
    save_features(path, features)
    table = load_features(path)
    from_table, _ = prepared_fixture("mlp", features=table)
    assert from_table.examples.features.base is table.matrix.base  # no copy
    assert from_table.examples.image_rows.tolist() == [0, 1]
    assert from_table.examples.images.tobytes() == np.stack([features["img42"], features["img7"]]).tobytes()


def test_prepare_examples_checks_the_weights():
    with pytest.raises(ValueError, match="weights must be finite and non-negative"):
        prepared_fixture("lookup", triples=[triple(-1.0, "en", "back", "a")])


def corpus_triples():
    """A synthetic corpus plus a surface form two languages share, a query
    that tokenizes to nothing and an image seen twice."""
    corpus = generate_synthetic(small_spec())
    extra = [
        triple(1.0, "en", "Actor!", "c0i0"),
        triple(0.5, "es", "actor", "c1i1"),
        triple(2.0, "de", "???", "c0i0"),
        triple(1.0, "es", "actor l0w0k0", "c0i0"),
    ]
    return corpus.triples + extra, corpus.features


@pytest.mark.parametrize("mode", list(LangMode))
@pytest.mark.parametrize("tower", ["mlp", "lookup"])
def test_prepare_corpus_is_build_vocab_then_prepare_examples(tower, mode):
    triples, features = corpus_triples()
    vocab, prep = prepare_corpus(triples, tower=tower, features=features, mode=mode, min_count=2, num_buckets=7)
    want_vocab = build_vocab(
        (token for t in triples for token in tokenize(t.query, t.lang, mode)), min_count=2, num_buckets=7, mode=mode
    )
    want = prepare_examples(triples, want_vocab, tower=tower, features=features)
    assert vocab == want_vocab and vocab.vocab_size > 0
    for name in ("token_ids", "counts", "offsets", "image_rows", "weights"):
        got, expected = getattr(prep.examples, name), getattr(want.examples, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert prep.examples.features is want.examples.features
    assert (prep.dropped, prep.num_images, prep.feature_dim) == (want.dropped, want.num_images, want.feature_dim)
    assert prep.dropped == 1
    if mode is LangMode.UNAWARE:
        assert "actor" in vocab.index


@pytest.mark.parametrize("min_count, error", [(2, None), (10**6, "empty vocabulary: none of the")])
def test_prepare_corpus_tokenizes_each_query_once(monkeypatch, min_count, error):
    triples, features = corpus_triples()
    calls = []

    def counted(query, lang, mode):
        calls.append(query)
        return tokenize(query, lang, mode)

    monkeypatch.setattr(imglex.data, "tokenize", counted)
    kwargs = dict(tower="mlp", features=features, mode=LangMode.AWARE, min_count=min_count, num_buckets=7)
    if error is None:
        prepare_corpus(triples, **kwargs)
    else:
        with pytest.raises(DataError, match=error):
            prepare_corpus(triples, **kwargs)
    assert calls == [t.query for t in triples]


def tail_corpus(examples: int, concepts: int, seed: int = 0) -> tuple[list[TripleRecord], FeatureTable]:
    """A corpus shaped like the benchmark's heavytail-200k: each query holds
    1-3 of the 4 words of one concept in one of 3 languages, then
    Poisson(2) tail tokens t<r> with ranks r drawn from a Zipf law over 10**6
    ranks, most of which occur too rarely to enter a vocabulary. 60% of the
    queries have an image of their own. Every vector is zero: packing reads
    only the table's index."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(1.0 / np.arange(1, 10**6 + 1))
    tail_counts = rng.poisson(2.0, size=examples)
    ranks = iter((np.searchsorted(cdf, rng.random(tail_counts.sum()) * cdf[-1]) + 1).tolist())
    triples = []
    for n, tail in enumerate(tail_counts.tolist()):
        concept, lang = int(rng.integers(concepts)), int(rng.integers(3))
        words = [f"l{lang}w{concept}k{k}" for k in rng.permutation(4)[: rng.integers(1, 4)]]
        words += [f"t{next(ranks)}" for _ in range(tail)]
        image = f"x{n}" if rng.random() < 0.6 else f"c{concept}i{rng.integers(50)}"
        query = str(rng.choice([" ", " ", ", "])).join(words)
        triples.append(TripleRecord(weight=float(rng.integers(1, 4)) / 2, lang=f"l{lang}", query=query, image_id=image, line=n + 1))
    image_ids = list(dict.fromkeys(t.image_id for t in triples))
    return triples, FeatureTable(image_ids, np.zeros((len(image_ids), 4)))


def packed_by_oracle(triples, vocab, table):
    """The packed arrays of ``triples``, each token tokenized by the separator
    pattern and mapped by the per-token lookup oracle; image rows index
    ``table``, or number the image ids in first-seen order without one."""
    token_ids, counts, image_rows, weights, first_seen = [], [], [], [], {}
    for t in triples:
        tokens = tokenize_regex(t.query, t.lang, vocab.mode)
        if tokens:
            token_ids += (lookup(vocab, token) for token in tokens)
            counts.append(len(tokens))
            image_rows.append(first_seen.setdefault(t.image_id, len(first_seen)) if table is None else table.index[t.image_id])
            weights.append(t.weight)
    counts = np.array(counts, dtype=np.int64)
    return dict(
        token_ids=np.array(token_ids, dtype=np.int64),
        counts=counts,
        offsets=np.cumsum(counts) - counts,
        image_rows=np.array(image_rows, dtype=np.int64),
        weights=np.array(weights, dtype=np.float64),
    )


@pytest.mark.parametrize("mode", list(LangMode))
@pytest.mark.parametrize("tower", ["mlp", "lookup"])
def test_packing_maps_tokens_as_the_per_token_oracle(tower, mode):
    triples, table = tail_corpus(5000, concepts=20)
    vocab, from_corpus = prepare_corpus(triples, tower=tower, features=table, mode=mode, min_count=6, num_buckets=1000)
    from_examples = prepare_examples(triples, vocab, tower=tower, features=table)
    want = packed_by_oracle(triples, vocab, table if tower == "mlp" else None)
    oov_share = np.mean(want["token_ids"] >= vocab.vocab_size)
    assert 0.25 < oov_share < 0.4, oov_share
    for prepared in (from_corpus, from_examples):
        for name, expected in want.items():
            got = getattr(prepared.examples, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name


@pytest.mark.parametrize("num_buckets", [1, 7, 200_000, 10**11, MAX_EMBEDDING_ROWS - 2])
def test_packed_bucket_ids_are_the_oracle_hash(num_buckets):
    vocab = Vocabulary(("en:a", "de:a"), num_buckets, LangMode.AWARE)
    triples = [triple(1.0, "en", "a zzzunseen A", "i0"), triple(1.0, "de", "Straße 中文 a " + "x" * 300, "i1")]
    want = [lookup(vocab, token) for t in triples for token in tokenize_regex(t.query, t.lang, vocab.mode)]
    assert prepare_examples(triples, vocab, tower="lookup").examples.token_ids.tolist() == want


def test_prepare_examples_transient_memory_stays_flat():
    # Packing the 20,000 triples of a heavytail-200k-shaped corpus (80,074
    # tokens, 29% of them OOV) peaked at 3.25 MB traced when each OOV token
    # was hashed as it was packed (Python 3.11); holding the OOV bytes for
    # one bulk hash may add no more than 10% to that.
    triples, table = tail_corpus(20_000, concepts=150)
    vocab = build_vocab((token for t in triples for token in tokenize(t.query, t.lang, LangMode.AWARE)), min_count=6, num_buckets=200_000)
    tracemalloc.start()
    try:
        prepare_examples(triples, vocab, tower="mlp", features=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 3.25e6, peak


@pytest.fixture(scope="module")
def features_path(tmp_path_factory):
    return tmp_path_factory.mktemp("features") / "features.tsv"


# Finite doubles, the edges of the range weighted in: subnormals, -0.0, the
# smallest normal and values near the largest double.
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 70).flatmap(lambda d: st.lists(st.lists(FINITE_DOUBLES, min_size=d, max_size=d), min_size=1, max_size=4)),
    spelling=st.sampled_from([repr, "{:.17g}".format, "{:.3E}".format]),
)
def test_load_features_matches_float_bits(features_path, rows, spelling):
    texts = [[spelling(x) for x in row] for row in rows]
    assume(all(math.isfinite(float(t)) for row in texts for t in row))  # "{:.3E}" rounds 1.7975e308 up to inf
    features_path.write_text("".join(f"i{n}\t{','.join(row)}\n" for n, row in enumerate(texts)), encoding="utf-8")
    want = {f"i{n}": np.array([float(t) for t in row], dtype=np.float64) for n, row in enumerate(texts)}
    assert_same_features(load_features(features_path), want)


FEATURE_LINES = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.text(alphabet="0123456789 .,-+eEinfa_#x١\t", max_size=12)),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(lines=FEATURE_LINES)
def test_load_features_agrees_with_per_value_parse(features_path, lines):
    features_path.write_text("".join(f"{image_id}\t{values}\n" for image_id, values in lines), encoding="utf-8")
    try:
        want = load_features_per_value(features_path)
    except DataError as exc:
        want = exc
    for chunk_rows in (imglex.fileio.VECTOR_CHUNK_ROWS, 2):  # at 2 rows a chunk, the lines cross chunks
        feature_cache_path(features_path).unlink(missing_ok=True)  # parse even a content seen before
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(imglex.fileio, "VECTOR_CHUNK_ROWS", chunk_rows)
            if isinstance(want, DataError):
                with pytest.raises(DataError) as err:
                    load_features(features_path)
                assert str(err.value) == str(want)
            else:
                assert_same_features(load_features(features_path), want)
