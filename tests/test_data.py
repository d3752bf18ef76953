"""Corpus file formats, the multilingual filter, and the synthetic generator."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import imglex.data
from imglex.data import (
    FeatureTable,
    SyntheticSpec,
    TripleRecord,
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
from imglex.textproc import LangMode, build_vocab, tokenize
from oracles import load_features_per_value


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
]


def assert_same_features(got, want):
    assert list(got) == list(want)
    for image_id, vec in want.items():
        assert got[image_id].dtype == vec.dtype and got[image_id].tobytes() == vec.tobytes(), image_id


@pytest.mark.parametrize("content, expected", [case[1:] for case in FEATURE_CASES], ids=[case[0] for case in FEATURE_CASES])
def test_load_features_edge_cases(tmp_path, content, expected):
    path = tmp_path / "f.tsv"
    path.write_text(content, encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(DataError) as err:
            load_features(path)
        assert str(err.value) == f"{path}:{expected}"
        with pytest.raises(DataError) as reference:
            load_features_per_value(path)
        assert str(reference.value) == str(err.value)
        return
    want = {image_id: np.array(values, dtype=np.float64) for image_id, values in expected.items()}
    assert_same_features(load_features(path), want)
    assert_same_features(load_features_per_value(path), want)


def test_load_features_rows_view_one_matrix(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("a\t1,2,3\nb\t4,5,6\n", encoding="utf-8")
    feats = load_features(path)
    matrix = feats["a"].base
    assert matrix is not None and matrix is feats["b"].base
    assert matrix.shape == (2, 3) and matrix.dtype == np.float64


def test_feature_table_reads_the_file_in_order(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("b\t1.5,-0.0\na\t3.0,4.0\nc\t5e-324,1e+308\n", encoding="utf-8")  # as save_features writes
    table = load_features(path)
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
        with pytest.raises(DataError) as err:
            load_features(features_path)
        assert str(err.value) == str(exc)
    else:
        assert_same_features(load_features(features_path), want)
