"""Tokenizer, vocabulary, and hashing tests."""

import hashlib
import random

import pytest

from imglex.errors import DataError
from imglex.textproc import LangMode, Vocabulary, build_vocab, fnv1a64, mode_of_tokens, tokenize

# Published FNV-1a 64 reference vectors.
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}
# fnv1a64("en:zzzunseen") computed with an independent reference implementation.
FNV_EN_ZZZUNSEEN = 14881170940644966590


def test_tokenize_aware_prefixes_language():
    assert tokenize("back  pain", "en", LangMode.AWARE) == ["en:back", "en:pain"]


def test_tokenize_empty_query():
    assert tokenize("", "en", LangMode.AWARE) == []


def test_tokenize_separator_replacement():
    assert tokenize("cat-with big_ears", "en", LangMode.UNAWARE) == ["cat", "with", "big", "ears"]


def test_tokenize_all_separators():
    assert tokenize("?!... --- ___", "en", LangMode.AWARE) == []


def test_tokenize_lowercases_and_keeps_nonlatin_letters():
    assert tokenize("Ärzte-Hôpital 1ère", "de", LangMode.UNAWARE) == ["ärzte", "hôpital", "1ère"]
    assert tokenize("Здравоохранение 123", "ru", LangMode.UNAWARE) == ["здравоохранение", "123"]


def test_tokenize_aware_requires_lowercase_lang():
    with pytest.raises(ValueError):
        tokenize("pain", "", LangMode.AWARE)
    with pytest.raises(ValueError):
        tokenize("pain", "EN", LangMode.AWARE)
    with pytest.raises(ValueError):
        tokenize("pain", None, LangMode.AWARE)
    # Unaware mode ignores the language entirely.
    assert tokenize("pain", None, LangMode.UNAWARE) == ["pain"]


@pytest.mark.parametrize(
    "tokens, mode",
    [(["en:dog", "de:hund"], LangMode.AWARE), (["dog", "hund"], LangMode.UNAWARE),
     (["en:dog", "hund"], LangMode.UNAWARE), ([], LangMode.AWARE)],
    ids=["all-tagged", "all-bare", "mixed", "empty"],
)
def test_mode_of_tokens(tokens, mode):
    assert mode_of_tokens(tokens) is mode
    assert mode_of_tokens(iter(tokens)) is mode


def test_build_vocab_min_count_boundary():
    stream = ["en:a"] * 6 + ["en:b"] * 5
    vocab = build_vocab(stream, min_count=6, num_buckets=10)
    assert vocab.tokens == ("en:a",)
    assert vocab.vocab_size == 1


def test_build_vocab_empty_stream():
    vocab = build_vocab([], min_count=6, num_buckets=10)
    assert vocab.vocab_size == 0
    assert vocab.total_ids == 10


def test_build_vocab_lexicographic_tie_break():
    stream = ["en:y"] * 7 + ["en:x"] * 7
    vocab = build_vocab(stream, min_count=6, num_buckets=10)
    assert vocab.index["en:x"] == 0
    assert vocab.index["en:y"] == 1


def test_build_vocab_orders_by_descending_frequency():
    stream = ["mid"] * 3 + ["top"] * 5 + ["low"] * 2
    vocab = build_vocab(stream, min_count=2, num_buckets=10)
    assert vocab.tokens == ("top", "mid", "low")


def test_build_vocab_rejects_bad_args():
    with pytest.raises(ValueError):
        build_vocab([], min_count=0, num_buckets=10)
    with pytest.raises(ValueError):
        build_vocab([], min_count=1, num_buckets=0)


def test_lookup_in_vocab_identity():
    vocab = build_vocab(["t"] * 6 + ["u"] * 7, min_count=6, num_buckets=100)
    for token in vocab.tokens:
        assert vocab.tokens[vocab.lookup(token)] == token


def test_lookup_oov_goes_to_bucket_region():
    vocab = build_vocab(["t"] * 6, min_count=6, num_buckets=1000)
    rng = random.Random(0)
    for _ in range(200):
        token = "oov" + str(rng.randrange(10**9))
        got = vocab.lookup(token)
        assert vocab.vocab_size <= got < vocab.vocab_size + vocab.num_buckets


def test_fnv1a64_published_vectors():
    for data, expected in FNV_VECTORS.items():
        assert fnv1a64(data) == expected


def test_lookup_oov_uses_fnv1a64():
    tokens = [f"w{i}" for i in range(100)]
    vocab = build_vocab([t for t in tokens for _ in range(6)], min_count=6, num_buckets=1000)
    assert vocab.vocab_size == 100
    assert vocab.lookup("en:zzzunseen") == 100 + FNV_EN_ZZZUNSEEN % 1000
    assert vocab.lookup("en:zzzunseen") == 100 + 590


def test_round_trip_tokens_index():
    stream = [f"en:w{i % 23}" for i in range(600)]
    vocab = build_vocab(stream, min_count=6, num_buckets=50)
    for token, idx in vocab.index.items():
        assert vocab.tokens[idx] == token


def test_determinism_across_builds():
    rng = random.Random(42)
    stream = [f"t{rng.randrange(40)}" for _ in range(2000)]
    a = build_vocab(iter(stream), min_count=6, num_buckets=64)
    b = build_vocab(iter(stream), min_count=6, num_buckets=64)
    assert a.tokens == b.tokens
    probes = [f"t{i}" for i in range(80)] + ["nope", "x y", "ünïcode"]
    assert [a.lookup(p) for p in probes] == [b.lookup(p) for p in probes]


def test_mode_separation():
    aware_stream = ["en:pain"] * 6 + ["fr:pain"] * 6
    aware = build_vocab(aware_stream, min_count=6, num_buckets=10, mode=LangMode.AWARE)
    assert aware.lookup("en:pain") != aware.lookup("fr:pain")

    unaware_stream = ["pain"] * 12
    unaware = build_vocab(unaware_stream, min_count=6, num_buckets=10, mode=LangMode.UNAWARE)
    tok_en = tokenize("pain", "en", LangMode.UNAWARE)[0]
    tok_fr = tokenize("pain", "fr", LangMode.UNAWARE)[0]
    assert tok_en == tok_fr
    assert unaware.lookup(tok_en) == unaware.lookup(tok_fr)


def test_save_load_round_trip(tmp_path):
    stream = ["en:b"] * 8 + ["en:a"] * 8 + ["en:c"] * 6
    vocab = build_vocab(stream, min_count=6, num_buckets=77, mode=LangMode.AWARE)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.num_buckets == vocab.num_buckets
    assert loaded.mode is vocab.mode
    assert loaded.lookup("en:a") == vocab.lookup("en:a")
    assert loaded.lookup("never-seen") == vocab.lookup("never-seen")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "3 77 aware"


def test_content_hash_is_sha256_of_saved_file(tmp_path):
    vocab = build_vocab(["en:b"] * 8 + ["de:a"] * 6, min_count=6, num_buckets=9, mode=LangMode.AWARE)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert path.read_bytes() == b"2 9 aware\nen:b\nde:a\n"
    assert vocab.content_hash() == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "content, line",
    [
        (b"", 1),
        (b"3 10\n", 1),
        (b"x 10 aware\n", 1),
        (b"1 10 klingon\nen:a\n", 1),
        (b"1 0 aware\nen:a\n", 1),
        (b"3 10 aware\nen:a\nen:b\n", 1),
        (b"1 10 aware\nen:a\nen:b\n", 1),
        (b"99999999999999999999 10 aware\nen:a\n", 1),
        (b"2 10 aware\nen:a\nen:b\tx\n", 3),
    ],
    ids=["empty", "short-header", "size-not-int", "bad-mode", "zero-buckets", "short-file", "extra-line", "huge-size",
         "tab-in-token"],
)
def test_load_rejects_malformed_file_naming_line(tmp_path, content, line):
    path = tmp_path / "vocab.txt"
    path.write_bytes(content)
    with pytest.raises(DataError, match=rf"vocab\.txt:{line}: "):
        Vocabulary.load(path)


@pytest.mark.parametrize("content", [b"2 10 aware\nen:a\nen:a\n", b"1 10 aware\n\xff\xfe\n"], ids=["duplicate", "not-utf8"])
def test_load_rejects_garbled_file(tmp_path, content):
    path = tmp_path / "vocab.txt"
    path.write_bytes(content)
    with pytest.raises(DataError, match=r"vocab\.txt"):
        Vocabulary.load(path)


def test_load_names_line_and_token_of_duplicate(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"2 10 aware\nen:a\nen:a\n")
    with pytest.raises(DataError) as caught:
        Vocabulary.load(path)
    assert str(caught.value) == f"{path}:3: duplicate token 'en:a'"
