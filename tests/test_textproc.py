"""Tokenizer, vocabulary, and hashing tests."""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imglex.errors import DataError
from imglex.model import MAX_EMBEDDING_ROWS
from imglex.textproc import LangMode, Vocabulary, build_vocab, fnv1a64_many, mode_of_tokens, tokenize
from oracles import fnv1a64, tokenize_regex

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


# Characters for every branch of tokenize's whitespace-split path: ASCII
# letters and digits, underscore and punctuation; whitespace str.split()
# splits on (\x1c-\x1f, NEL, no-break and ideographic space); characters
# whose lowercase changes the text around them (combining acute, dotted
# capital I, final sigma, sharp s); other letters and digits (superscript
# two, Arabic-Indic digits, CJK); an emoji and NUL.
TOKENIZER_CHARS = list(
    "aZ09_-.,!'?"
    "\x1c\x1d\x1e\x1f\x85\xa0 \u3000\t\n"
    "\u0301İΣß"
    "²٠٣٩中文"
    "\U0001f600\x00"
)


@settings(max_examples=500, deadline=None)
@given(
    raw_query=st.text(st.sampled_from(TOKENIZER_CHARS), max_size=12),
    lang=st.sampled_from(["en", "l0", "pt-br"]),
    mode=st.sampled_from(list(LangMode)),
)
@example(raw_query="", lang="en", mode=LangMode.AWARE)
@example(raw_query="_-. \x85\x00", lang="en", mode=LangMode.AWARE)
@example(raw_query="ΟΔΟΣ Σ aΣ", lang="el", mode=LangMode.UNAWARE)
@example(raw_query="İstanbul Straße", lang="tr", mode=LangMode.AWARE)
def test_tokenize_equals_the_separator_pattern(raw_query, lang, mode):
    assert tokenize(raw_query, lang, mode) == tokenize_regex(raw_query, lang, mode)


# One character of each UTF-8 length, 1 to 4 bytes.
UTF8_WIDTHS = ["a", "é", "€", "\U0001f600"]
HASH_TOKENS = st.one_of(
    st.just(""),
    st.text(st.sampled_from(UTF8_WIDTHS) | st.characters(codec="utf-8"), max_size=12),
    st.builds(lambda char, n: char * n, st.sampled_from(UTF8_WIDTHS), st.integers(1, 1250)),  # 1 to 5,000 bytes
    st.integers(1, 5000).map("x".__mul__),
)


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(HASH_TOKENS, max_size=40), repeats=st.integers(0, 40))
@example(tokens=[], repeats=0)
@example(tokens=["", "a", "", "x" * 5000, "😀" * 1250], repeats=3)
def test_fnv1a64_many_equals_the_byte_loop(tokens, repeats):
    tokens += tokens[:repeats]
    encoded = [token.encode("utf-8") for token in tokens]
    hashes = fnv1a64_many(b"".join(encoded), [len(e) for e in encoded])
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [fnv1a64(e) for e in encoded]


def test_fnv1a64_many_rejects_lengths_that_do_not_cover_the_data():
    for lengths in ([2], [4], [-1, 4]):
        with pytest.raises(ValueError, match="sum to the 3 bytes"):
            fnv1a64_many(b"abc", lengths)


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


def test_fnv1a64_many_published_vectors():
    data = list(FNV_VECTORS)
    assert fnv1a64_many(b"".join(data), map(len, data)).tolist() == list(FNV_VECTORS.values())
    for one, expected in FNV_VECTORS.items():
        assert fnv1a64_many(one, [len(one)]).tolist() == [expected]


@pytest.mark.parametrize("num_buckets", [1, 7, 200_000, 10**11, MAX_EMBEDDING_ROWS - 3])
def test_lookup_oov_bucket_is_the_oracle_hash(num_buckets):
    vocab = Vocabulary(("en:a", "en:b", "en:c"), num_buckets, LangMode.AWARE)
    for token in ["", "en:zzzunseen", "de:straße", "zh:中文", "x" * 300]:
        assert vocab.lookup(token) == 3 + fnv1a64(token.encode("utf-8")) % num_buckets


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


def test_save_writes_the_header_then_one_token_per_line(tmp_path):
    vocab = build_vocab(["en:b"] * 8 + ["de:a"] * 6, min_count=6, num_buckets=9, mode=LangMode.AWARE)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert path.read_bytes() == b"2 9 aware\nen:b\nde:a\n"


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


def test_vocabulary_builds_and_loads_at_the_int64_row_limit(tmp_path):
    vocab = Vocabulary(("en:a", "en:b"), MAX_EMBEDDING_ROWS - 2, LangMode.AWARE)
    assert vocab.total_ids == MAX_EMBEDDING_ROWS
    assert build_vocab(["en:a", "en:b"], min_count=1, num_buckets=MAX_EMBEDDING_ROWS - 2) == vocab
    vocab.save(tmp_path / "vocab.txt")
    assert Vocabulary.load(tmp_path / "vocab.txt") == vocab


@pytest.mark.parametrize("total_ids", [2**63, 2**64], ids=["2**63", "2**64"])
def test_vocabulary_past_the_int64_row_limit_cannot_be_built(total_ids):
    # Every id a Vocabulary names, bucket ids included, must be an int64.
    message = f"2 vocabulary tokens + {total_ids - 2} buckets exceed the int64 limit of 2**63 - 1 embedding rows"
    with pytest.raises(OverflowError, match=rf"^{re.escape(message)}$"):
        Vocabulary(("en:a", "en:b"), total_ids - 2, LangMode.AWARE)
    with pytest.raises(OverflowError, match=rf"^{re.escape(message)}$"):
        build_vocab(["en:a", "en:b"], min_count=1, num_buckets=total_ids - 2)


@pytest.mark.parametrize(
    "header, tokens",
    [("0 18446744073709551616 aware", 0), ("0 9223372036854775808 aware", 0), ("2 9223372036854775806 unaware", 2)],
)
def test_load_of_a_header_past_the_int64_row_limit_is_one_line_data_error(tmp_path, header, tokens):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join([header, *["a", "b"][:tokens]]) + "\n", encoding="utf-8")
    size, buckets, _ = header.split()
    with pytest.raises(DataError) as caught:
        Vocabulary.load(path)
    assert str(caught.value) == (
        f"{path}:1: {size} vocabulary tokens + {buckets} buckets exceed the int64 limit of 2**63 - 1 embedding rows"
    )
