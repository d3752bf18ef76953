"""Tokenization, language tagging, vocabulary construction, and OOV hashing.

This module owns the mapping from raw query strings to embedding row ids.
Ids 0..vocab_size-1 are in-vocabulary tokens ordered by descending corpus
frequency (lexicographic tie-break, so ids are reproducible across runs);
ids vocab_size..vocab_size+num_buckets-1 are hash buckets shared by all
out-of-vocabulary tokens, assigned with FNV-1a 64 so bucket assignment is
stable across platforms. ``Vocabulary`` owns this rule; each id fits an int64.

``tokenize`` has two paths with one result. A lowercased query whose
whitespace-separated parts are all letters and digits (``str.isalnum``,
exactly the characters the separator pattern ``[\\W_]+`` does not match) is
split on whitespace alone; any other query goes through the separator
pattern. ``fnv1a64_many`` hashes many byte strings in one vectorised pass
(``uint64`` XOR-then-multiply, one byte position at a time over the strings
still that long), so packing a corpus hashes all its out-of-vocabulary
tokens at once; ``Vocabulary.lookup`` is its one-token case.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from imglex.errors import DataError
from imglex.fileio import read_rows, write_lines

# Separators are everything that is not a Unicode letter or digit; underscore
# is explicitly a separator even though regex \w would keep it.
_SEPARATORS = re.compile(r"[\W_]+")

_FNV64_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV64_PRIME = np.uint64(0x100000001B3)

# Token ids and a checkpoint's table row count are int64.
MAX_EMBEDDING_ROWS = 2**63 - 1


class LangMode(enum.Enum):
    """Whether tokens carry a language prefix.

    AWARE prefixes every token with "<lang>:", giving each language its own
    embedding for a surface form. UNAWARE attaches no prefix, so identical
    surface forms across languages share one embedding row.
    """

    AWARE = "aware"
    UNAWARE = "unaware"


def fnv1a64_many(data: bytes | bytearray, lengths: Iterable[int]) -> np.ndarray:
    """FNV-1a 64-bit hash (seed-free, portable) of each byte string laid end
    to end in ``data``, string k being the next ``lengths[k]`` bytes, as a
    ``uint64`` array. The work is O(total bytes): byte position j is hashed
    in for the strings longer than j, which sorting by length makes a prefix."""
    lengths = np.fromiter(lengths, dtype=np.int64)
    buffer = np.frombuffer(data, dtype=np.uint8)
    if np.any(lengths < 0) or lengths.sum() != buffer.size:
        raise ValueError(f"lengths must be non-negative and sum to the {buffer.size} bytes of data")
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longer_than = lengths.size - np.cumsum(np.bincount(lengths))[:-1]  # [j]: how many strings have a byte j
    hashes = np.full(lengths.size, _FNV64_OFFSET, dtype=np.uint64)
    for j, live in enumerate(longer_than.tolist()):
        hashes[:live] ^= buffer[starts[:live] + j]
        hashes[:live] *= _FNV64_PRIME
    out = np.empty_like(hashes)
    out[order] = hashes
    return out


def is_language_code(lang: str | None) -> bool:
    """Whether ``lang`` can prefix a token: non-empty, lowercase, no ':' or ' '."""
    return bool(lang) and lang == lang.lower() and ":" not in lang and " " not in lang


def tokenize(raw_query: str, lang: str | None, mode: LangMode) -> list[str]:
    """Split ``raw_query`` into normalized tokens.

    Non-alphanumeric characters (any script) become spaces, whitespace runs
    collapse, the text is lowercased. In AWARE mode each token is returned as
    "<lang>:<surface>" and ``lang`` must pass :func:`is_language_code`.
    An all-separator query yields an empty list.
    """
    if mode is LangMode.AWARE and not is_language_code(lang):
        raise ValueError(f"aware mode requires a non-empty lowercase language code, got {lang!r}")
    lowered = raw_query.lower()
    surfaces = lowered.split()
    # No part holds a separator: the pattern would only rewrite the whitespace runs split() already drops.
    if not "".join(surfaces).isalnum():
        surfaces = _SEPARATORS.sub(" ", lowered).split()
    if mode is LangMode.AWARE:
        prefix = f"{lang}:"
        return [prefix + surface for surface in surfaces]
    return surfaces


def mode_of_tokens(tokens: Iterable[str]) -> LangMode:
    """The mode ``tokens`` were made in: AWARE when every token holds a ':'
    (an aware token is "<lang>:<surface>", and :func:`tokenize` never leaves
    a ':' in a surface), otherwise UNAWARE. No tokens count as AWARE."""
    return LangMode.AWARE if all(":" in token for token in tokens) else LangMode.UNAWARE


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token<->id map with a shared OOV hash-bucket region.

    A token's id is its index, or if OOV its bucket (``bucket_ids``). A
    ``total_ids`` past MAX_EMBEDDING_ROWS is an OverflowError. Immutable
    after construction; safe for concurrent reads.
    """

    tokens: tuple[str, ...]
    num_buckets: int
    mode: LangMode
    index: dict[str, int] = field(repr=False, init=False)

    def __post_init__(self):
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if self.total_ids > MAX_EMBEDDING_ROWS:
            raise OverflowError(
                f"{self.vocab_size} vocabulary tokens + {self.num_buckets} buckets exceed the int64 limit of 2**63 - 1 embedding rows"
            )
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    @property
    def total_ids(self) -> int:
        """Number of embedding rows: in-vocabulary tokens plus hash buckets."""
        return len(self.tokens) + self.num_buckets

    def bucket_ids(self, data: bytes | bytearray, lengths: Iterable[int]) -> np.ndarray:
        """The int64 id of each OOV token, as UTF-8 laid end to end in ``data``
        (see ``fnv1a64_many``): vocab_size + its FNV-1a 64 hash % num_buckets."""
        buckets = fnv1a64_many(data, lengths) % np.uint64(self.num_buckets)
        return buckets.astype(np.int64) + np.int64(self.vocab_size)

    def lookup(self, token: str) -> int:
        """Id of ``token``: its vocabulary id, or a hash bucket if OOV."""
        found = self.index.get(token)
        if found is not None:
            return found
        data = token.encode("utf-8")
        return int(self.bucket_ids(data, [len(data)])[0])

    def save(self, path: str | Path) -> None:
        """Write "<vocab_size> <num_buckets> <mode>", then one token per line, to ``path``."""
        write_lines(path, chain([f"{self.vocab_size} {self.num_buckets} {self.mode.value}"], self.tokens))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Load a vocabulary saved by :meth:`save`; each defect, a header
        past MAX_EMBEDDING_ROWS ids too, is a DataError naming its line."""
        rows = read_rows(path, "vocabulary", ncols=1)
        _, (header,) = next(rows, (1, [""]))
        try:
            size, buckets, mode_name = header.split()
            vocab_size, num_buckets, mode = int(size), int(buckets), LangMode(mode_name)
        except ValueError:
            raise DataError(f"{path}:1: malformed header {header!r}, expected '<vocab_size> <num_buckets> <mode>'") from None
        if vocab_size < 0 or num_buckets < 1:
            raise DataError(f"{path}:1: header needs vocab_size >= 0 and num_buckets >= 1, got {header!r}")
        index: dict[str, int] = {}
        for lineno, (token,) in rows:
            if token in index:
                raise DataError(f"{path}:{lineno}: duplicate token {token!r}")
            index[token] = len(index)
        if len(index) != vocab_size:
            raise DataError(f"{path}:1: header claims {vocab_size} tokens, found {len(index)}")
        try:
            return cls(tokens=tuple(index), num_buckets=num_buckets, mode=mode)
        except OverflowError as exc:
            raise DataError(f"{path}:1: {exc}") from None


def build_vocab(
    token_stream: Iterable[str],
    min_count: int,
    num_buckets: int,
    mode: LangMode = LangMode.AWARE,
) -> Vocabulary:
    """Count tokens and keep those with frequency >= ``min_count``.

    Kept tokens are ordered by descending frequency, ties broken
    lexicographically, so two builds over the same stream produce identical
    ids. An empty stream yields a valid vocabulary with vocab_size 0. The
    Vocabulary checks ``num_buckets`` (ValueError, OverflowError).
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(token_stream)
    kept = sorted(
        (token for token, n in counts.items() if n >= min_count),
        key=lambda token: (-counts[token], token),
    )
    return Vocabulary(tokens=tuple(kept), num_buckets=num_buckets, mode=mode)
