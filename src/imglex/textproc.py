"""Tokenization, language tagging, vocabulary construction, and OOV hashing.

This module owns the mapping from raw query strings to embedding row ids.
Ids 0..vocab_size-1 are in-vocabulary tokens ordered by descending corpus
frequency (lexicographic tie-break, so ids are reproducible across runs);
ids vocab_size..vocab_size+num_buckets-1 are hash buckets shared by all
out-of-vocabulary tokens, assigned with FNV-1a 64 so bucket assignment is
stable across platforms.
"""

from __future__ import annotations

import enum
import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from imglex.errors import DataError
from imglex.fileio import encode_lines, read_rows, write_lines

# Separators are everything that is not a Unicode letter or digit; underscore
# is explicitly a separator even though regex \w would keep it.
_SEPARATORS = re.compile(r"[\W_]+")

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


class LangMode(enum.Enum):
    """Whether tokens carry a language prefix.

    AWARE prefixes every token with "<lang>:", giving each language its own
    embedding for a surface form. UNAWARE attaches no prefix, so identical
    surface forms across languages share one embedding row.
    """

    AWARE = "aware"
    UNAWARE = "unaware"


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data`` (seed-free, portable)."""
    h = _FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV64_PRIME) & _U64_MASK
    return h


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
    surfaces = _SEPARATORS.sub(" ", raw_query.lower()).split()
    if mode is LangMode.AWARE:
        return [f"{lang}:{surface}" for surface in surfaces]
    return surfaces


def mode_of_tokens(tokens: Iterable[str]) -> LangMode:
    """The mode ``tokens`` were made in: AWARE when every token holds a ':'
    (an aware token is "<lang>:<surface>", and :func:`tokenize` never leaves
    a ':' in a surface), otherwise UNAWARE. No tokens count as AWARE."""
    return LangMode.AWARE if all(":" in token for token in tokens) else LangMode.UNAWARE


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token<->id map with a shared OOV hash-bucket region.

    Immutable after construction; safe for concurrent reads.
    """

    tokens: tuple[str, ...]
    num_buckets: int
    mode: LangMode
    index: dict[str, int] = field(repr=False, init=False)

    def __post_init__(self):
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
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

    def lookup(self, token: str) -> int:
        """Id of ``token``: its vocabulary id, or a hash bucket if OOV."""
        found = self.index.get(token)
        if found is not None:
            return found
        return len(self.tokens) + fnv1a64(token.encode("utf-8")) % self.num_buckets

    def _lines(self) -> Iterator[str]:
        """The lines of the vocabulary file: "<vocab_size> <num_buckets> <mode>", then one token per line."""
        return chain([f"{self.vocab_size} {self.num_buckets} {self.mode.value}"], self.tokens)

    def serialize(self) -> bytes:
        """The bytes of the file :meth:`save` writes."""
        return encode_lines(self._lines())

    def content_hash(self) -> str:
        """Hex SHA-256 of :meth:`serialize`; checkpoints record it as ``vocab_hash``."""
        return hashlib.sha256(self.serialize()).hexdigest()

    def save(self, path: str | Path) -> None:
        """Write the vocabulary file to ``path`` with imglex.fileio.write_lines."""
        write_lines(path, self._lines())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Load a vocabulary saved by :meth:`save`."""
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
        return cls(tokens=tuple(index), num_buckets=num_buckets, mode=mode)


def build_vocab(
    token_stream: Iterable[str],
    min_count: int,
    num_buckets: int,
    mode: LangMode = LangMode.AWARE,
) -> Vocabulary:
    """Count tokens and keep those with frequency >= ``min_count``.

    Kept tokens are ordered by descending frequency, ties broken
    lexicographically, so two builds over the same stream produce identical
    ids. An empty stream yields a valid vocabulary with vocab_size 0.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    counts = Counter(token_stream)
    kept = sorted(
        (token for token, n in counts.items() if n >= min_count),
        key=lambda token: (-counts[token], token),
    )
    return Vocabulary(tokens=tuple(kept), num_buckets=num_buckets, mode=mode)
