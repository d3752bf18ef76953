"""Corpus file formats, the >=2-language image filter, synthetic data, and
the packed corpus training reads (``prepare_corpus``).

File formats (UTF-8, LF, '.' decimal separator):
  triples.tsv   weight<TAB>lang<TAB>query<TAB>image_id
  features.tsv  image_id<TAB>f1,f2,...,fd
  lexicon.tsv   lang1:word1<TAB>lang2:word2<TAB>concept_id

Image features are fixed inputs that every run reloads, so ``load_features``
parses the bytes of a features file once: it keeps the parsed ids and
matrix in a feature cache next to the file (``feature_cache_path``), keyed
by the SHA-256 of those bytes, and reads them from there while the file's
bytes stay the same.

The synthetic generator provides ground truth the real corpus cannot: it
draws unit-norm concept prototype vectors, gives every concept a few words
per language, and emits (query, image, weight) triples whose image features
are noisy copies of the query's concept prototype. Words of the same concept
in different languages are therefore associated with similar images, which
is exactly the signal the trainer is supposed to recover. A configurable
fraction of examples use an "isolated" image seen only once, mimicking
images associated with a single query; the >=2-language filter removes
those, since an image seen once has only one language. Each concept
also has a shared image pool so co-occurrence-only training has signal.
"""

from __future__ import annotations

import hashlib
import os
import stat
import sys
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import closing, suppress
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from imglex.errors import ConfigError, DataError
from imglex.fileio import file_digest, parse_number, read_npz, read_rows, read_vectors, vector_row, write_lines, write_npz
from imglex.model import TOWER_KINDS
from imglex.textproc import LangMode, Vocabulary, build_vocab, is_language_code, tokenize
from imglex.training import Batch


@dataclass(frozen=True, slots=True)
class TripleRecord:
    """One (query, image, weight) triple. ``line`` is its line in the triples
    file it was read from (0 if none); it names the triple in errors and is
    not part of its value."""

    weight: float
    lang: str
    query: str
    image_id: str
    line: int = field(default=0, compare=False)


def load_triples(path: str | Path) -> list[TripleRecord]:
    """Parse a triples TSV; malformed lines raise DataError naming the line.
    Each record keeps its line number, and the records of one language share
    one language-code string."""
    records: list[TripleRecord] = []
    for lineno, (raw_weight, lang, query, image_id) in read_rows(path, "triples file", ncols=4):
        weight = parse_number(raw_weight, path, lineno, "weight")
        if weight < 0:
            raise DataError(f"{path}:{lineno}: negative weight {raw_weight!r}")
        if not image_id:
            raise DataError(f"{path}:{lineno}: empty image id")
        if not is_language_code(lang):
            raise DataError(f"{path}:{lineno}: invalid language code {lang!r}")
        records.append(TripleRecord(weight=weight, lang=sys.intern(lang), query=query, image_id=image_id, line=lineno))
    return records


def save_triples(path: str | Path, triples: Iterable[TripleRecord]) -> None:
    write_lines(path, (f"{t.weight!r}\t{t.lang}\t{t.query}\t{t.image_id}" for t in triples))


class FeatureTable(Mapping[str, np.ndarray]):
    """Image id -> feature vector over one read-only (N, d) float64 matrix:
    ``matrix`` holds the vectors in file order, ``index`` maps each id to its
    row, and ``table[id]`` is a view of that row. Iteration follows the
    rows' order."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        self.matrix = matrix.view()
        self.matrix.flags.writeable = False
        self.index = {image_id: row for row, image_id in enumerate(ids)}

    def __getitem__(self, image_id: str) -> np.ndarray:
        return self.matrix[self.index[image_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


# Bump whenever the syntax imglex.fileio.read_vectors accepts changes: a
# feature cache written under another version is never read.
FEATURE_CACHE_VERSION = 1


def feature_cache_path(path: str | Path) -> Path:
    """The feature cache next to the features file ``path``: ``.<name>.imglex-cache.npz``."""
    path = Path(path)
    return path.with_name(f".{path.name}.imglex-cache.npz")


def load_features(path: str | Path) -> FeatureTable:
    """Parse a features TSV into a FeatureTable over the matrix that
    imglex.fileio.read_vectors reads in one pass; d is set by the first row.

    A regular file is parsed once per content: the parse writes the ids and
    the matrix to the cache ``feature_cache_path(path)``, keyed by the
    SHA-256 of the bytes parsed and FEATURE_CACHE_VERSION, and a later load
    of the same bytes reads them from there, bit for bit the same. A cache
    never changes a result or fails a load: one that cannot be read or
    fails a check is parsed over and rewritten, a failed cache write is
    ignored, a bad file raises the parse's DataError and writes no cache,
    and input that is not a regular file (a pipe) is parsed with no cache.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        regular = False  # the parse names the file in its DataError
    cache = feature_cache_path(path) if regular else None
    if cache is not None and cache.exists():
        cached = _read_feature_cache(path, cache)
        if cached is not None:
            return FeatureTable(*cached)
    digest = hashlib.sha256()
    with closing(read_rows(path, "features file", ncols=2, digest=digest)) as rows:
        ids, matrix = read_vectors(path, rows, ",", "feature value")
    if cache is not None:
        # The one pass read the whole file: the key is the digest of the bytes these rows came from.
        key = np.frombuffer(_feature_cache_key(digest.hexdigest()), dtype=np.uint8)
        with suppress(OSError):  # a read-only directory or a full disk costs the next load a parse, nothing more
            write_npz(cache, {"key": key, "ids": _joined_ids(ids), "vectors": matrix})
    return FeatureTable(ids, matrix)


def _feature_cache_key(digest: str) -> bytes:
    return f"sha256:{digest} version:{FEATURE_CACHE_VERSION}".encode("ascii")


def _joined_ids(ids: list[str]) -> np.ndarray:
    # Bytes, not a "<U" array, which would drop an id's trailing NULs.
    return np.frombuffer("\n".join(ids).encode("utf-8"), dtype=np.uint8)


def _read_feature_cache(path: str | Path, cache: Path) -> tuple[list[str], np.ndarray] | None:
    """The ids and matrix ``cache`` holds for the current bytes of ``path``,
    or None if it holds none that pass every check."""
    try:
        key = _feature_cache_key(file_digest(path))
        archive = read_npz(cache, "feature cache")
        stored_key, raw_ids, matrix = archive["key"], archive["ids"], archive["vectors"]
        kinds = (stored_key.dtype, raw_ids.dtype, raw_ids.ndim, matrix.dtype, matrix.ndim)
        if kinds != (np.uint8, np.uint8, 1, np.float64, 2) or stored_key.tobytes() != key:
            return None
        text = raw_ids.tobytes().decode("utf-8")
    # A cache is only a shortcut: whatever a damaged one raises (read_npz's DataError, KeyError,
    # UnicodeDecodeError, ...), the parse decides.
    except Exception:
        return None
    ids = text.split("\n") if len(matrix) or text else []
    if len(ids) == len(matrix) == len(set(ids)) and np.isfinite(matrix).all():
        return ids, matrix
    return None


def save_features(path: str | Path, features: Mapping[str, np.ndarray]) -> None:
    write_lines(path, (vector_row(image_id, vec, "\t", ",") for image_id, vec in features.items()))


def filter_multilingual(triples: Sequence[TripleRecord]) -> list[TripleRecord]:
    """Keep triples whose image co-occurs with >= 2 distinct languages.

    Language sets are computed over the whole input; order is preserved and
    the operation is idempotent.
    """
    langs: dict[str, set[str]] = defaultdict(set)
    for t in triples:
        langs[t.image_id].add(t.lang)
    return [t for t in triples if len(langs[t.image_id]) >= 2]


@dataclass
class SyntheticSpec:
    """Configuration for the synthetic multilingual corpus generator."""

    num_concepts: int = 20
    num_languages: int = 3
    words_per_concept: int = 2  # per language
    feature_dim: int = 64
    noise_sigma: float = 0.1
    num_examples: int = 1000
    seed: int = 0
    images_per_concept: int = 200
    isolated_image_fraction: float = 0.6

    def validate(self) -> None:
        if min(self.num_concepts, self.num_languages, self.num_examples) < 1:
            raise ConfigError("num_concepts, num_languages, num_examples must be >= 1")
        if self.words_per_concept < 1 or self.feature_dim < 1 or self.images_per_concept < 1:
            raise ConfigError("words_per_concept, feature_dim, images_per_concept must be >= 1")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.isolated_image_fraction <= 1.0:
            raise ConfigError("isolated_image_fraction must be in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def synthetic_word(lang: int, concept: int, slot: int) -> str:
    # Purely alphanumeric so the tokenizer keeps each word whole.
    return f"l{lang}w{concept}k{slot}"


def synthetic_lang(lang: int) -> str:
    return f"l{lang}"


@dataclass
class SyntheticCorpus:
    triples: list[TripleRecord]
    features: FeatureTable
    lexicon: list[tuple[str, str, int]]  # (lang1:word1, lang2:word2, concept)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministic in-memory generation; see gen_synthetic for the files."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    try:
        protos = rng.standard_normal((spec.num_concepts, spec.feature_dim))
    except (MemoryError, ValueError):  # ValueError is numpy's "array is too big"
        raise ConfigError(f"cannot allocate the {spec.num_concepts} x {spec.feature_dim} float64 concept prototypes") from None
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    def noisy_feature(concept: int) -> np.ndarray:
        noise = rng.standard_normal(spec.feature_dim)
        with np.errstate(over="ignore"):
            vec = protos[concept] + spec.noise_sigma * noise
            norm = np.linalg.norm(vec)
        if not np.isfinite(norm):  # a huge sigma: the same direction, divided by sigma before squaring
            vec = protos[concept] / spec.noise_sigma + noise
            norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    image_ids: list[str] = []
    vectors: list[np.ndarray] = []
    pool: list[list[str]] = []
    for c in range(spec.num_concepts):
        ids = [f"c{c}i{j}" for j in range(spec.images_per_concept)]
        image_ids += ids
        vectors += (noisy_feature(c) for _ in ids)
        pool.append(ids)

    triples: list[TripleRecord] = []
    for n in range(spec.num_examples):
        concept = int(rng.integers(spec.num_concepts))
        lang = int(rng.integers(spec.num_languages))
        n_words = min(int(rng.integers(1, 4)), spec.words_per_concept)
        slots = rng.choice(spec.words_per_concept, size=n_words, replace=False)
        query = " ".join(synthetic_word(lang, concept, int(k)) for k in slots)
        if rng.random() < spec.isolated_image_fraction:
            image_id = f"x{n}"
            image_ids.append(image_id)
            vectors.append(noisy_feature(concept))
        else:
            image_id = pool[concept][int(rng.integers(spec.images_per_concept))]
        triples.append(TripleRecord(weight=1.0, lang=synthetic_lang(lang), query=query, image_id=image_id, line=n + 1))

    lexicon: list[tuple[str, str, int]] = []
    for c in range(spec.num_concepts):
        for l1 in range(spec.num_languages):
            for l2 in range(l1 + 1, spec.num_languages):
                for k1 in range(spec.words_per_concept):
                    for k2 in range(spec.words_per_concept):
                        lexicon.append(
                            (
                                f"{synthetic_lang(l1)}:{synthetic_word(l1, c, k1)}",
                                f"{synthetic_lang(l2)}:{synthetic_word(l2, c, k2)}",
                                c,
                            )
                        )
    return SyntheticCorpus(triples=triples, features=FeatureTable(image_ids, np.stack(vectors)), lexicon=lexicon)


@dataclass
class SyntheticPaths:
    triples: Path
    features: Path
    lexicon: Path


def gen_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> SyntheticPaths:
    """Generate and write triples.tsv, features.tsv, lexicon.tsv.

    Fully determined by spec.seed: the same spec writes identical files.
    """
    corpus = generate_synthetic(spec)
    out = Path(out_dir)
    paths = SyntheticPaths(
        triples=out / "triples.tsv",
        features=out / "features.tsv",
        lexicon=out / "lexicon.tsv",
    )
    save_triples(paths.triples, corpus.triples)
    save_features(paths.features, corpus.features)
    write_lines(paths.lexicon, (f"{w1}\t{w2}\t{c}" for w1, w2, c in corpus.lexicon))
    return paths


@dataclass
class PreparedCorpus:
    """The packed corpus plus the bookkeeping the tower needs."""

    examples: Batch  # the packed corpus, train()'s one input
    dropped: int  # triples whose query tokenized to nothing
    feature_dim: int | None = None
    num_images: int | None = None


def prepare_examples(
    triples: Sequence[TripleRecord],
    vocab: Vocabulary,
    tower: str,
    features: FeatureTable | None = None,
    triples_path: str | Path = "triples",
) -> PreparedCorpus:
    """Tokenize queries, map tokens to ids and images to rows, and pack the
    kept triples into one Batch.

    MLP mode requires ``features``, a FeatureTable (as load_features or
    generate_synthetic return it) with a vector for every referenced image
    id; each example's image row is that vector's row in the table's
    matrix, which the batch shares. A kept triple whose image has no vector
    is a DataError naming ``triples_path`` and the triple's line. Lookup
    mode ignores ``features`` and re-indexes image ids densely in
    first-seen order. Triples whose query tokenizes to nothing are dropped
    and counted. ``prepare_corpus`` builds the vocabulary and packs in one
    call.
    """
    table = _tower_features(tower, features)
    queries = (tokenize(t.query, t.lang, vocab.mode) for t in triples)
    return _pack(zip(triples, queries), vocab, table, triples_path)


def prepare_corpus(
    triples: Sequence[TripleRecord],
    *,
    tower: str,
    features: FeatureTable | None = None,
    mode: LangMode,
    min_count: int,
    num_buckets: int,
    triples_path: str | Path = "triples",
) -> tuple[Vocabulary, PreparedCorpus]:
    """The vocabulary of the triples' queries and their packed corpus, as
    ``build_vocab`` and ``prepare_examples`` make them, tokenizing each query
    once.

    Raises, in this order: ConfigError "--buckets N: <the Vocabulary's
    OverflowError>" past MAX_EMBEDDING_ROWS ids; DataError when no token
    reaches ``min_count``; prepare_examples' DataError for an image without
    a feature vector; DataError when fewer than 2 triples are kept, as the
    in-batch softmax needs 2.
    """
    table = _tower_features(tower, features)
    queries = [tokenize(t.query, t.lang, mode) for t in triples]
    try:
        vocab = build_vocab(chain.from_iterable(queries), min_count=min_count, num_buckets=num_buckets, mode=mode)
    except OverflowError as exc:
        raise ConfigError(f"--buckets {num_buckets}: {exc}") from None
    if vocab.vocab_size == 0:
        distinct = len(set(chain.from_iterable(queries)))
        raise DataError(f"empty vocabulary: none of the {distinct} distinct tokens reaches --min-count {min_count}")
    prepared = _pack(zip(triples, queries), vocab, table, triples_path)
    if prepared.examples.size < 2:
        raise DataError(
            f"{prepared.examples.size} usable training examples, the in-batch softmax needs at least 2 "
            "(every query tokenized to nothing?)"
        )
    return vocab, prepared


def _tower_features(tower: str, features: FeatureTable | None) -> FeatureTable | None:
    """The table the MLP tower's image rows index, or None for the lookup tower."""
    if tower not in TOWER_KINDS:
        raise ValueError(f"unknown tower kind {tower!r}")
    if tower == "mlp" and features is None:
        raise ValueError("mlp tower requires a feature table")
    return features if tower == "mlp" else None


def _pack(
    tokenized: Iterable[tuple[TripleRecord, list[str]]],
    vocab: Vocabulary,
    table: FeatureTable | None,
    triples_path: str | Path,
) -> PreparedCorpus:
    """Pack each (triple, query tokens) pair whose tokens are not empty; see prepare_examples.

    A token's id is ``vocab.lookup(token)``. In-vocabulary tokens are mapped
    as they are packed; each OOV occurrence is packed as -1 with its UTF-8
    bytes appended to one buffer, and the markers are filled in order from
    one ``vocab.bucket_ids`` call over that buffer."""
    image_index = {} if table is None else table.index
    vocab_id = vocab.index.get
    token_ids: list[int] = []
    oov_bytes = bytearray()
    oov_lengths: list[int] = []
    counts: list[int] = []
    image_rows: list[int] = []
    weights: list[float] = []
    dropped = 0
    for t, tokens in tokenized:
        if not tokens:
            dropped += 1
            continue
        if table is None:
            row = image_index.setdefault(t.image_id, len(image_index))
        else:
            row = image_index.get(t.image_id)
            if row is None:
                raise DataError(f"{triples_path}:{t.line}: no feature vector for image id {t.image_id!r}")
        for token in tokens:
            found = vocab_id(token)
            if found is None:
                token_ids.append(-1)
                encoded = token.encode("utf-8")
                oov_bytes += encoded
                oov_lengths.append(len(encoded))
            else:
                token_ids.append(found)
        counts.append(len(tokens))
        image_rows.append(row)
        weights.append(t.weight)
    buckets = vocab.bucket_ids(oov_bytes, oov_lengths)
    token_ids = np.array(token_ids, dtype=np.int64)  # rebound: the list is freed before packing
    token_ids[token_ids < 0] = buckets
    examples = Batch.pack(token_ids, counts, image_rows, weights, None if table is None else table.matrix)
    if table is None:
        return PreparedCorpus(examples=examples, dropped=dropped, num_images=len(image_index))
    return PreparedCorpus(examples=examples, dropped=dropped, feature_dim=table.matrix.shape[1] if counts else None)

