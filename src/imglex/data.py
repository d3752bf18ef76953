"""Corpus file formats, the >=2-language image filter, and synthetic data.

File formats (UTF-8, LF, '.' decimal separator):
  triples.tsv   weight<TAB>lang<TAB>query<TAB>image_id
  features.tsv  image_id<TAB>f1,f2,...,fd
  lexicon.tsv   lang1:word1<TAB>lang2:word2<TAB>concept_id

load_features converts every feature value in one np.loadtxt pass into one
(N, d) float64 matrix and maps each image id to a row view of it; the values
are bit-identical to one float() call per value.

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

from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from imglex.errors import DataError
from imglex.fileio import read_rows, write_lines
from imglex.textproc import Vocabulary, tokenize
from imglex.training import TrainExample


@dataclass(frozen=True)
class TripleRecord:
    weight: float
    lang: str
    query: str
    image_id: str


def load_triples(path: str | Path) -> list[TripleRecord]:
    """Parse a triples TSV; malformed lines raise DataError naming the line."""
    records: list[TripleRecord] = []
    for lineno, (raw_weight, lang, query, image_id) in read_rows(path, "triples file", ncols=4):
        try:
            weight = float(raw_weight)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric weight {raw_weight!r}") from None
        if not np.isfinite(weight):
            raise DataError(f"{path}:{lineno}: non-finite weight {raw_weight!r}")
        if weight < 0:
            raise DataError(f"{path}:{lineno}: negative weight {raw_weight!r}")
        if not image_id:
            raise DataError(f"{path}:{lineno}: empty image id")
        records.append(TripleRecord(weight=weight, lang=lang, query=query, image_id=image_id))
    return records


def save_triples(path: str | Path, triples: Iterable[TripleRecord]) -> None:
    write_lines(path, (f"{t.weight!r}\t{t.lang}\t{t.query}\t{t.image_id}" for t in triples))


def load_features(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a features TSV into image_id -> d-vector; d must be consistent.

    The vectors are row views of one (N, d) float64 matrix, converted in a
    single np.loadtxt pass. For the ASCII syntax it accepts, loadtxt gives
    exactly float()'s doubles. A file it rejects, or one that fails a check,
    goes through the per-line parser instead, which raises the first bad
    line's DataError, or returns float()'s values for syntax only float()
    accepts (``1_0``, non-ASCII digits).
    """
    ids: list[str] = []

    def value_fields() -> Iterator[str]:
        for _, (image_id, raw_values) in read_rows(path, "features file", ncols=2):
            if not raw_values:
                # loadtxt would skip the empty line and shift every later row onto the wrong id.
                raise ValueError("empty feature values")
            ids.append(image_id)
            yield raw_values

    try:
        with closing(value_fields()) as fields:
            first = next(fields, None)
            if first is None:
                return {}  # loadtxt warns on input without rows
            matrix = np.loadtxt(chain([first], fields), delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:  # a DataError from read_rows too: the per-line pass raises the first one in file order
        return _load_features_per_line(path)
    features = dict(zip(ids, matrix))
    if len(matrix) != len(ids) or len(features) != len(ids) or not np.isfinite(matrix).all():
        return _load_features_per_line(path)
    return features


def _load_features_per_line(path: str | Path) -> dict[str, np.ndarray]:
    """One float() call per value and each line checked in file order: the
    path for a file the single loadtxt pass rejects."""
    features: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, (image_id, raw_values) in read_rows(path, "features file", ncols=2):
        if image_id in features:
            raise DataError(f"{path}:{lineno}: duplicate image id {image_id!r}")
        try:
            vec = np.array([float(x) for x in raw_values.split(",")], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from None
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataError(f"{path}:{lineno}: feature length {vec.size} != {dim} seen earlier")
        features[image_id] = vec
    return features


def save_features(path: str | Path, features: dict[str, np.ndarray]) -> None:
    write_lines(path, (f"{image_id}\t{','.join(repr(float(x)) for x in vec)}" for image_id, vec in features.items()))


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

    num_concepts: int
    num_languages: int
    words_per_concept: int  # per language
    feature_dim: int = 64
    noise_sigma: float = 0.1
    num_examples: int = 1000
    seed: int = 0
    images_per_concept: int = 200
    isolated_image_fraction: float = 0.6

    def validate(self) -> None:
        if min(self.num_concepts, self.num_languages, self.num_examples) < 1:
            raise ValueError("num_concepts, num_languages, num_examples must be >= 1")
        if self.words_per_concept < 1 or self.feature_dim < 1 or self.images_per_concept < 1:
            raise ValueError("words_per_concept, feature_dim, images_per_concept must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.isolated_image_fraction <= 1.0:
            raise ValueError("isolated_image_fraction must be in [0, 1]")


def synthetic_word(lang: int, concept: int, slot: int) -> str:
    # Purely alphanumeric so the tokenizer keeps each word whole.
    return f"l{lang}w{concept}k{slot}"


def synthetic_lang(lang: int) -> str:
    return f"l{lang}"


@dataclass
class SyntheticCorpus:
    triples: list[TripleRecord]
    features: dict[str, np.ndarray]
    lexicon: list[tuple[str, str, int]]  # (lang1:word1, lang2:word2, concept)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministic in-memory generation; see gen_synthetic for the files."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos = rng.standard_normal((spec.num_concepts, spec.feature_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    def noisy_feature(concept: int) -> np.ndarray:
        vec = protos[concept] + spec.noise_sigma * rng.standard_normal(spec.feature_dim)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    features: dict[str, np.ndarray] = {}
    pool: list[list[str]] = []
    for c in range(spec.num_concepts):
        ids = [f"c{c}i{j}" for j in range(spec.images_per_concept)]
        for image_id in ids:
            features[image_id] = noisy_feature(c)
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
            features[image_id] = noisy_feature(concept)
        else:
            image_id = pool[concept][int(rng.integers(spec.images_per_concept))]
        triples.append(TripleRecord(weight=1.0, lang=synthetic_lang(lang), query=query, image_id=image_id))

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
    return SyntheticCorpus(triples=triples, features=features, lexicon=lexicon)


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
    """Training examples plus the bookkeeping the tower needs."""

    examples: list[TrainExample]
    dropped: int  # triples whose query tokenized to nothing
    tower_kind: str
    feature_dim: int | None = None
    num_images: int | None = None
    image_ids: list[str] | None = None  # dense index -> original image id


def prepare_examples(
    triples: Sequence[TripleRecord],
    vocab: Vocabulary,
    tower: str,
    features: dict[str, np.ndarray] | None = None,
) -> PreparedCorpus:
    """Tokenize queries, map tokens to ids, attach image references.

    MLP mode requires a feature vector for every referenced image id; lookup
    mode re-indexes image ids densely in first-seen order. Triples whose
    query tokenizes to nothing are dropped and counted.
    """
    if tower not in ("mlp", "lookup"):
        raise ValueError(f"unknown tower kind {tower!r}")
    if tower == "mlp" and features is None:
        raise ValueError("mlp tower requires a feature map")
    examples: list[TrainExample] = []
    dropped = 0
    image_index: dict[str, int] = {}
    feature_dim: int | None = None
    for t in triples:
        tokens = tokenize(t.query, t.lang, vocab.mode)
        if not tokens:
            dropped += 1
            continue
        ids = np.array([vocab.lookup(tok) for tok in tokens], dtype=np.int64)
        if tower == "mlp":
            assert features is not None
            vec = features.get(t.image_id)
            if vec is None:
                raise DataError(f"no feature vector for image id {t.image_id!r}")
            feature_dim = vec.size
            examples.append(TrainExample(token_ids=ids, image=vec, weight=t.weight))
        else:
            dense = image_index.setdefault(t.image_id, len(image_index))
            examples.append(TrainExample(token_ids=ids, image=dense, weight=t.weight))
    if tower == "mlp":
        return PreparedCorpus(examples=examples, dropped=dropped, tower_kind="mlp", feature_dim=feature_dim)
    ordered_ids = sorted(image_index, key=image_index.__getitem__)
    return PreparedCorpus(
        examples=examples,
        dropped=dropped,
        tower_kind="lookup",
        num_images=len(image_index),
        image_ids=ordered_ids,
    )
