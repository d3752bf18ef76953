"""Corpus file formats, the >=2-language image filter, and synthetic data.

File formats (UTF-8, LF, '.' decimal separator):
  triples.tsv   weight<TAB>lang<TAB>query<TAB>image_id
  features.tsv  image_id<TAB>f1,f2,...,fd
  lexicon.tsv   lang1:word1<TAB>lang2:word2<TAB>concept_id

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
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from imglex.errors import ConfigError, DataError
from imglex.fileio import parse_number, read_rows, read_vectors, vector_row, write_lines
from imglex.model import TOWER_KINDS
from imglex.textproc import Vocabulary, is_language_code, tokenize
from imglex.training import Batch


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
        weight = parse_number(raw_weight, path, lineno, "weight")
        if weight < 0:
            raise DataError(f"{path}:{lineno}: negative weight {raw_weight!r}")
        if not image_id:
            raise DataError(f"{path}:{lineno}: empty image id")
        if not is_language_code(lang):
            raise DataError(f"{path}:{lineno}: invalid language code {lang!r}")
        records.append(TripleRecord(weight=weight, lang=lang, query=query, image_id=image_id))
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

    @classmethod
    def of(cls, features: Mapping[str, np.ndarray]) -> "FeatureTable":
        """``features`` itself if it is a FeatureTable; otherwise its vectors
        packed, in its order, into a new matrix."""
        if isinstance(features, FeatureTable):
            return features
        vectors = [np.asarray(vec, dtype=np.float64) for vec in features.values()]
        return cls(list(features), np.stack(vectors) if vectors else np.empty((0, 0)))

    def __getitem__(self, image_id: str) -> np.ndarray:
        return self.matrix[self.index[image_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


def load_features(path: str | Path) -> FeatureTable:
    """Parse a features TSV into a FeatureTable over the matrix that
    imglex.fileio.read_vectors reads; d is set by the first row."""
    return FeatureTable(*read_vectors(path, lambda: read_rows(path, "features file", ncols=2), ",", "feature value"))


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
    features: dict[str, np.ndarray]
    lexicon: list[tuple[str, str, int]]  # (lang1:word1, lang2:word2, concept)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministic in-memory generation; see gen_synthetic for the files."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos = rng.standard_normal((spec.num_concepts, spec.feature_dim))
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
    """The packed corpus plus the bookkeeping the tower needs."""

    examples: Batch  # the packed corpus, train()'s one input
    dropped: int  # triples whose query tokenized to nothing
    feature_dim: int | None = None
    num_images: int | None = None


def prepare_examples(
    triples: Sequence[TripleRecord],
    vocab: Vocabulary,
    tower: str,
    features: Mapping[str, np.ndarray] | None = None,
) -> PreparedCorpus:
    """Tokenize queries, map tokens to ids and images to rows, and pack the
    kept triples into one Batch.

    MLP mode requires a feature vector for every referenced image id; each
    example's image row is that vector's row in the FeatureTable of
    ``features`` (a table from load_features is used as it is, any other
    mapping is packed into one), and the batch shares its matrix. Lookup
    mode re-indexes image ids densely in first-seen order. Triples whose
    query tokenizes to nothing are dropped and counted.
    """
    if tower not in TOWER_KINDS:
        raise ValueError(f"unknown tower kind {tower!r}")
    if tower == "mlp" and features is None:
        raise ValueError("mlp tower requires a feature map")
    table = FeatureTable.of(features) if tower == "mlp" else None
    image_index = {} if table is None else table.index
    token_ids: list[int] = []
    counts: list[int] = []
    image_rows: list[int] = []
    weights: list[float] = []
    dropped = 0
    for t in triples:
        tokens = tokenize(t.query, t.lang, vocab.mode)
        if not tokens:
            dropped += 1
            continue
        if table is None:
            row = image_index.setdefault(t.image_id, len(image_index))
        else:
            row = image_index.get(t.image_id)
            if row is None:
                raise DataError(f"no feature vector for image id {t.image_id!r}")
        token_ids += map(vocab.lookup, tokens)
        counts.append(len(tokens))
        image_rows.append(row)
        weights.append(t.weight)
    examples = Batch.pack(token_ids, counts, image_rows, weights, None if table is None else table.matrix)
    if table is None:
        return PreparedCorpus(examples=examples, dropped=dropped, num_images=len(image_index))
    return PreparedCorpus(examples=examples, dropped=dropped, feature_dim=table.matrix.shape[1] if counts else None)
