"""Slow, single-example reference implementations the tests compare the
library's batched and vectorized code against.

The brute-force batch loss stays in ``imglex.training`` (the benchmark's
correctness gate imports it); everything here is used by tests only, as is
``held_row_sets``, the embedding row sets the property tests draw.
"""

import math
import re
from typing import Iterable, Sequence

import numpy as np
from hypothesis import strategies as st

from imglex.errors import DataError, EvalError
from imglex.evaluation import LexiconPair, RetrievalResult, Vectors, task_token
from imglex.fileio import read_rows
from imglex.model import INIT_CHUNK_ROWS, NORM_FLOOR, EmbeddingTable, LookupImageTower, MlpImageTower, ModelParams, RowGradient
from imglex.textproc import LangMode, Vocabulary, is_language_code
from imglex.training import Batch, batch_gradients, batch_loss


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data``, one byte at a time in Python ints."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def lookup(vocab: Vocabulary, token: str) -> int:
    """``Vocabulary.lookup`` token by token: the vocabulary id, or the bucket
    ``vocab_size + fnv1a64(UTF-8 bytes) % num_buckets``."""
    found = vocab.index.get(token)
    return found if found is not None else vocab.vocab_size + fnv1a64(token.encode("utf-8")) % vocab.num_buckets


def tokenize_regex(raw_query: str, lang: str | None, mode: LangMode) -> list[str]:
    """``imglex.textproc.tokenize`` through the separator pattern alone: every
    run of characters that are not Unicode letters or digits (underscore
    included) becomes one space in the lowercased text, which is then split."""
    if mode is LangMode.AWARE and not is_language_code(lang):
        raise ValueError(f"aware mode requires a non-empty lowercase language code, got {lang!r}")
    surfaces = re.sub(r"[\W_]+", " ", raw_query.lower()).split()
    return [f"{lang}:{surface}" for surface in surfaces] if mode is LangMode.AWARE else surfaces


def pack_examples(examples: Sequence[tuple]) -> Batch:
    """The tests' per-example constructor: a Batch of ``(token_ids, image,
    weight)`` examples through ``Batch.pack``, so its checks apply. The
    images are all feature vectors, stacked in order into a new matrix (MLP
    tower), or all image ids (lookup tower); no example means lookup."""
    queries = [np.asarray(ids, dtype=np.int64) for ids, _, _ in examples]
    images = [image for _, image, _ in examples]
    if images and np.ndim(images[0]):
        image_rows, features = np.arange(len(images)), np.stack(images).astype(np.float64)
    else:
        image_rows, features = images, None
    token_ids = np.concatenate([np.empty(0, dtype=np.int64), *queries])
    return Batch.pack(token_ids, [ids.size for ids in queries], image_rows, [w for _, _, w in examples], features)


def full_table(rows, seed: int = 0) -> EmbeddingTable:
    """An embedding table holding every one of ``rows``, as float64."""
    rows = np.asarray(rows, dtype=np.float64)
    return EmbeddingTable(rows=rows, ids=np.arange(len(rows)), num_rows=len(rows), seed=seed)


def query_repr(table: EmbeddingTable, token_ids: Sequence[int]) -> np.ndarray:
    """Arithmetic mean of the embedding rows for ``token_ids``.

    Duplicate ids count with multiplicity. Raises on an empty id list;
    callers must drop empty-query examples.
    """
    if len(token_ids) == 0:
        raise ValueError("empty query")
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= table.num_rows:
        raise ValueError("token id out of range")
    return table.read(ids).mean(axis=0)


def image_repr_mlp(tower: MlpImageTower, features: np.ndarray) -> np.ndarray:
    """relu(U @ relu(V @ f + b1) + b2); elementwise relu(x) = max(0, x)."""
    f = np.asarray(features, dtype=np.float64)
    if f.shape != (tower.feature_dim,):
        raise ValueError(f"expected feature vector of length {tower.feature_dim}, got shape {f.shape}")
    hidden = np.maximum(tower.V @ f + tower.b1, 0.0)
    return np.maximum(tower.U @ hidden + tower.b2, 0.0)


def image_repr_lookup(tower: LookupImageTower, image_id: int) -> np.ndarray:
    """The stored trainable row for ``image_id``."""
    if not 0 <= image_id < tower.num_images:
        raise ValueError(f"image id {image_id} out of range [0, {tower.num_images})")
    return tower.vectors[image_id]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 if either norm is below NORM_FLOOR."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        return 0.0
    return float(a @ b / (na * nb))


def lexicon_retrieval_loop(vectors: Vectors, pairs: Sequence[LexiconPair], mode: LangMode) -> RetrievalResult:
    """``imglex.evaluation.lexicon_retrieval`` as a plain O(n^2) double loop:
    the nearest crosslingual word is the first one with a strictly greater
    cosine than every earlier candidate."""
    info: dict[str, tuple[str, str]] = {}  # tagged word -> (lang, concept)
    for pair in pairs:
        for word in (pair.word1, pair.word2):
            lang, tagged, _ = word.partition(":")
            if not tagged:
                raise EvalError(f"word {word!r} has no language tag")
            if not is_language_code(lang):
                raise EvalError(f"word {word!r} has an invalid language tag")
            previous = info.get(word)
            if previous is not None and previous[1] != pair.concept:
                raise EvalError(f"word {word!r} listed under two concepts")
            info[word] = (lang, pair.concept)
    words = []
    rows = []
    for word, (lang, concept) in info.items():
        token = task_token(word, mode)
        if token is None:
            continue
        vec = vectors.get(token)
        if vec is None:
            continue
        norm = np.linalg.norm(vec)
        if norm < NORM_FLOOR:
            continue
        words.append((word, lang, concept))
        rows.append(vec / norm)
    if len(words) < 2:
        raise EvalError("fewer than 2 covered words")
    unit = np.asarray(rows)
    sims = unit @ unit.T

    index = {word: i for i, (word, _, _) in enumerate(words)}
    same: list[float] = []
    for pair in pairs:
        i = index.get(pair.word1)
        j = index.get(pair.word2)
        if i is not None and j is not None:
            same.append(float(sims[i, j]))

    diff: list[float] = []
    hits = 0
    considered = 0
    n = len(words)
    for i in range(n):
        _, lang_i, concept_i = words[i]
        best_sim = -np.inf
        best_j = -1
        for j in range(n):
            if i == j:
                continue
            _, lang_j, concept_j = words[j]
            if lang_j == lang_i:
                continue
            if concept_j != concept_i:
                diff.append(float(sims[i, j]))
            if sims[i, j] > best_sim:
                best_sim = float(sims[i, j])
                best_j = j
        if best_j >= 0:
            considered += 1
            if words[best_j][2] == concept_i:
                hits += 1
    if not same or not diff or considered == 0:
        raise EvalError("not enough covered crosslingual pairs")
    return RetrievalResult(
        same_concept_mean=float(np.mean(same)),
        diff_concept_mean=float(np.mean(diff)),
        precision_at_1=hits / considered,
        n_words=len(words),
        n_pairs=len(same),
    )


def numeric_gradients(params: ModelParams, batch: Batch, logit_scale: float, step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of ``batch_loss`` for every entry of every
    parameter array, by array name; untouched embedding rows come out 0."""
    numeric = {}
    for name, theta in params.arrays().items():
        flat = theta.reshape(-1)
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = batch_loss(params, batch, logit_scale).mean_weighted_loss
            flat[i] = original - step
            down = batch_loss(params, batch, logit_scale).mean_weighted_loss
            flat[i] = original
            grad[i] = (up - down) / (2.0 * step)
        numeric[name] = grad.reshape(theta.shape)
    return numeric


def _kinks(params: ModelParams, batch: Batch) -> list[np.ndarray]:
    """Which side of each kink the batch's loss sits on: every ReLU
    pre-activation of the MLP tower > 0, and every query and image
    representation's norm < NORM_FLOOR. Computed without the library's
    forward: the embedding rows come from ``EmbeddingTable.read``."""
    rows = params.embeddings.read(batch.token_ids)
    queries = np.add.reduceat(rows, batch.offsets, axis=0) / batch.counts[:, None]
    tower = params.tower
    if isinstance(tower, MlpImageTower):
        pre_hidden = batch.images @ tower.V.T + tower.b1
        pre_out = np.maximum(pre_hidden, 0.0) @ tower.U.T + tower.b2
        sides = [pre_hidden > 0, pre_out > 0]
        images = np.maximum(pre_out, 0.0)
    else:
        sides, images = [], tower.vectors[batch.images]
    return sides + [np.linalg.norm(m, axis=1) < NORM_FLOOR for m in (queries, images)]


def directional_check(
    params: ModelParams, batch: Batch, logit_scale: float, rng: np.random.Generator, directions: int = 5, eps: float = 1e-6
) -> list[float]:
    """Relative errors |g.v - d| / max(|g.v|, |d|) of the analytic gradient g
    along ``directions`` random directions v, each a standard normal draw
    over every parameter array, against the central difference
    d = (L(theta + eps v) - L(theta - eps v)) / (2 eps) of ``batch_loss``.

    A direction is redrawn (up to 20 times per direction kept) if between
    theta - eps v, theta and theta + eps v a ReLU pre-activation changes sign
    or a norm crosses NORM_FLOOR: there the loss has a kink and the central
    difference is not the derivative. The embedding gradient's row ids are
    mapped to the table's rows with a search of their own, not with
    ``EmbeddingTable.slots``. The parameters are restored bit for bit.
    """
    table = params.embeddings
    thetas = params.arrays()
    grads = batch_gradients(params, batch, logit_scale).arrays()
    dense = {}
    for name, grad in grads.items():
        if isinstance(grad, RowGradient):
            rows = grad.rows
            if name == "embeddings":
                rows = np.searchsorted(table.ids, grad.rows)
                assert np.array_equal(table.ids[rows], grad.rows), "gradient of an embedding row the table does not hold"
            dense[name] = np.zeros_like(thetas[name])
            dense[name][rows] = grad.values
        else:
            dense[name] = grad
    originals = {name: theta.copy() for name, theta in thetas.items()}
    here = _kinks(params, batch)

    def shifted(t: float, v: dict[str, np.ndarray]) -> tuple[list[np.ndarray], float]:
        for name, theta in thetas.items():
            theta[...] = originals[name] + t * v[name]
        return _kinks(params, batch), batch_loss(params, batch, logit_scale).mean_weighted_loss

    errors: list[float] = []
    for _ in range(20 * directions):
        if len(errors) == directions:
            break
        v = {name: rng.standard_normal(theta.shape) for name, theta in thetas.items()}
        try:
            (below, down), (above, up) = shifted(-eps, v), shifted(eps, v)
        finally:
            for name, theta in thetas.items():
                theta[...] = originals[name]
        if not all(np.array_equal(a, h) and np.array_equal(b, h) for a, h, b in zip(below, here, above)):
            continue
        numeric = (up - down) / (2.0 * eps)
        analytic = float(sum(np.vdot(dense[name], v[name]) for name in thetas))
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
    if len(errors) < directions:
        raise AssertionError(f"only {len(errors)} of {20 * directions} directions crossed no kink")
    return errors


def _parse_value(raw, path, lineno, what) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric {what} {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite {what} {raw!r}")
    return value


def load_features_per_value(path) -> dict[str, np.ndarray]:
    """features.tsv read one float() call per value, each line checked in
    file order: load_features must return the same bits or raise the same
    DataError message."""
    features: dict[str, np.ndarray] = {}
    dim = None
    for lineno, (image_id, raw_values) in read_rows(path, "features file", ncols=2):
        if image_id in features:
            raise DataError(f"{path}:{lineno}: duplicate key {image_id!r}")
        vec = np.array([_parse_value(x, path, lineno, "feature value") for x in raw_values.split(",")], dtype=np.float64)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataError(f"{path}:{lineno}: expected {dim} feature values, got {vec.size}")
        features[image_id] = vec
    return features


def encode_lines(lines: Iterable[str]) -> bytes:
    """UTF-8 text of ``lines``, each terminated by LF, built whole: the bytes
    imglex.fileio.write_lines must write."""
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def load_word2vec_per_value(path) -> dict[str, np.ndarray]:
    """embeddings.vec read one float() call per value, each line checked in
    file order, then the header's row count, then each row's L2 norm:
    load_word2vec must return the same bits or raise the same DataError
    message."""
    lines = read_rows(path, "embeddings file", sep=" ")
    header = " ".join(next(lines, (1, []))[1])
    try:
        count, dim = (int(x) for x in header.split())
    except ValueError:
        raise DataError(f"{path}:1: malformed word2vec header {header!r}, expected '<count> <dim>'") from None
    vectors: dict[str, np.ndarray] = {}
    for lineno, (token, *raw_values) in lines:
        if token in vectors:
            raise DataError(f"{path}:{lineno}: duplicate key {token!r}")
        values = [_parse_value(x, path, lineno, "vector value") for x in raw_values]
        if len(values) != dim:
            raise DataError(f"{path}:{lineno}: expected {dim} vector values, got {len(values)}")
        vectors[token] = np.array(values, dtype=np.float64)
    if len(vectors) != count:
        raise DataError(f"{path}:1: header claims {count} rows, found {len(vectors)}")
    for lineno, (token, vec) in enumerate(vectors.items(), start=2):
        if not math.isfinite(sum(x * x for x in vec.tolist())):
            raise DataError(f"{path}:{lineno}: L2 norm of {token!r} overflows")
    return vectors


def held_row_sets(num_rows: int) -> st.SearchStrategy[list[int]]:
    """Ascending embedding row ids in [0, num_rows): no row, every row, the
    rows on either side of each chunk edge, the first and last row, or a
    random set."""
    edges = sorted({r for k in range(0, num_rows + 1, INIT_CHUNK_ROWS) for r in (k - 1, k, k + 1) if 0 <= r < num_rows})
    return st.one_of(
        st.just([]),
        st.just(list(range(num_rows))),
        st.just(edges),
        st.just([0, num_rows - 1]),
        st.sets(st.integers(0, num_rows - 1), max_size=300).map(sorted),
    )
