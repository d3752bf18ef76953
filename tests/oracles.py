"""Slow, single-example reference implementations the tests compare the
library's batched and vectorized code against.

The brute-force batch loss stays in ``imglex.training`` (the benchmark's
correctness gate imports it); everything here is used by tests only.
"""

from typing import Sequence

import numpy as np

from imglex.errors import DataError, EvalError
from imglex.evaluation import LexiconPair, RetrievalResult, Vectors, task_token
from imglex.fileio import read_rows
from imglex.model import EmbeddingTable, LookupImageTower, MlpImageTower, ModelParams
from imglex.textproc import LangMode
from imglex.training import Batch, batch_loss


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
    return table.rows[ids].mean(axis=0)


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


def lexicon_retrieval_loop(vectors: Vectors, pairs: Sequence[LexiconPair], mode: LangMode) -> RetrievalResult:
    """``imglex.evaluation.lexicon_retrieval`` as a plain O(n^2) double loop:
    the nearest crosslingual word is the first one with a strictly greater
    cosine than every earlier candidate."""
    info: dict[str, tuple[str, str]] = {}  # tagged word -> (lang, concept)
    for pair in pairs:
        for word in (pair.word1, pair.word2):
            lang = word.split(":", 1)[0]
            previous = info.get(word)
            if previous is not None and previous[1] != pair.concept:
                raise EvalError(f"lexicon word {word!r} listed under two concepts")
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
        if norm <= 0:
            continue
        words.append((word, lang, concept))
        rows.append(vec / norm)
    if len(words) < 2:
        raise EvalError("lexicon: fewer than 2 covered words")
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
        raise EvalError("lexicon: not enough covered crosslingual pairs")
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


def load_features_per_value(path) -> dict[str, np.ndarray]:
    """features.tsv read one float() call per value, each line checked in
    file order: load_features must return the same bits or raise the same
    DataError message."""
    features: dict[str, np.ndarray] = {}
    dim = None
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
