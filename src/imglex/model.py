"""The two towers: bag-of-words query representation and image representation.

The query side averages embedding rows. The embedding table holds only the
rows a run uses (``train`` holds the corpus's distinct token ids); any other
row keeps its initial value, which ``initial_rows`` draws from the seed on
demand, so memory follows the rows used, not the hash buckets. The image
side is either a two-layer ReLU network over fixed image features or a
trainable per-image vector table (co-occurrence-only variant). Both sides must produce vectors of the same
dimensionality so cosine similarity is defined. Each image tower runs its own
batched forward and backward: ``forward`` checks its inputs and returns the
(B, n) image vectors with a cache, ``backward`` maps the gradient of those
vectors to the gradient of each of its arrays, under its ``arrays`` names.
``imglex.training`` calls them without asking which tower it holds;
single-example forms for tests live in tests/oracles.py.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from imglex.errors import DataError
from imglex.fileio import read_rows, read_vectors, vector_row, write_lines
from imglex.textproc import MAX_EMBEDDING_ROWS, Vocabulary  # noqa: F401  (MAX_EMBEDDING_ROWS is re-exported)

# The image tower kinds, by the name TrainConfig.tower and init_params take.
TOWER_KINDS = ("mlp", "lookup")

# Cosine of a vector with norm below this is defined as 0 and contributes
# zero gradient (the final ReLU can output an all-zero image representation).
NORM_FLOOR = 1e-12

# Rows per chunk of the word2vec export, which reads the table this many
# rows at a time.
INIT_CHUNK_ROWS = 1024


class NonFiniteError(ValueError):
    """A touched parameter, the tower output, a gradient or an accumulator is
    NaN or infinite."""

    def __init__(self, what: str):
        super().__init__(f"non-finite {what}")
        self.what = what


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(what)


@dataclass
class RowGradient:
    """Row-sparse gradient for an embedding-like table."""

    rows: np.ndarray  # (R,) unique ids, ascending
    values: np.ndarray  # (R, dim)

    def to_dense(self, num_rows: int) -> np.ndarray:
        dense = np.zeros((num_rows, self.values.shape[1]))
        dense[self.rows] = self.values
        return dense


def _scatter_rows(inverse: np.ndarray, values: np.ndarray, num_rows: int, source: np.ndarray | None = None) -> np.ndarray:
    """Row sums of ``values[source]`` grouped by ``inverse``: entry t adds
    row ``source[t]`` of ``values`` (row t if ``source`` is None) to output
    row ``inverse[t]``. ``values`` is transposed once; then one bincount per
    column adds the entries in order, so no (len(inverse), dim) copy is made."""
    out = np.empty((num_rows, values.shape[1]))
    for k, column in enumerate(np.ascontiguousarray(values.T)):
        out[:, k] = np.bincount(inverse, weights=column if source is None else column[source], minlength=num_rows)
    return out


def initial_rows(seed: int, ids: np.ndarray, emb_dim: int) -> np.ndarray:
    """The initial values of the embedding rows ``ids`` (ascending, distinct)
    as a new (len(ids), emb_dim) array: row r of the table drawn from
    ``np.random.default_rng(seed)`` as Uniform(-0.5/emb_dim, 0.5/emb_dim),
    row after row, so row r is the ``emb_dim`` draws after ``r * emb_dim``.

    Each run of consecutive ids is one draw, and the generator jumps over
    the gaps with ``advance``: the cost follows the rows asked for, not the
    largest id. Each run draws its standard uniforms straight into the
    output, which is then mapped to ``low + (high - low) * u`` in place: the
    arithmetic of ``rng.uniform``, so the bits are the same, without a
    temporary per run.
    """
    low, high = -0.5 / emb_dim, 0.5 / emb_dim
    out = np.empty((ids.size, emb_dim))
    rng = np.random.default_rng(seed)
    new_run = np.ones(ids.size, dtype=bool)
    new_run[1:] = np.diff(ids) != 1
    starts = np.flatnonzero(new_run).tolist()
    at = 0  # the row the generator stands at
    for lo, hi in zip(starts, starts[1:] + [ids.size]):
        first = int(ids[lo])  # advance takes a Python int, not an np.int64
        rng.bit_generator.advance((first - at) * emb_dim)
        rng.random(out=out[lo:hi])
        at = first + hi - lo
    out *= high - low
    out += low
    return out


@dataclass
class EmbeddingTable:
    """The rows ``ids`` of a ``num_rows`` x emb_dim embedding table, one row
    per vocabulary id or hash bucket, whose initial rows are drawn from
    ``seed`` (``initial_rows``). A row the table does not hold keeps its
    initial value, and ``read`` draws it on demand. Every table states all
    four fields; one that holds every row has ``ids == arange(num_rows)``."""

    rows: np.ndarray  # (R, emb_dim) float64; rows[k] is table row ids[k]
    ids: np.ndarray  # (R,) int64, ascending, distinct, in [0, num_rows)
    num_rows: int
    seed: int  # what the rows not held are drawn from

    @property
    def emb_dim(self) -> int:
        return self.rows.shape[1]

    def _find(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each of the ``ids`` sits in ``rows``, and a mask of those held."""
        slots = np.searchsorted(self.ids, ids)
        held = slots < self.ids.size
        held[held] = self.ids[slots[held]] == ids[held]
        return slots, held

    def slots(self, ids: np.ndarray) -> np.ndarray:
        """Where each of the ``ids`` sits in ``rows``; an id the table does
        not hold is a ValueError naming the first such id."""
        slots, held = self._find(ids)
        if not held.all():
            raise ValueError(f"embedding row {ids[~held][0]} is not held by the table")
        return slots

    def read(self, ids: Iterable[int]) -> np.ndarray:
        """Table rows ``ids`` (any order, repeats allowed) as a new
        (len(ids), emb_dim) array: held rows from ``rows``, the others drawn
        from ``seed``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_rows):
            raise ValueError("token id out of range")
        wanted, inverse = np.unique(ids, return_inverse=True)
        slots, held = self._find(wanted)
        out = np.empty((wanted.size, self.emb_dim))
        out[held] = self.rows[slots[held]]
        if not held.all():
            out[~held] = initial_rows(self.seed, wanted[~held], self.emb_dim)
        return out[inverse]


@dataclass
class MlpImageTower:
    """Two fully-connected ReLU layers over d-dimensional image features."""

    V: np.ndarray  # (m, d)
    b1: np.ndarray  # (m,)
    U: np.ndarray  # (n, m)
    b2: np.ndarray  # (n,)

    @property
    def feature_dim(self) -> int:
        return self.V.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.V.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"V": self.V, "b1": self.b1, "U": self.U, "b2": self.b2}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "MlpImageTower":
        return cls(V=arrays["V"], b1=arrays["b1"], U=arrays["U"], b2=arrays["b2"])

    def forward(self, feats: np.ndarray) -> tuple[np.ndarray, tuple]:
        """relu(U relu(V f + b1) + b2) for each row f of the (B, d) ``feats``,
        and the cache ``backward`` reads. Every weight is read, so all must
        be finite."""
        if feats.ndim != 2:
            raise ValueError("batch carries image ids but tower is mlp")
        if feats.shape[1] != self.feature_dim:
            raise ValueError(f"feature dim {feats.shape[1]} != tower dim {self.feature_dim}")
        _check_finite("image tower parameters", self.V, self.b1, self.U, self.b2)
        hidden = feats @ self.V.T
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ self.U.T
        out += self.b2
        np.maximum(out, 0.0, out=out)
        return out, (feats, hidden, out)

    def backward(self, d_out: np.ndarray, cache: tuple) -> dict[str, np.ndarray]:
        """Dense gradient of every weight and bias, given d loss / d output.

        The ReLU masks are read from the layer outputs: relu(x) > 0 exactly
        when x > 0, for NaN and -0.0 too, so no pre-activation is kept."""
        feats, hidden, out = cache
        d_pre_out = d_out * (out > 0)  # ReLU subgradient at 0 is 0
        d_pre_hidden = d_pre_out @ self.U
        d_pre_hidden *= hidden > 0
        return {
            "V": d_pre_hidden.T @ feats,
            "b1": d_pre_hidden.sum(axis=0),
            "U": d_pre_out.T @ hidden,
            "b2": d_pre_out.sum(axis=0),
        }


@dataclass
class LookupImageTower:
    """One trainable vector per distinct image id; no pixel information."""

    vectors: np.ndarray  # (num_images, emb_dim)

    @property
    def num_images(self) -> int:
        return self.vectors.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"image_vectors": self.vectors}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "LookupImageTower":
        return cls(vectors=arrays["image_vectors"])

    def forward(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vector of each image id in the (B,) ``ids``; the ids are the cache."""
        if ids.ndim != 1:
            raise ValueError("batch carries features but tower is lookup")
        if ids.min() < 0 or ids.max() >= self.num_images:
            raise ValueError("image id out of range")
        return self.vectors[ids], ids

    def backward(self, d_out: np.ndarray, ids: np.ndarray) -> dict[str, RowGradient]:
        """Row-sparse gradient: each batch image's rows of ``d_out`` summed
        onto its id; a table row absent from the batch has no entry."""
        rows, inverse = np.unique(ids, return_inverse=True)
        return {"image_vectors": RowGradient(rows=rows, values=_scatter_rows(inverse, d_out, rows.size))}


ImageTower = MlpImageTower | LookupImageTower


@dataclass
class ModelParams:
    """All trainable parameters: the embedding table and one image tower."""

    embeddings: EmbeddingTable
    tower: ImageTower

    @property
    def emb_dim(self) -> int:
        return self.embeddings.emb_dim

    def arrays(self) -> dict[str, np.ndarray]:
        """Every trainable array by name, the embedding table first, then the
        tower's: ``V, b1, U, b2`` (MLP) or ``image_vectors`` (lookup). The
        values are the live arrays, so writing into one updates the model;
        Adagrad's state, checkpoints and the gradient check all use these names."""
        return {"embeddings": self.embeddings.rows, **self.tower.arrays()}


def init_params(
    seed: int,
    *,
    num_rows: int,
    emb_dim: int,
    tower: str,
    feature_dim: int | None = None,
    hidden_dim: int | None = None,
    num_images: int | None = None,
    rows: np.ndarray | None = None,
) -> ModelParams:
    """Seed-determined initialization of all parameters.

    The seeded stream draws the ``num_rows`` x emb_dim embedding table first
    (``initial_rows``), then the tower's: lookup-image rows ~
    Uniform(-0.5/emb_dim, 0.5/emb_dim); MLP weights Glorot-uniform (bound
    sqrt(6/(fan_in+fan_out))); biases zero. The table holds the rows ``rows``
    (ascending, distinct, in [0, num_rows)), or every row if None; only those
    are drawn, and the generator jumps past the rest of the table, so the
    tower's arrays do not depend on ``rows``.
    """
    ids = np.arange(num_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if ids.size and (ids[0] < 0 or ids[-1] >= num_rows or np.any(ids[1:] <= ids[:-1])):
        raise ValueError(f"held rows must be ascending, distinct and in [0, {num_rows})")
    embeddings = EmbeddingTable(rows=initial_rows(seed, ids, emb_dim), ids=ids, num_rows=num_rows, seed=seed)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(int(num_rows) * int(emb_dim))
    half = 0.5 / emb_dim
    if tower == "mlp":
        if feature_dim is None or hidden_dim is None:
            raise ValueError("mlp tower requires feature_dim and hidden_dim")
        bound1 = np.sqrt(6.0 / (feature_dim + hidden_dim))
        bound2 = np.sqrt(6.0 / (hidden_dim + emb_dim))
        image_tower: ImageTower = MlpImageTower(
            V=rng.uniform(-bound1, bound1, size=(hidden_dim, feature_dim)),
            b1=np.zeros(hidden_dim),
            U=rng.uniform(-bound2, bound2, size=(emb_dim, hidden_dim)),
            b2=np.zeros(emb_dim),
        )
    elif tower == "lookup":
        if num_images is None:
            raise ValueError("lookup tower requires num_images")
        image_tower = LookupImageTower(vectors=rng.uniform(-half, half, size=(num_images, emb_dim)))
    else:
        raise ValueError(f"unknown tower kind {tower!r}")
    return ModelParams(embeddings=embeddings, tower=image_tower)


def save_word2vec(path: str | Path, vocab: Vocabulary, table: EmbeddingTable) -> None:
    """Export in-vocabulary embeddings as word2vec text (buckets excluded).

    First line is "<row_count> <emb_dim>", then one "<token> <v1> ... <vdim>"
    line per in-vocabulary token in id order, written by
    imglex.fileio.vector_row, so the file round-trips bit-for-bit. Rows are
    read through the table a chunk at a time, so a row it does not hold is
    written with its initial value.
    """
    if table.num_rows < vocab.vocab_size:
        raise ValueError("embedding table smaller than vocabulary")
    size = vocab.vocab_size
    chunks = (table.read(np.arange(start, min(start + INIT_CHUNK_ROWS, size))) for start in range(0, size, INIT_CHUNK_ROWS))
    rows = (vector_row(token, row, " ", " ") for token, row in zip(vocab.tokens, chain.from_iterable(chunks)))
    write_lines(path, chain([f"{vocab.vocab_size} {table.emb_dim}"], rows))


def load_word2vec(path: str | Path) -> dict[str, np.ndarray]:
    """Load a word2vec text export into a token -> vector map: the rows are
    read by imglex.fileio.read_vectors, d from the header, and a row whose
    L2 norm overflows is a DataError, so no cosine of two rows overflows."""
    with closing(read_rows(path, "embeddings file", sep=" ", maxsplit=1)) as rows:
        header = " ".join(next(rows, (1, []))[1])
        try:
            count, dim = (int(x) for x in header.split())
        except ValueError:
            raise DataError(f"{path}:1: malformed word2vec header {header!r}, expected '<count> <dim>'") from None
        tokens, matrix = read_vectors(path, rows, " ", "vector value", dim)
    if len(tokens) != count:
        raise DataError(f"{path}:1: header claims {count} rows, found {len(tokens)}")
    with np.errstate(over="ignore"):
        overflow = np.flatnonzero(~np.isfinite(np.linalg.norm(matrix, axis=1)))
    if overflow.size:
        raise DataError(f"{path}:{overflow[0] + 2}: L2 norm of {tokens[overflow[0]]!r} overflows")
    return dict(zip(tokens, matrix))
