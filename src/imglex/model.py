"""The two towers: bag-of-words query representation and image representation.

The query side averages embedding rows. The image side is either a two-layer
ReLU network over fixed image features or a trainable per-image vector table
(co-occurrence-only variant). Both sides must produce vectors of the same
dimensionality so cosine similarity is defined. Both towers run batched in
``imglex.training``; single-example forms for tests live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from imglex.errors import DataError
from imglex.fileio import read_rows, write_lines
from imglex.textproc import Vocabulary

# Cosine of a vector with norm below this is defined as 0 and contributes
# zero gradient (the final ReLU can output an all-zero image representation).
NORM_FLOOR = 1e-12


@dataclass
class EmbeddingTable:
    """Dense matrix of embedding rows, one per vocabulary id or hash bucket."""

    rows: np.ndarray  # (num_rows, emb_dim) float64

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def emb_dim(self) -> int:
        return self.rows.shape[1]


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

    @property
    def out_dim(self) -> int:
        return self.U.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"V": self.V, "b1": self.b1, "U": self.U, "b2": self.b2}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "MlpImageTower":
        return cls(V=arrays["V"], b1=arrays["b1"], U=arrays["U"], b2=arrays["b2"])


@dataclass
class LookupImageTower:
    """One trainable vector per distinct image id; no pixel information."""

    vectors: np.ndarray  # (num_images, emb_dim)

    @property
    def num_images(self) -> int:
        return self.vectors.shape[0]

    @property
    def out_dim(self) -> int:
        return self.vectors.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"image_vectors": self.vectors}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "LookupImageTower":
        return cls(vectors=arrays["image_vectors"])


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
        Adagrad, checkpoints and the gradient check all iterate this table."""
        return {"embeddings": self.embeddings.rows, **self.tower.arrays()}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ModelParams":
        """Inverse of ``arrays``; the tower kind follows from the names."""
        tower = MlpImageTower if "V" in arrays else LookupImageTower
        return cls(embeddings=EmbeddingTable(rows=arrays["embeddings"]), tower=tower.from_arrays(arrays))


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


def init_params(
    seed: int,
    *,
    num_rows: int,
    emb_dim: int,
    tower: str,
    feature_dim: int | None = None,
    hidden_dim: int | None = None,
    num_images: int | None = None,
) -> ModelParams:
    """Seed-determined initialization of all parameters.

    Embedding and lookup-image rows ~ Uniform(-0.5/emb_dim, 0.5/emb_dim);
    MLP weights Glorot-uniform (bound sqrt(6/(fan_in+fan_out))); biases zero.
    """
    rng = np.random.default_rng(seed)
    half = 0.5 / emb_dim
    embeddings = EmbeddingTable(rows=rng.uniform(-half, half, size=(num_rows, emb_dim)))
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
    line per in-vocabulary token in id order. Values use shortest exact
    decimal repr, so the file round-trips bit-for-bit.
    """
    if table.num_rows < vocab.vocab_size:
        raise ValueError("embedding table smaller than vocabulary")
    lines = [f"{vocab.vocab_size} {table.emb_dim}"]
    for i, token in enumerate(vocab.tokens):
        values = " ".join(repr(float(x)) for x in table.rows[i])
        lines.append(f"{token} {values}")
    write_lines(path, lines)


def load_word2vec(path: str | Path) -> dict[str, np.ndarray]:
    """Load a word2vec text export into a token -> vector map."""
    rows = read_rows(path, "embeddings file", sep=" ")
    header = " ".join(next(rows, (1, []))[1])
    try:
        count, dim = (int(x) for x in header.split())
    except ValueError:
        raise DataError(f"{path}:1: malformed word2vec header {header!r}, expected '<count> <dim>'") from None
    vectors: dict[str, np.ndarray] = {}
    for lineno, fields in rows:
        if len(fields) != dim + 1:
            raise DataError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields)}")
        try:
            vectors[fields[0]] = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric vector value") from None
    if len(vectors) != count:
        raise DataError(f"{path}:1: header claims {count} rows, found {len(vectors)}")
    return vectors
