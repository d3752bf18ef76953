"""In-batch softmax cosine loss, hand-derived gradients, Adagrad, train loop.

For a batch of B (query, image, weight) examples the logit matrix is
Z[q][j] = scale * cosine(Q_q, I_j) over every query/image pair in the batch,
so each query's softmax denominator ranges only over in-batch images. The
per-example loss -log softmax(Z[q])[q] is multiplied by the example weight
and the batch loss is the mean of the B weighted losses.

The backward pass is derived by hand (no autograd): gradients flow through
both the query and image side of every logit, including the off-diagonal
(negative) pairs. Embedding rows and lookup-image rows receive row-sparse
gradients; a row absent from the batch is exactly untouched. This module
owns the bag-of-words forward and backward; the image tower runs its own
``forward`` and ``backward`` (``imglex.model``), so the step is the same code
for both towers.

``train`` has one input, the packed corpus: one Batch (flat token ids with
per-query counts and offsets, one image row and one weight per example), as
``imglex.data.prepare_corpus`` returns it with its vocabulary, and it
gathers every mini-batch from it by index. The MLP tower's image rows
index the feature matrix ``load_features`` read, so a step gathers its B
feature rows from that matrix and the corpus holds no copy of it. A step's
forward and backward share one B x B float64 buffer: it holds the cosines,
then the logits, then their shifted exponentials, then the logit gradient.

A step keeps only what its backward reads. Past the B x B buffer, the
forward leaves the unit query and image rows (B x n each) and the tower's
cache: the MLP tower's input features and its two layer outputs, whose
ReLU masks equal the pre-activations' (B x (d + m + n)). The backward forms
d_q and d_i in place in the outputs of ``g @ i_hat`` and ``g.T @ q_hat``,
drops the unit rows once it has read them, and the tower cache and d_i once
the tower's backward has; the query gradients reach the embedding rows one
column at a time through the token -> query index, with no per-token copy.
``sgd_step`` updates a row-sparse array in its gathered accumulator rows and
one more buffer. Each is the same float64 arithmetic in the same order as
the plain formulas, so the results are bit for bit the same.

``train`` holds in its embedding table only the distinct token ids of the
corpus, the only rows any step can read or give a gradient to; every other
row keeps its initial value (``imglex.model.EmbeddingTable``). Each step maps
its tokens to rows of that block with one ``np.searchsorted`` and gathers
each touched row once: the finiteness check and the bag of words read that
one copy. Adagrad's accumulators have the shapes of the parameters, so the
embedding accumulator lines up row for row with the held rows, and the
memory of both grows with the rows the corpus holds, not with the hash
buckets.

The per-example view is kept for ``bench/`` only; each name goes with its lines:
- ``TrainExample`` and a Batch read as a sequence (``len``, iteration, an
  int or slice index): ``bench/pipeline.py`` lines 129, 143, 179, 243, 251;
- ``Batch.from_examples``: ``bench/pipeline.py`` lines 179 and 253;
- ``Gradients.images``: ``bench/pipeline.py`` line 267;
- ``OptimizerState.emb_accum`` and ``mlp_accum``: ``bench/counts.py`` lines 52-53.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from imglex.errors import ConfigError, DataError, TrainingDiverged
from imglex.fileio import atomic_write, write_lines
from imglex.model import (
    MAX_EMBEDDING_ROWS,
    NORM_FLOOR,
    TOWER_KINDS,
    EmbeddingTable,
    LookupImageTower,
    MlpImageTower,
    ModelParams,
    NonFiniteError,
    RowGradient,
    _check_finite,
    _scatter_rows,
    init_params,
)

BRUTEFORCE_MAX_BATCH = 64
ADAGRAD_EPSILON = 1e-8


@dataclass(slots=True)
class TrainExample:
    """One example of the benchmark's per-example view (see the module docstring)."""

    token_ids: np.ndarray
    image: np.ndarray | int  # a d-vector of image features (MLP tower) or a dense image id (lookup tower)
    weight: float = 1.0


@dataclass
class Batch(Sequence):
    """Examples in array form: the queries' token ids concatenated, with
    per-query counts and offsets, one image row and one weight per example.

    The image row indexes ``features`` for the MLP tower, the (N, d) feature
    matrix, which may hold more rows than the batch uses and is never
    copied; for the lookup tower it is the image id and ``features`` is
    None. ``images`` gathers what the image tower's forward takes.

    The packed corpus of a run is one Batch, ``train``'s one input:
    ``imglex.data.prepare_corpus`` packs it from the triples (``pack``),
    and ``select`` gathers a sub-batch by example index, so each step of
    ``train`` is an index gather. The benchmark also reads a Batch as a
    sequence of examples, each image a row view of ``features``.
    """

    token_ids: np.ndarray  # (T,) int64; query q is token_ids[offsets[q] : offsets[q] + counts[q]]
    counts: np.ndarray  # (B,) int64, each >= 1
    offsets: np.ndarray  # (B,) int64
    image_rows: np.ndarray  # (B,) int64: a row of features (MLP) or an image id (lookup)
    weights: np.ndarray  # (B,) non-negative
    features: np.ndarray | None = None  # (N, d) float64 (MLP); None (lookup)

    @property
    def size(self) -> int:
        return self.counts.size

    @property
    def images(self) -> np.ndarray:
        """What the image tower's forward takes: (B, d) features (MLP) or (B,) image ids (lookup)."""
        return self.image_rows if self.features is None else self.features[self.image_rows]

    @classmethod
    def pack(cls, token_ids, counts, image_rows, weights, features: np.ndarray | None = None) -> "Batch":
        """A batch of the given arrays (or lists), checked: every query has a
        token and every weight is finite and non-negative. It may be empty."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and counts.min() == 0:
            raise ValueError("empty query in batch")
        weights = np.asarray(weights, dtype=np.float64)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and non-negative")
        token_ids, image_rows = np.asarray(token_ids, dtype=np.int64), np.asarray(image_rows, dtype=np.int64)
        return cls(token_ids, counts, _starts(counts), image_rows, weights, features)

    @classmethod
    def from_examples(cls, examples: Sequence[TrainExample]) -> "Batch":
        """Pack ``examples``; their feature vectors are stacked into a new matrix."""
        if len(examples) == 0:
            raise ValueError("empty batch")
        queries = [np.asarray(ex.token_ids, dtype=np.int64) for ex in examples]
        kinds = {np.ndim(ex.image) for ex in examples}  # 0: image id, 1: feature vector
        if len(kinds) != 1:
            raise ValueError("mixed tower kinds in one batch")
        if kinds == {0}:
            image_rows, features = [int(ex.image) for ex in examples], None
        else:
            image_rows, features = np.arange(len(examples)), np.stack([np.asarray(ex.image, dtype=np.float64) for ex in examples])
        weights = [ex.weight for ex in examples]
        return cls.pack(np.concatenate(queries), [ids.size for ids in queries], image_rows, weights, features)

    def select(self, index: np.ndarray) -> "Batch":
        """The examples at ``index``, in that order, as a new batch over the same features."""
        counts = self.counts[index]
        offsets = _starts(counts)
        # Token t of gathered query q sits at t + (old start - new start of q).
        positions = np.repeat(self.offsets[index] - offsets, counts)
        positions += np.arange(positions.size)
        return Batch(self.token_ids[positions], counts, offsets, self.image_rows[index], self.weights[index], self.features)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self.size))]
        k = range(self.size)[index]
        start, row = self.offsets[k], self.image_rows[k]
        image = int(row) if self.features is None else self.features[row]
        return TrainExample(self.token_ids[start : start + self.counts[k]], image, float(self.weights[k]))


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each segment of a concatenation starts."""
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


@dataclass
class LossReport:
    mean_weighted_loss: float
    logits: np.ndarray  # (B, B), row=query, column=image; entries in [-scale, scale]
    example_losses: np.ndarray  # (B,) weighted per-example losses


@dataclass
class Gradients:
    """The gradient of each array the batch touched, under its
    ``ModelParams.arrays`` name: row-sparse for ``embeddings`` and
    ``image_vectors``, dense for the MLP arrays. ``tower`` is what the image
    tower's ``backward`` returns."""

    embeddings: RowGradient
    tower: dict[str, RowGradient | np.ndarray] = field(default_factory=dict)

    @property
    def images(self) -> RowGradient | None:
        """The lookup tower's image-vector gradient (None for the MLP tower)."""
        return self.tower.get("image_vectors")

    def arrays(self) -> dict[str, RowGradient | np.ndarray]:
        return {"embeddings": self.embeddings, **self.tower}


def _bow_forward(emb_rows: np.ndarray, token_rows: np.ndarray, batch: Batch) -> np.ndarray:
    """Per-query mean of embedding rows, token t of the batch reading
    ``emb_rows[token_rows[t]]``, summed one token position at a time:
    position k adds the k-th token of every query that has one."""
    counts, offsets = batch.counts, batch.offsets
    sums = emb_rows[token_rows[offsets]]
    for k in range(1, int(counts.max())):
        longer = np.flatnonzero(counts > k)
        sums[longer] += emb_rows[token_rows[offsets[longer] + k]]
    return sums / counts[:, None]


def _safe_unit_rows(m: np.ndarray, what: str):
    """Row-normalize; rows with norm < NORM_FLOOR become zero (inv norm 0).

    Finite rows can still overflow the norm (entries near 1e200); that
    raises NonFiniteError(what) rather than zeroing the rows."""
    norms = np.linalg.norm(m, axis=1)
    _check_finite(what, norms)
    inv = np.where(norms < NORM_FLOOR, 0.0, 1.0 / np.maximum(norms, NORM_FLOOR))
    return m * inv[:, None], inv


def _forward(params: ModelParams, batch: Batch, logit_scale: float, buf: np.ndarray | None = None, keep_logits: bool = False):
    """Weighted per-example losses, a copy of the logits if ``keep_logits``,
    and the cache the backward pass reads.

    ``buf`` is the step's one B x B array (allocated if None): it receives
    the cosines, is scaled into the logits, shifted by the row max and
    exponentiated in place, and is left holding exp(logits - row max).
    """
    if batch.size == 0:
        raise ValueError("empty batch")
    table = params.embeddings
    touched, inverse = np.unique(batch.token_ids, return_inverse=True)
    if touched[0] < 0 or touched[-1] >= table.num_rows:
        raise ValueError("token id out of range")
    touched_rows = table.rows[table.slots(touched)]
    _check_finite("embedding rows", touched_rows)
    q_raw = _bow_forward(touched_rows, inverse, batch)
    del touched_rows
    i_raw, tower_cache = params.tower.forward(batch.images)
    _check_finite("image tower output", i_raw)
    q_hat, q_inv = _safe_unit_rows(q_raw, "query norm")
    i_hat, i_inv = _safe_unit_rows(i_raw, "image norm")
    z = np.matmul(q_hat, i_hat.T, out=buf)  # cosines
    z *= logit_scale
    logits = z.copy() if keep_logits else None
    # Stable per-row -log softmax at the diagonal.
    z -= z.max(axis=1, keepdims=True)
    shifted_diag = np.diagonal(z).copy()
    np.exp(z, out=z)
    exp_sums = z.sum(axis=1)
    weighted = batch.weights * (np.log(exp_sums) - shifted_diag)
    cache = (z, exp_sums, q_hat, q_inv, i_hat, i_inv, touched, inverse, tower_cache)
    return weighted, logits, cache


def batch_loss(params: ModelParams, batch: Batch, logit_scale: float) -> LossReport:
    """Mean weighted in-batch softmax cosine loss plus the full logit matrix."""
    weighted, logits, _ = _forward(params, batch, logit_scale, keep_logits=True)
    return LossReport(mean_weighted_loss=float(weighted.mean()), logits=logits, example_losses=weighted)


def batch_loss_bruteforce(params: ModelParams, batch: Batch, logit_scale: float) -> float:
    """Oracle re-computation: naive double loop in extended precision.

    Independent of the vectorized path: query means, tower forward, cosines,
    and the softmax denominator are all recomputed with plain loops and no
    stability tricks. Test-scale only (B <= 64).
    """
    if batch.size > BRUTEFORCE_MAX_BATCH:
        raise ValueError(f"brute-force oracle limited to B <= {BRUTEFORCE_MAX_BATCH}")
    ld = np.longdouble
    queries = []
    for ids in np.split(batch.token_ids, batch.offsets[1:]):
        total = np.zeros(params.emb_dim, dtype=ld)
        for row in params.embeddings.read(ids):
            total = total + row.astype(ld)
        queries.append(total / ld(len(ids)))
    images = []
    tower = params.tower
    if isinstance(tower, MlpImageTower):
        for f in batch.images:
            hidden = tower.V.astype(ld) @ f.astype(ld) + tower.b1.astype(ld)
            hidden = np.where(hidden > 0, hidden, ld(0.0))
            out = tower.U.astype(ld) @ hidden + tower.b2.astype(ld)
            images.append(np.where(out > 0, out, ld(0.0)))
    else:
        for i in batch.images:
            images.append(tower.vectors[int(i)].astype(ld))

    def cos(a, b):
        na = np.sqrt(np.dot(a, a))
        nb = np.sqrt(np.dot(b, b))
        if na < NORM_FLOOR or nb < NORM_FLOOR:
            return ld(0.0)
        return np.dot(a, b) / (na * nb)

    scale = ld(logit_scale)
    total = ld(0.0)
    for q in range(batch.size):
        denom = ld(0.0)
        for j in range(batch.size):
            denom = denom + np.exp(scale * cos(queries[q], images[j]))
        prob = np.exp(scale * cos(queries[q], images[q])) / denom
        total = total + ld(batch.weights[q]) * (-np.log(prob))
    return float(total / ld(batch.size))


def _loss_and_gradients(params: ModelParams, batch: Batch, logit_scale: float, buf: np.ndarray | None = None):
    """Gradients and the mean weighted loss; ``buf`` as in ``_forward``.
    Each (B, n) array is dropped once it has been read for the last time
    (see the module docstring)."""
    weighted, _, cache = _forward(params, batch, logit_scale, buf)
    (g, exp_sums, q_hat, q_inv, i_hat, i_inv, touched, inverse, tower_cache) = cache
    del cache
    b = batch.size
    # d(mean weighted loss)/d logits, then through logits = scale * cosines:
    # g = scale * w_q / B * (softmax row q - one-hot q), built in place.
    step = logit_scale * batch.weights / b
    g *= (step / exp_sums)[:, None]
    diag = np.arange(b)
    g[diag, diag] -= step
    # Cosine backward: d cos(a,b)/da = (b_hat - cos * a_hat) / |a|. The
    # cos-weighted row and column sums come from the matmul outputs:
    # sum_j g_qj cos_qj = q_hat_q . (g @ i_hat)_q, and likewise per column.
    # d_q = q_inv * (g @ i_hat - row_dot * q_hat) is formed in the matmul's
    # output, and q_hat, not read again, holds row_dot * q_hat; d_i likewise.
    d_q = g @ i_hat
    d_i = g.T @ q_hat
    row_dot = np.einsum("ij,ij->i", q_hat, d_q)
    col_dot = np.einsum("ij,ij->i", i_hat, d_i)
    q_hat *= row_dot[:, None]
    d_q -= q_hat
    d_q *= q_inv[:, None]
    i_hat *= col_dot[:, None]
    d_i -= i_hat
    d_i *= i_inv[:, None]
    del q_hat, i_hat
    tower = params.tower.backward(d_i, tower_cache)
    del d_i, tower_cache
    # Scatter query gradients onto the touched embedding rows (mean backward:
    # each token occurrence receives dQ_q / token_count), reading each
    # token's query row in place of a per-token copy.
    d_q /= batch.counts[:, None]
    query_of_token = np.repeat(np.arange(b), batch.counts)
    embeddings = RowGradient(rows=touched, values=_scatter_rows(inverse, d_q, touched.size, query_of_token))
    return Gradients(embeddings, tower), float(weighted.mean())


def batch_gradients(params: ModelParams, batch: Batch, logit_scale: float) -> Gradients:
    """Analytic gradient of the mean weighted batch loss for every parameter
    the batch touches; untouched rows are absent (exactly zero)."""
    grads, _ = _loss_and_gradients(params, batch, logit_scale)
    return grads


@dataclass
class OptimizerState:
    """Adagrad: the accumulated squared gradients of each parameter array,
    one array per name of ``ModelParams.arrays()``, in its order and with
    the parameter's shape. ``accum["embeddings"][k]`` belongs to
    ``params.embeddings.rows[k]``, the table's held row ``ids[k]``; a row the
    table does not hold has a zero accumulator and takes no update."""

    learning_rate: float
    accum: dict[str, np.ndarray] = field(repr=False)

    @classmethod
    def for_params(cls, params: ModelParams, learning_rate: float) -> "OptimizerState":
        """Zero accumulators for every array of ``params``."""
        # np.zeros, not np.zeros_like: a fresh zero page costs no memory until written.
        return cls(learning_rate, {name: np.zeros(theta.shape, theta.dtype) for name, theta in params.arrays().items()})

    @property
    def emb_accum(self) -> np.ndarray:
        """The embedding accumulators, one row per held table row."""
        return self.accum["embeddings"]

    @property
    def mlp_accum(self) -> MlpImageTower | None:
        """The MLP tower's accumulators (None for the lookup tower)."""
        return MlpImageTower.from_arrays(self.accum) if "V" in self.accum else None


def sgd_step(params: ModelParams, grads: Gradients, opt: OptimizerState) -> None:
    """Adagrad update in place: G += g^2, then theta -= lr * g / (sqrt(G) + ADAGRAD_EPSILON).

    A dense gradient updates every row; a row-sparse one only its rows, so
    rows with no gradient entry are untouched. An embedding row the table
    does not hold raises ValueError before anything is written, and a
    non-finite gradient or accumulator raises NonFiniteError before its
    array is written.
    """
    emb_slots = params.embeddings.slots(grads.embeddings.rows)
    thetas = params.arrays()
    for name, grad in grads.arrays().items():
        accum = opt.accum[name]
        if isinstance(grad, RowGradient):
            if grad.rows.size == 0:
                continue
            rows, g = (emb_slots if name == "embeddings" else grad.rows), grad.values
            new_accum = accum[rows]  # a gathered copy
        else:
            rows, g = slice(None), grad
            new_accum = accum.copy()
        # The update is computed in new_accum and one more buffer, with the
        # arithmetic of lr * g / (sqrt(accum + g * g) + eps).
        update = np.multiply(g, g)
        new_accum += update
        if not np.all(np.isfinite(new_accum)):  # g * g of a non-finite g is not finite
            _check_finite("gradient", g)
            raise NonFiniteError("Adagrad accumulator")
        accum[rows] = new_accum
        np.multiply(opt.learning_rate, g, out=update)
        np.sqrt(new_accum, out=new_accum)
        new_accum += ADAGRAD_EPSILON
        update /= new_accum
        thetas[name][rows] -= update


@dataclass
class TrainConfig:
    tower: str  # one of TOWER_KINDS
    emb_dim: int
    hidden_dim: int | None = None  # MLP hidden width m; the output width is emb_dim
    batch_size: int = 1000
    epochs: int = 5
    learning_rate: float = 0.5
    logit_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.tower not in TOWER_KINDS:
            raise ConfigError(f"tower must be one of {', '.join(map(repr, TOWER_KINDS))}, got {self.tower!r}")
        for f in fields(self):  # a checkpoint's JSON can hold 1.5 or true (not of type int) in any field
            value = getattr(self, f.name)
            if f.type.startswith("int") and value is not None and type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if self.emb_dim < 1:
            raise ConfigError("emb_dim must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2: a batch of one has a constant in-batch softmax")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0 < self.logit_scale < np.inf:
            raise ConfigError("logit_scale must be finite and positive")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and positive")
        if self.tower == "mlp" and (self.hidden_dim is None or self.hidden_dim < 1):
            raise ConfigError("mlp tower requires hidden_dim >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class TrainResult:
    params: ModelParams
    optimizer: OptimizerState
    epoch_losses: list[float]


def train(
    corpus: Batch,
    config: TrainConfig,
    *,
    num_embedding_rows: int,
    num_images: int | None = None,
) -> TrainResult:
    """Shuffled mini-batch training, deterministic given config.seed.

    ``corpus`` is the packed corpus, one Batch such as the
    ``PreparedCorpus.examples`` that ``imglex.data.prepare_corpus``
    returns, trained on as it is. Each epoch reshuffles with a seeded RNG
    and gathers batches of config.batch_size from it; the final partial
    batch is kept, but a single leftover example joins the batch before it
    (alone, its in-batch softmax is constant: zero loss and zero gradient).
    Returns the trained parameters (an embedding table of
    ``num_embedding_rows`` rows holding the corpus's distinct token ids), the
    optimizer and the per-epoch mean weighted loss. Memory follows the rows
    held, not ``num_embedding_rows``. A token id outside
    [0, num_embedding_rows) is a ValueError naming the smallest such id,
    raised before any row is drawn, and arrays too large to allocate (a
    huge emb_dim or hidden_dim) are a ConfigError. Raises TrainingDiverged,
    naming the epoch and batch (both from 0), when a touched parameter, the
    tower output, a gradient, an Adagrad accumulator or the batch loss goes
    non-finite.
    """
    config.validate()
    if corpus.size == 0:
        raise ValueError("no training examples (all queries empty?)")
    if corpus.size == 1:
        raise ValueError("a single training example has a constant in-batch softmax; need at least 2")
    # Checked before init_params, which would size a tower from the other kind of images.
    given = "lookup" if corpus.features is None else "mlp"
    if given != config.tower:
        raise ValueError(f"examples are for the {given} tower, config asks for {config.tower!r}")
    # The only embedding rows any step can read or give a gradient to.
    held = np.unique(corpus.token_ids)
    outside = held[(held < 0) | (held >= num_embedding_rows)]
    if outside.size:
        raise ValueError(f"token id {outside[0]} is outside the embedding table's rows [0, {num_embedding_rows})")
    # init_params reads only the arguments of config.tower; the image count
    # scans every image, so only the lookup tower pays for it.
    if config.tower == "lookup" and num_images is None:
        num_images = corpus.image_rows.max() + 1
    try:
        params = init_params(
            config.seed,
            num_rows=num_embedding_rows,
            emb_dim=config.emb_dim,
            tower=config.tower,
            feature_dim=None if corpus.features is None else corpus.features.shape[1],
            hidden_dim=config.hidden_dim,
            num_images=num_images,
            rows=held,
        )
    except (MemoryError, ValueError):  # with valid rows, ValueError is numpy's "array is too big"
        raise ConfigError(
            f"the model's float64 arrays cannot be allocated ({held.size} embedding rows, emb_dim {config.emb_dim}, "
            f"hidden_dim {config.hidden_dim})"
        ) from None
    opt = OptimizerState.for_params(params, config.learning_rate)
    n = corpus.size
    starts = list(range(0, n, config.batch_size))
    if n % config.batch_size == 1:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n]))
    largest = max(end - start for start, end in bounds)
    workspace = np.empty(largest * largest)  # the B x B buffer, reused by every step
    shuffle_rng = np.random.default_rng([config.seed, 1])
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for index, (start, end) in enumerate(bounds):
            batch = corpus.select(order[start:end])
            b = batch.size
            try:
                # Overflow is not warned about: the finiteness checks turn it
                # into TrainingDiverged.
                with np.errstate(over="ignore", invalid="ignore"):
                    grads, loss = _loss_and_gradients(params, batch, config.logit_scale, workspace[: b * b].reshape(b, b))
                    _check_finite("loss", loss)
                    sgd_step(params, grads, opt)
            except NonFiniteError as exc:
                raise TrainingDiverged(epoch, index, exc.what) from exc
            loss_sum += loss * b
        epoch_losses.append(loss_sum / n)
    return TrainResult(params=params, optimizer=opt, epoch_losses=epoch_losses)


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    num_checked: int


def grad_check(tower: str, seed: int) -> GradCheckReport:
    """Compare every analytic gradient entry against central finite differences
    on a seeded batch of 8 examples over a 14-row table.

    Relative error is |ga - gn| / max(1e-8, |ga| + |gn|). Parameter count
    must stay small (everything is perturbed twice).
    """
    num_rows, batch_size, emb_dim, hidden_dim, feature_dim, num_images = 14, 8, 6, 7, 5, 5
    logit_scale, step = 1.5, 1e-5
    params = init_params(
        seed,
        num_rows=num_rows,
        emb_dim=emb_dim,
        tower=tower,
        feature_dim=feature_dim,
        hidden_dim=hidden_dim,
        num_images=num_images,
    )
    rng = np.random.default_rng(seed)
    for theta in params.arrays().values():  # biases N(0, 0.3^2), matrices N(0, 0.6^2)
        theta[:] = rng.normal(0.0, 0.3 if theta.ndim == 1 else 0.6, size=theta.shape)
    if tower == "mlp":
        features, image_rows = rng.normal(0.0, 1.0, size=(batch_size, feature_dim)), np.arange(batch_size)
    else:
        features, image_rows = None, rng.integers(0, num_images, size=batch_size)
    queries = [rng.integers(0, num_rows, size=rng.integers(1, 5)) for _ in range(batch_size)]
    weights = rng.uniform(0.2, 2.0, size=batch_size)
    batch = Batch.pack(np.concatenate(queries), [ids.size for ids in queries], image_rows, weights, features)

    grads = batch_gradients(params, batch, logit_scale).arrays()
    max_rel = 0.0
    worst = ""
    for name, theta in params.arrays().items():
        ga = grads[name]
        if isinstance(ga, RowGradient):
            ga = ga.to_dense(theta.shape[0])
        flat_theta = theta.reshape(-1)
        flat_ga = ga.reshape(-1)
        for i in range(flat_theta.size):
            original = flat_theta[i]
            flat_theta[i] = original + step
            up = batch_loss(params, batch, logit_scale).mean_weighted_loss
            flat_theta[i] = original - step
            down = batch_loss(params, batch, logit_scale).mean_weighted_loss
            flat_theta[i] = original
            gn = (up - down) / (2.0 * step)
            rel = abs(flat_ga[i] - gn) / max(1e-8, abs(flat_ga[i]) + abs(gn))
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{i}]"
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst, num_checked=sum(theta.size for theta in params.arrays().values()))


def save_loss_curve(path: str | Path, epoch_losses: Sequence[float]) -> None:
    """Write the per-epoch loss curve as CSV: "epoch,mean_loss"."""
    lines = ["epoch,mean_loss"]
    lines += [f"{epoch},{loss!r}" for epoch, loss in enumerate(epoch_losses)]
    write_lines(path, lines)


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    opt: OptimizerState,
    config: TrainConfig,
    vocab_hash: str,
    epoch: int,
) -> None:
    """Single-file checkpoint: config, vocabulary hash, parameters, optimizer
    accumulators, epoch counter. The optimizer's rate is config.learning_rate.

    The tower's arrays are stored whole. Of the embedding table and its
    accumulator, the rows the table holds are stored, as they are, with
    their ids as ``embeddings_ids``; ``embeddings_num_rows`` is the table's
    row count. Nothing is drawn. A table that does not hold every row must
    draw its other rows from config.seed, or it is a ValueError.
    """
    table = params.embeddings
    if table.ids.size < table.num_rows and table.seed != config.seed:
        raise ValueError(f"the table's rows are drawn from seed {table.seed}, the config's seed is {config.seed}")
    meta = {"config": asdict(config), "vocab_hash": vocab_hash, "epoch": epoch}
    entries = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        "embeddings_ids": table.ids,
        "embeddings_num_rows": np.array(table.num_rows, dtype=np.int64),
        **params.tower.arrays(),
    }
    entries.update((f"{name}_accum", opt.accum[name]) for name in params.tower.arrays())
    # Last, as in earlier files, so a trained table's file is unchanged byte for byte.
    entries.update(embeddings=table.rows, embeddings_accum=opt.accum["embeddings"])
    # The archive np.savez writes, member for member, but each array's own
    # buffer is written into its member: np.savez copies it through tobytes.
    with atomic_write(path) as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
        for name, value in entries.items():
            # The header is taken from the C-ordered array, which the data follows.
            array = np.asarray(value, order="C")
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                # A 1-D byte view: Python 3.10's zipfile counts len(data), not bytes.
                member.write(array.reshape(-1).view(np.uint8))


@dataclass
class Checkpoint:
    params: ModelParams
    optimizer: OptimizerState
    config: TrainConfig
    vocab_hash: str
    epoch: int


def _checkpoint_meta(path: str | Path, raw: np.ndarray | bytes) -> dict:
    """The ``meta`` entry as a JSON object; anything else is a DataError.

    ``raw`` is bytes when the archive member is not an ``.npy`` file. An
    array goes through ``tobytes``: ``bytes()`` would read a 0-d integer
    array as a length.
    """
    data = raw.tobytes() if isinstance(raw, np.ndarray) else raw
    try:
        meta = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: checkpoint 'meta' entry is not UTF-8 JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint 'meta' entry is not a JSON object")
    return meta


def _meta_field(path: str | Path, meta: dict, name: str):
    try:
        return meta[name]
    except KeyError:
        raise DataError(f"{path}: checkpoint meta has no {name!r} field") from None


def _checkpoint_config(path: str | Path, meta: dict, tower: str) -> TrainConfig:
    """``meta.config`` as a valid TrainConfig for a model with ``tower``."""
    raw = _meta_field(path, meta, "config")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: checkpoint meta 'config' is not a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise DataError(f"{path}: checkpoint meta 'config' has unknown field {unknown[0]!r}")
    missing = [f.name for f in fields(TrainConfig) if f.default is MISSING and f.name not in raw]
    if missing:
        raise DataError(f"{path}: checkpoint meta 'config' has no {missing[0]!r} field")
    config = TrainConfig(**raw)
    try:
        config.validate()
    except (ConfigError, TypeError) as exc:  # TypeError: a value of the wrong JSON type
        raise DataError(f"{path}: checkpoint meta 'config' is invalid: {exc}") from None
    if config.tower != tower:
        raise DataError(f"{path}: checkpoint meta 'config.tower' is {config.tower!r}, but the arrays hold a {tower} tower")
    return config


def _check_checkpoint_arrays(path: str | Path, arrays: dict[str, np.ndarray], names: list[str], config: TrainConfig) -> None:
    """DataError naming the entry unless each array has the dtype and shape
    save_checkpoint writes for ``config``, and the stored embedding rows'
    ids and the table's row count fit each other."""
    n, h = config.emb_dim, config.hidden_dim
    # None marks a size the config does not fix.
    shapes = {"embeddings": (None, n), "V": (h, None), "b1": (h,), "U": (n, h), "b2": (n,), "image_vectors": (None, n)}
    for name in names:
        accum = f"{name}_accum"
        for entry in (name, accum):
            if arrays[entry].dtype != np.float64:
                raise DataError(f"{path}: checkpoint entry {entry!r} is {arrays[entry].dtype}, not float64")
        shape, want = arrays[name].shape, shapes[name]
        if len(shape) != len(want) or any(w not in (None, s) for s, w in zip(shape, want)):
            expected = str(tuple("?" if w is None else w for w in want)).replace("'", "")
            raise DataError(f"{path}: checkpoint entry {name!r} has shape {shape}, but the config needs {expected}")
        if arrays[accum].shape != shape:
            raise DataError(f"{path}: checkpoint entry {accum!r} has shape {arrays[accum].shape}, but {name!r} has {shape}")
    ids, num_rows = arrays["embeddings_ids"], arrays["embeddings_num_rows"]
    if num_rows.shape != () or num_rows.dtype.kind not in "iu" or num_rows < 0:
        raise DataError(f"{path}: checkpoint entry 'embeddings_num_rows' is not a non-negative integer scalar")
    if num_rows > MAX_EMBEDDING_ROWS:
        raise DataError(f"{path}: checkpoint entry 'embeddings_num_rows' is {num_rows}, past the int64 limit of 2**63 - 1 embedding rows")
    if ids.dtype != np.int64:
        raise DataError(f"{path}: checkpoint entry 'embeddings_ids' is {ids.dtype}, not int64")
    stored = arrays["embeddings"].shape[0]
    if ids.shape != (stored,):
        raise DataError(f"{path}: checkpoint entry 'embeddings_ids' has shape {ids.shape}, but 'embeddings' stores {stored} rows")
    if np.any(ids[1:] <= ids[:-1]):
        raise DataError(f"{path}: checkpoint entry 'embeddings_ids' is not strictly ascending")
    if stored and (ids[0] < 0 or ids[-1] >= num_rows):
        raise DataError(f"{path}: checkpoint entry 'embeddings_ids' holds an id outside [0, {num_rows})")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.

    The embedding table holds the stored rows only, so memory follows them,
    not ``embeddings_num_rows``: any other row keeps its initial value, drawn
    from config.seed when read (``EmbeddingTable.read``), and the embedding
    accumulator lines up row for row with the stored rows. A file that
    stores fewer rows than its table held (earlier files left out the rows
    training had not changed) loads the same way. The tower is the stored
    one.
    A missing or unreadable file, a file that is not an ``.npz`` archive, an
    archive without an entry save_checkpoint writes, a ``meta`` entry that
    is not the JSON object save_checkpoint writes (a string ``vocab_hash``,
    an integer ``epoch`` >= 0 and a ``config`` that TrainConfig.validate
    accepts and whose tower matches the arrays), an
    array whose dtype or shape save_checkpoint would not write for that
    config and a table row count past MAX_EMBEDDING_ROWS each raise DataError
    naming the file and the entry or field. Other ``meta`` keys are ignored.
    The optimizer's rate is ``config.learning_rate``.
    """
    try:
        fh = open(path, "rb")  # opened here: np.load leaks the handle of a bad zip
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    with fh:
        try:
            archive = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile):
            archive = None  # np.load's own message speaks of pickled data
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DataError(f"{path}: not a checkpoint: not an .npz archive")
        arrays = {}
        with archive:
            for name in archive.files:
                try:
                    arrays[name] = archive[name]
                except ValueError as exc:  # e.g. an object array, which would need pickle
                    raise DataError(f"{path}: checkpoint entry {name!r} cannot be read: {exc}") from None
    tower_class = MlpImageTower if "V" in arrays else LookupImageTower
    try:
        raw_meta = arrays.pop("meta")
        rows, tower = arrays["embeddings"], tower_class.from_arrays(arrays)
        accums = {name: arrays[f"{name}_accum"] for name in ["embeddings", *tower.arrays()]}
        ids, num_rows = arrays["embeddings_ids"], arrays["embeddings_num_rows"]
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no {exc.args[0]!r} entry") from None
    meta = _checkpoint_meta(path, raw_meta)
    config = _checkpoint_config(path, meta, "mlp" if tower_class is MlpImageTower else "lookup")
    _check_checkpoint_arrays(path, arrays, list(accums), config)
    vocab_hash, epoch = _meta_field(path, meta, "vocab_hash"), _meta_field(path, meta, "epoch")
    if not isinstance(vocab_hash, str):
        raise DataError(f"{path}: checkpoint meta 'vocab_hash' must be a string, got {vocab_hash!r}")
    if type(epoch) is not int or epoch < 0:
        raise DataError(f"{path}: checkpoint meta 'epoch' must be an integer >= 0, got {epoch!r}")
    table = EmbeddingTable(rows=rows, ids=ids, num_rows=int(num_rows), seed=config.seed)
    return Checkpoint(
        params=ModelParams(embeddings=table, tower=tower),
        optimizer=OptimizerState(config.learning_rate, accums),
        config=config,
        vocab_hash=vocab_hash,
        epoch=epoch,
    )
