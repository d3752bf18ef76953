"""In-batch softmax cosine loss, hand-derived gradients, Adagrad, train loop.

For a batch of B (query, image, weight) examples the logit matrix is
Z[q][j] = scale * cosine(Q_q, I_j) over every query/image pair in the batch,
so each query's softmax denominator ranges only over in-batch images. The
per-example loss -log softmax(Z[q])[q] is multiplied by the example weight
and the batch loss is the mean of the B weighted losses.

The backward pass is derived by hand (no autograd): gradients flow through
both the query and image side of every logit, including the off-diagonal
(negative) pairs. Embedding rows and lookup-image rows receive row-sparse
gradients; a row absent from the batch is exactly untouched.

``train`` packs the corpus into one Batch (flat token ids with per-query
counts and offsets) and gathers every mini-batch from it by index. A step's
forward and backward share one B x B float64 buffer: it holds the cosines,
then the logits, then their shifted exponentials, then the logit gradient.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from imglex.errors import ConfigError, DataError, TrainingDiverged
from imglex.fileio import atomic_write, write_lines
from imglex.model import (
    NORM_FLOOR,
    LookupImageTower,
    MlpImageTower,
    ModelParams,
    init_params,
)

BRUTEFORCE_MAX_BATCH = 64


@dataclass
class TrainExample:
    """One prepared training example.

    ``image`` is a d-vector of image features (MLP tower) or a dense image
    index (lookup tower).
    """

    token_ids: np.ndarray
    image: np.ndarray | int
    weight: float = 1.0


@dataclass
class Batch:
    """Examples in array form: the queries' token ids concatenated, with
    per-query counts and offsets, plus the images and the weights.

    ``from_examples`` builds and validates a batch once; ``select`` gathers a
    sub-batch by example index, so ``train`` packs the whole corpus once and
    each step is an index gather.
    """

    token_ids: np.ndarray  # (T,) int64; query q is token_ids[offsets[q] : offsets[q] + counts[q]]
    counts: np.ndarray  # (B,) int64, each >= 1
    offsets: np.ndarray  # (B,) int64
    images: np.ndarray  # (B, d) features for "mlp", (B,) int ids for "lookup"
    weights: np.ndarray  # (B,) non-negative

    @property
    def size(self) -> int:
        return self.counts.size

    @property
    def tower_kind(self) -> str:
        return "mlp" if self.images.ndim == 2 else "lookup"

    @classmethod
    def from_examples(cls, examples: Sequence[TrainExample]) -> "Batch":
        if len(examples) == 0:
            raise ValueError("empty batch")
        queries = [np.asarray(ex.token_ids, dtype=np.int64) for ex in examples]
        counts = np.array([ids.size for ids in queries], dtype=np.int64)
        if counts.min() == 0:
            raise ValueError("empty query in batch")
        kinds = {np.ndim(ex.image) for ex in examples}  # 0: image id, 1: feature vector
        if len(kinds) != 1:
            raise ValueError("mixed tower kinds in one batch")
        if kinds == {0}:
            images = np.array([int(ex.image) for ex in examples], dtype=np.int64)
        else:
            images = np.stack([np.asarray(ex.image, dtype=np.float64) for ex in examples])
        weights = np.array([ex.weight for ex in examples], dtype=np.float64)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and non-negative")
        return cls(np.concatenate(queries), counts, _starts(counts), images, weights)

    def select(self, index: np.ndarray) -> "Batch":
        """The examples at ``index``, in that order, as a new batch."""
        counts = self.counts[index]
        offsets = _starts(counts)
        # Token t of gathered query q sits at t + (old start - new start of q).
        positions = np.repeat(self.offsets[index] - offsets, counts)
        positions += np.arange(positions.size)
        return Batch(self.token_ids[positions], counts, offsets, self.images[index], self.weights[index])


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
class RowGradient:
    """Row-sparse gradient for an embedding-like table."""

    rows: np.ndarray  # (R,) unique ids, ascending
    values: np.ndarray  # (R, dim)

    def to_dense(self, num_rows: int) -> np.ndarray:
        dense = np.zeros((num_rows, self.values.shape[1]))
        dense[self.rows] = self.values
        return dense


@dataclass
class Gradients:
    embeddings: RowGradient
    mlp: MlpImageTower | None = None  # the gradient of each MLP weight and bias
    images: RowGradient | None = None

    def arrays(self) -> dict[str, RowGradient | np.ndarray]:
        """The gradient of each array the batch touched, under its
        ``ModelParams.arrays`` name: row-sparse for ``embeddings`` and
        ``image_vectors``, dense for the MLP arrays."""
        named: dict[str, RowGradient | np.ndarray] = {"embeddings": self.embeddings}
        if self.mlp is not None:
            named.update(self.mlp.arrays())
        if self.images is not None:
            named["image_vectors"] = self.images
        return named


class NonFiniteError(ValueError):
    """A touched parameter, the tower output or a gradient is NaN or infinite."""

    def __init__(self, what: str):
        super().__init__(f"non-finite {what}")
        self.what = what


def _bow_forward(emb_rows: np.ndarray, batch: Batch) -> np.ndarray:
    """Per-query mean of embedding rows, summed one token position at a time:
    position k adds the k-th token of every query that has one."""
    ids, counts, offsets = batch.token_ids, batch.counts, batch.offsets
    sums = emb_rows[ids[offsets]]
    for k in range(1, int(counts.max())):
        longer = np.flatnonzero(counts > k)
        sums[longer] += emb_rows[ids[offsets[longer] + k]]
    return sums / counts[:, None]


def _tower_forward(params: ModelParams, batch: Batch):
    """Image representations (B, n) plus caches for the backward pass."""
    tower = params.tower
    if batch.tower_kind == "mlp":
        if not isinstance(tower, MlpImageTower):
            raise ValueError("batch carries features but tower is lookup")
        feats = batch.images
        if feats.shape[1] != tower.feature_dim:
            raise ValueError(f"feature dim {feats.shape[1]} != tower dim {tower.feature_dim}")
        pre_hidden = feats @ tower.V.T + tower.b1
        hidden = np.maximum(pre_hidden, 0.0)
        pre_out = hidden @ tower.U.T + tower.b2
        return np.maximum(pre_out, 0.0), (feats, pre_hidden, hidden, pre_out)
    if not isinstance(tower, LookupImageTower):
        raise ValueError("batch carries image ids but tower is mlp")
    ids = batch.images
    if ids.min() < 0 or ids.max() >= tower.num_images:
        raise ValueError("image id out of range")
    return tower.vectors[ids], (ids,)


def _safe_unit_rows(m: np.ndarray, what: str):
    """Row-normalize; rows with norm < NORM_FLOOR become zero (inv norm 0).

    Finite rows can still overflow the norm (entries near 1e200); that
    raises NonFiniteError(what) rather than zeroing the rows."""
    norms = np.linalg.norm(m, axis=1)
    _check_finite(what, norms)
    inv = np.where(norms < NORM_FLOOR, 0.0, 1.0 / np.maximum(norms, NORM_FLOOR))
    return m * inv[:, None], inv


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(what)


def _forward(params: ModelParams, batch: Batch, logit_scale: float, buf: np.ndarray | None = None, keep_logits: bool = False):
    """Weighted per-example losses, a copy of the logits if ``keep_logits``,
    and the cache the backward pass reads.

    ``buf`` is the step's one B x B array (allocated if None): it receives
    the cosines, is scaled into the logits, shifted by the row max and
    exponentiated in place, and is left holding exp(logits - row max).
    """
    if batch.size == 0:
        raise ValueError("empty batch")
    emb = params.embeddings.rows
    touched, inverse = np.unique(batch.token_ids, return_inverse=True)
    if touched[0] < 0 or touched[-1] >= emb.shape[0]:
        raise ValueError("token id out of range")
    _check_finite("embedding rows", emb[touched])
    if isinstance(params.tower, MlpImageTower):
        t = params.tower
        _check_finite("image tower parameters", t.V, t.b1, t.U, t.b2)
    q_raw = _bow_forward(emb, batch)
    i_raw, tower_cache = _tower_forward(params, batch)
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


def batch_loss(params: ModelParams, batch: Batch, logit_scale: float = 1.0) -> LossReport:
    """Mean weighted in-batch softmax cosine loss plus the full logit matrix."""
    weighted, logits, _ = _forward(params, batch, logit_scale, keep_logits=True)
    return LossReport(mean_weighted_loss=float(weighted.mean()), logits=logits, example_losses=weighted)


def batch_loss_bruteforce(params: ModelParams, batch: Batch, logit_scale: float = 1.0) -> float:
    """Oracle re-computation: naive double loop in extended precision.

    Independent of the vectorized path: query means, tower forward, cosines,
    and the softmax denominator are all recomputed with plain loops and no
    stability tricks. Test-scale only (B <= 64).
    """
    if batch.size > BRUTEFORCE_MAX_BATCH:
        raise ValueError(f"brute-force oracle limited to B <= {BRUTEFORCE_MAX_BATCH}")
    ld = np.longdouble
    emb = params.embeddings.rows
    queries = []
    for ids in np.split(batch.token_ids, batch.offsets[1:]):
        total = np.zeros(emb.shape[1], dtype=ld)
        for i in ids:
            total = total + emb[int(i)].astype(ld)
        queries.append(total / ld(len(ids)))
    images = []
    if batch.tower_kind == "mlp":
        tower = params.tower
        assert isinstance(tower, MlpImageTower)
        for f in batch.images:
            hidden = tower.V.astype(ld) @ f.astype(ld) + tower.b1.astype(ld)
            hidden = np.where(hidden > 0, hidden, ld(0.0))
            out = tower.U.astype(ld) @ hidden + tower.b2.astype(ld)
            images.append(np.where(out > 0, out, ld(0.0)))
    else:
        tower = params.tower
        assert isinstance(tower, LookupImageTower)
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


def _scatter_rows(inverse: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Row sums of ``values`` grouped by ``inverse``: one bincount per column,
    each adding the rows in order."""
    out = np.empty((num_rows, values.shape[1]))
    for k, column in enumerate(np.ascontiguousarray(values.T)):
        out[:, k] = np.bincount(inverse, weights=column, minlength=num_rows)
    return out


def _loss_and_gradients(params: ModelParams, batch: Batch, logit_scale: float, buf: np.ndarray | None = None):
    """Gradients and the mean weighted loss; ``buf`` as in ``_forward``."""
    weighted, _, cache = _forward(params, batch, logit_scale, buf)
    (g, exp_sums, q_hat, q_inv, i_hat, i_inv, touched, inverse, tower_cache) = cache
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
    g_i = g @ i_hat
    g_q = g.T @ q_hat
    row_dot = np.einsum("ij,ij->i", q_hat, g_i)
    col_dot = np.einsum("ij,ij->i", i_hat, g_q)
    d_q = q_inv[:, None] * (g_i - row_dot[:, None] * q_hat)
    d_i = i_inv[:, None] * (g_q - col_dot[:, None] * i_hat)
    # Scatter query gradients onto the touched embedding rows (mean backward:
    # each token occurrence receives dQ_q / token_count).
    per_query = d_q / batch.counts[:, None]
    per_token = per_query[np.repeat(np.arange(b), batch.counts)]
    grads = Gradients(embeddings=RowGradient(rows=touched, values=_scatter_rows(inverse, per_token, touched.size)))

    if batch.tower_kind == "mlp":
        feats, pre_hidden, hidden, pre_out = tower_cache
        tower = params.tower
        assert isinstance(tower, MlpImageTower)
        d_pre_out = d_i * (pre_out > 0)  # ReLU subgradient at 0 is 0
        d_hidden = d_pre_out @ tower.U
        d_pre_hidden = d_hidden * (pre_hidden > 0)
        grads.mlp = MlpImageTower(
            V=d_pre_hidden.T @ feats,
            b1=d_pre_hidden.sum(axis=0),
            U=d_pre_out.T @ hidden,
            b2=d_pre_out.sum(axis=0),
        )
    else:
        (ids,) = tower_cache
        img_rows, img_inverse = np.unique(ids, return_inverse=True)
        grads.images = RowGradient(rows=img_rows, values=_scatter_rows(img_inverse, d_i, img_rows.size))
    return grads, float(weighted.mean())


def batch_gradients(params: ModelParams, batch: Batch, logit_scale: float = 1.0) -> Gradients:
    """Analytic gradient of the mean weighted batch loss for every parameter
    the batch touches; untouched rows are absent (exactly zero)."""
    grads, _ = _loss_and_gradients(params, batch, logit_scale)
    return grads


@dataclass
class OptimizerState:
    """Adagrad: per-parameter accumulated squared gradients, held in a
    ModelParams of the same shapes (``accum.arrays()`` names them)."""

    learning_rate: float
    epsilon: float
    accum: ModelParams = field(repr=False)

    @classmethod
    def for_params(cls, params: ModelParams, learning_rate: float, epsilon: float = 1e-8) -> "OptimizerState":
        # np.zeros maps untouched pages lazily; zeros_like would write every page of the table.
        zeros = {name: np.zeros(theta.shape, theta.dtype) for name, theta in params.arrays().items()}
        return cls(learning_rate, epsilon, ModelParams.from_arrays(zeros))

    @property
    def emb_accum(self) -> np.ndarray:
        return self.accum.embeddings.rows

    @property
    def mlp_accum(self) -> MlpImageTower | None:
        """The MLP tower's accumulators (None for the lookup tower)."""
        tower = self.accum.tower
        return tower if isinstance(tower, MlpImageTower) else None


def sgd_step(params: ModelParams, grads: Gradients, opt: OptimizerState) -> None:
    """Adagrad update in place: G += g^2, then theta -= lr * g / (sqrt(G) + eps).

    A dense gradient updates every row; a row-sparse one only its rows, so
    rows with no gradient entry are untouched.
    """
    thetas, accums = params.arrays(), opt.accum.arrays()
    for name, grad in grads.arrays().items():
        if isinstance(grad, RowGradient):
            if grad.rows.size == 0:
                continue
            rows, g = grad.rows, grad.values
        else:
            rows, g = slice(None), grad
        _check_finite("gradient", g)
        accum = accums[name]
        new_accum = accum[rows] + g * g
        accum[rows] = new_accum
        thetas[name][rows] -= opt.learning_rate * g / (np.sqrt(new_accum) + opt.epsilon)


@dataclass
class TrainConfig:
    tower: str  # "mlp" | "lookup"
    emb_dim: int
    hidden_dim: int | None = None  # MLP hidden width m
    out_dim: int | None = None  # MLP output width n; must equal emb_dim
    batch_size: int = 1000
    epochs: int = 5
    learning_rate: float = 0.5
    logit_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.tower not in ("mlp", "lookup"):
            raise ConfigError(f"tower must be 'mlp' or 'lookup', got {self.tower!r}")
        if self.emb_dim < 1:
            raise ConfigError("emb_dim must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2: a batch of one has a constant in-batch softmax")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.logit_scale <= 0:
            raise ConfigError("logit_scale must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.tower == "mlp":
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ConfigError("mlp tower requires hidden_dim >= 1")
            out = self.out_dim if self.out_dim is not None else self.emb_dim
            if out != self.emb_dim:
                raise ConfigError(
                    f"mlp output width ({out}) must equal emb_dim ({self.emb_dim}): "
                    "cosine requires equal dimensionality"
                )


@dataclass
class TrainResult:
    params: ModelParams
    optimizer: OptimizerState
    epoch_losses: list[float]


def train(
    examples: Sequence[TrainExample],
    config: TrainConfig,
    *,
    num_embedding_rows: int,
    num_images: int | None = None,
) -> TrainResult:
    """Shuffled mini-batch training, deterministic given config.seed.

    The examples are packed into one Batch up front. Each epoch reshuffles
    with a seeded RNG and gathers batches of config.batch_size from it; the
    final partial batch is kept, but a single leftover example joins the
    batch before it (alone, its in-batch softmax is constant: zero loss and
    zero gradient). Returns the trained parameters and the per-epoch mean
    weighted loss. Raises TrainingDiverged, naming the epoch and batch
    (both from 0), when a touched parameter, the tower output or a gradient
    goes non-finite.
    """
    config.validate()
    examples = list(examples)
    if not examples:
        raise ValueError("no training examples (all queries empty?)")
    if len(examples) == 1:
        raise ValueError("a single training example has a constant in-batch softmax; need at least 2")
    corpus = Batch.from_examples(examples)
    if corpus.tower_kind != config.tower:
        raise ValueError(f"examples are for the {corpus.tower_kind} tower, config asks for {config.tower!r}")
    if config.tower == "mlp":
        params = init_params(
            config.seed,
            num_rows=num_embedding_rows,
            emb_dim=config.emb_dim,
            tower="mlp",
            feature_dim=corpus.images.shape[1],
            hidden_dim=config.hidden_dim,
        )
    else:
        if num_images is None:
            num_images = int(corpus.images.max()) + 1
        params = init_params(
            config.seed,
            num_rows=num_embedding_rows,
            emb_dim=config.emb_dim,
            tower="lookup",
            num_images=num_images,
        )
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


def grad_check(
    tower: str = "mlp",
    seed: int = 0,
    *,
    emb_dim: int = 6,
    hidden_dim: int = 7,
    feature_dim: int = 5,
    num_rows: int = 14,
    num_images: int = 5,
    batch_size: int = 8,
    logit_scale: float = 1.5,
    step: float = 1e-5,
    corrupt: float = 0.0,
) -> GradCheckReport:
    """Compare every analytic gradient entry against central finite differences.

    Relative error is |ga - gn| / max(1e-8, |ga| + |gn|). ``corrupt`` is a
    test hook that offsets one analytic entry so the negative control fails.
    Parameter count must stay small (everything is perturbed twice).
    """
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
        images: np.ndarray = rng.normal(0.0, 1.0, size=(batch_size, feature_dim))
    else:
        images = rng.integers(0, num_images, size=batch_size)
    token_ids = [rng.integers(0, num_rows, size=rng.integers(1, 5)) for _ in range(batch_size)]
    examples = [
        TrainExample(token_ids=token_ids[i], image=images[i], weight=float(rng.uniform(0.2, 2.0)))
        for i in range(batch_size)
    ]
    batch = Batch.from_examples(examples)

    grads = batch_gradients(params, batch, logit_scale).arrays()
    max_rel = 0.0
    worst = ""
    checked = 0
    for name, theta in params.arrays().items():
        ga = grads[name]
        if isinstance(ga, RowGradient):
            ga = ga.to_dense(theta.shape[0])
        if name == "embeddings":
            ga.flat[0] += corrupt
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
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{i}]"
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst, num_checked=checked)


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
    state, epoch counter."""
    arrays = params.arrays()
    arrays.update((f"{name}_accum", accum) for name, accum in opt.accum.arrays().items())
    meta = {
        "config": asdict(config),
        "vocab_hash": vocab_hash,
        "epoch": epoch,
        "learning_rate": opt.learning_rate,
        "epsilon": opt.epsilon,
    }
    with atomic_write(path) as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


@dataclass
class Checkpoint:
    params: ModelParams
    optimizer: OptimizerState
    config: TrainConfig
    vocab_hash: str
    epoch: int


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.

    A missing or unreadable file, a file that is not an ``.npz`` archive and
    an archive without an entry save_checkpoint writes each raise DataError
    naming the file.
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
        with archive:
            arrays = {name: archive[name] for name in archive.files}
    try:
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
        params = ModelParams.from_arrays(arrays)
        accum = ModelParams.from_arrays({name: arrays[f"{name}_accum"] for name in params.arrays()})
        return Checkpoint(
            params=params,
            optimizer=OptimizerState(meta["learning_rate"], meta["epsilon"], accum),
            config=TrainConfig(**meta["config"]),
            vocab_hash=meta["vocab_hash"],
            epoch=meta["epoch"],
        )
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no {exc.args[0]!r} entry") from None
