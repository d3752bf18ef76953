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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from imglex.errors import ConfigError
from imglex.fileio import atomic_write, write_lines
from imglex.model import (
    NORM_FLOOR,
    EmbeddingTable,
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
    """Examples grouped for the in-batch loss, in array form."""

    token_ids: list[np.ndarray]  # B arrays of int64, each non-empty
    images: np.ndarray  # (B, d) features for "mlp", (B,) int ids for "lookup"
    weights: np.ndarray  # (B,) non-negative
    tower_kind: str

    @property
    def size(self) -> int:
        return len(self.token_ids)

    @classmethod
    def from_examples(cls, examples: Sequence[TrainExample]) -> "Batch":
        if len(examples) == 0:
            raise ValueError("empty batch")
        first = examples[0].image
        kind = "lookup" if np.isscalar(first) or np.ndim(first) == 0 else "mlp"
        token_ids = []
        for ex in examples:
            ids = np.asarray(ex.token_ids, dtype=np.int64)
            if ids.size == 0:
                raise ValueError("empty query in batch")
            token_ids.append(ids)
            this_kind = "lookup" if np.isscalar(ex.image) or np.ndim(ex.image) == 0 else "mlp"
            if this_kind != kind:
                raise ValueError("mixed tower kinds in one batch")
        if kind == "mlp":
            images = np.stack([np.asarray(ex.image, dtype=np.float64) for ex in examples])
        else:
            images = np.asarray([int(ex.image) for ex in examples], dtype=np.int64)
        weights = np.asarray([ex.weight for ex in examples], dtype=np.float64)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and non-negative")
        return cls(token_ids=token_ids, images=images, weights=weights, tower_kind=kind)


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
class MlpGradient:
    V: np.ndarray
    b1: np.ndarray
    U: np.ndarray
    b2: np.ndarray


@dataclass
class Gradients:
    embeddings: RowGradient
    mlp: MlpGradient | None = None
    images: RowGradient | None = None


def softmax_nll_row(logits_row: np.ndarray, true_index: int) -> float:
    """-log softmax(row)[true_index], computed with max-subtraction."""
    z = np.asarray(logits_row, dtype=np.float64)
    m = z.max()
    return float(np.log(np.sum(np.exp(z - m))) - (z[true_index] - m))


def _bow_forward(emb_rows: np.ndarray, token_ids: list[np.ndarray]):
    """Per-example mean of embedding rows, plus the pieces backprop needs."""
    counts = np.array([ids.size for ids in token_ids], dtype=np.int64)
    concat = np.concatenate(token_ids)
    if concat.min() < 0 or concat.max() >= emb_rows.shape[0]:
        raise ValueError("token id out of range")
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    sums = np.add.reduceat(emb_rows[concat], offsets, axis=0)
    return sums / counts[:, None], concat, counts


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


def _safe_unit_rows(m: np.ndarray):
    """Row-normalize; rows with norm < NORM_FLOOR become zero (inv norm 0)."""
    norms = np.linalg.norm(m, axis=1)
    inv = np.where(norms < NORM_FLOOR, 0.0, 1.0 / np.maximum(norms, NORM_FLOOR))
    return m * inv[:, None], inv


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite parameter")


def _forward(params: ModelParams, batch: Batch, logit_scale: float):
    if batch.size == 0:
        raise ValueError("empty batch")
    q_raw, concat, counts = _bow_forward(params.embeddings.rows, batch.token_ids)
    i_raw, tower_cache = _tower_forward(params, batch)
    _check_finite(params.embeddings.rows[np.unique(concat)], i_raw)
    if isinstance(params.tower, MlpImageTower):
        _check_finite(params.tower.V, params.tower.b1, params.tower.U, params.tower.b2)
    q_hat, q_inv = _safe_unit_rows(q_raw)
    i_hat, i_inv = _safe_unit_rows(i_raw)
    cosines = q_hat @ i_hat.T
    logits = logit_scale * cosines
    # Stable per-row -log softmax at the diagonal.
    m = logits.max(axis=1)
    shifted = logits - m[:, None]
    lse = np.log(np.exp(shifted).sum(axis=1))
    raw_losses = lse - np.diagonal(shifted)
    weighted = batch.weights * raw_losses
    report = LossReport(
        mean_weighted_loss=float(weighted.mean()),
        logits=logits,
        example_losses=weighted,
    )
    cache = (q_raw, q_hat, q_inv, i_hat, i_inv, cosines, shifted, lse, concat, counts, tower_cache)
    return report, cache


def batch_loss(params: ModelParams, batch: Batch, logit_scale: float = 1.0) -> LossReport:
    """Mean weighted in-batch softmax cosine loss plus the full logit matrix."""
    report, _ = _forward(params, batch, logit_scale)
    return report


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
    for ids in batch.token_ids:
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


def _loss_and_gradients(params: ModelParams, batch: Batch, logit_scale: float):
    report, cache = _forward(params, batch, logit_scale)
    (q_raw, q_hat, q_inv, i_hat, i_inv, cosines, shifted, lse, concat, counts, tower_cache) = cache
    b = batch.size
    probs = np.exp(shifted - lse[:, None])
    # d(mean weighted loss)/d logits, then through logits = scale * cosines.
    g = probs * (batch.weights / b)[:, None]
    g[np.arange(b), np.arange(b)] -= batch.weights / b
    g *= logit_scale
    # Cosine backward: d cos(a,b)/da = (b_hat - cos * a_hat) / |a|.
    row_dot = (g * cosines).sum(axis=1)
    col_dot = (g * cosines).sum(axis=0)
    d_q = q_inv[:, None] * (g @ i_hat - row_dot[:, None] * q_hat)
    d_i = i_inv[:, None] * (g.T @ q_hat - col_dot[:, None] * i_hat)
    # Scatter query gradients onto the touched embedding rows (mean backward:
    # each token occurrence receives dQ_q / token_count).
    seg = np.repeat(np.arange(b), counts)
    per_token = d_q[seg] / counts[seg][:, None]
    emb_rows, inverse = np.unique(concat, return_inverse=True)
    emb_values = np.zeros((emb_rows.size, d_q.shape[1]))
    np.add.at(emb_values, inverse, per_token)
    grads = Gradients(embeddings=RowGradient(rows=emb_rows, values=emb_values))

    if batch.tower_kind == "mlp":
        feats, pre_hidden, hidden, pre_out = tower_cache
        tower = params.tower
        assert isinstance(tower, MlpImageTower)
        d_pre_out = d_i * (pre_out > 0)  # ReLU subgradient at 0 is 0
        d_hidden = d_pre_out @ tower.U
        d_pre_hidden = d_hidden * (pre_hidden > 0)
        grads.mlp = MlpGradient(
            V=d_pre_hidden.T @ feats,
            b1=d_pre_hidden.sum(axis=0),
            U=d_pre_out.T @ hidden,
            b2=d_pre_out.sum(axis=0),
        )
    else:
        (ids,) = tower_cache
        img_rows, img_inverse = np.unique(ids, return_inverse=True)
        img_values = np.zeros((img_rows.size, d_i.shape[1]))
        np.add.at(img_values, img_inverse, d_i)
        grads.images = RowGradient(rows=img_rows, values=img_values)
    return grads, report


def batch_gradients(params: ModelParams, batch: Batch, logit_scale: float = 1.0) -> Gradients:
    """Analytic gradient of the mean weighted batch loss for every parameter
    the batch touches; untouched rows are absent (exactly zero)."""
    grads, _ = _loss_and_gradients(params, batch, logit_scale)
    return grads


@dataclass
class OptimizerState:
    """Adagrad: per-parameter accumulated squared gradients."""

    learning_rate: float
    epsilon: float = 1e-8
    emb_accum: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    mlp_accum: MlpGradient | None = field(default=None, repr=False)
    image_accum: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params: ModelParams, learning_rate: float, epsilon: float = 1e-8) -> "OptimizerState":
        state = cls(learning_rate=learning_rate, epsilon=epsilon)
        state.emb_accum = np.zeros_like(params.embeddings.rows)
        if isinstance(params.tower, MlpImageTower):
            t = params.tower
            state.mlp_accum = MlpGradient(
                V=np.zeros_like(t.V), b1=np.zeros_like(t.b1), U=np.zeros_like(t.U), b2=np.zeros_like(t.b2)
            )
        else:
            state.image_accum = np.zeros_like(params.tower.vectors)
        return state


def _adagrad_rows(theta: np.ndarray, accum: np.ndarray, grad: RowGradient, lr: float, eps: float) -> None:
    if grad.rows.size == 0:
        return
    g = grad.values
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient")
    new_accum = accum[grad.rows] + g * g
    accum[grad.rows] = new_accum
    theta[grad.rows] -= lr * g / (np.sqrt(new_accum) + eps)


def _adagrad_dense(theta: np.ndarray, accum: np.ndarray, g: np.ndarray, lr: float, eps: float) -> None:
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient")
    accum += g * g
    theta -= lr * g / (np.sqrt(accum) + eps)


def sgd_step(params: ModelParams, grads: Gradients, opt: OptimizerState) -> None:
    """Adagrad update in place: G += g^2, then theta -= lr * g / (sqrt(G) + eps).

    Rows with no gradient entry are untouched.
    """
    _adagrad_rows(params.embeddings.rows, opt.emb_accum, grads.embeddings, opt.learning_rate, opt.epsilon)
    if grads.mlp is not None:
        tower = params.tower
        assert isinstance(tower, MlpImageTower) and opt.mlp_accum is not None
        _adagrad_dense(tower.V, opt.mlp_accum.V, grads.mlp.V, opt.learning_rate, opt.epsilon)
        _adagrad_dense(tower.b1, opt.mlp_accum.b1, grads.mlp.b1, opt.learning_rate, opt.epsilon)
        _adagrad_dense(tower.U, opt.mlp_accum.U, grads.mlp.U, opt.learning_rate, opt.epsilon)
        _adagrad_dense(tower.b2, opt.mlp_accum.b2, grads.mlp.b2, opt.learning_rate, opt.epsilon)
    if grads.images is not None:
        tower = params.tower
        assert isinstance(tower, LookupImageTower) and opt.image_accum is not None
        _adagrad_rows(tower.vectors, opt.image_accum, grads.images, opt.learning_rate, opt.epsilon)


@dataclass
class TrainConfig:
    tower: str  # "mlp" | "lookup"
    emb_dim: int
    hidden_dim: int | None = None  # MLP hidden width m
    out_dim: int | None = None  # MLP output width n; must equal emb_dim
    feature_dim: int | None = None  # image feature width d; inferred if None
    batch_size: int = 1000
    epochs: int = 5
    learning_rate: float = 0.5
    logit_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.tower not in ("mlp", "lookup"):
            raise ConfigError(f"tower must be 'mlp' or 'lookup', got {self.tower!r}")
        for name in ("emb_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.logit_scale <= 0:
            raise ConfigError("logit_scale must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.tower == "mlp":
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ConfigError("mlp tower requires hidden_dim >= 1")
            if self.feature_dim is not None and self.feature_dim < 1:
                raise ConfigError("feature_dim must be >= 1")
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

    Each epoch reshuffles with a seeded RNG and partitions into batches of
    config.batch_size (final partial batch kept). Returns the trained
    parameters and the per-epoch mean weighted loss.
    """
    config.validate()
    examples = list(examples)
    if not examples:
        raise ValueError("no training examples (all queries empty?)")
    if config.tower == "mlp":
        feature_dim = config.feature_dim
        if feature_dim is None:
            feature_dim = int(np.asarray(examples[0].image).shape[0])
        params = init_params(
            config.seed,
            num_rows=num_embedding_rows,
            emb_dim=config.emb_dim,
            tower="mlp",
            feature_dim=feature_dim,
            hidden_dim=config.hidden_dim,
        )
    else:
        if num_images is None:
            num_images = max(int(ex.image) for ex in examples) + 1
        params = init_params(
            config.seed,
            num_rows=num_embedding_rows,
            emb_dim=config.emb_dim,
            tower="lookup",
            num_images=num_images,
        )
    opt = OptimizerState.for_params(params, config.learning_rate)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    epoch_losses: list[float] = []
    n = len(examples)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            chosen = [examples[i] for i in order[start : start + config.batch_size]]
            batch = Batch.from_examples(chosen)
            grads, report = _loss_and_gradients(params, batch, config.logit_scale)
            sgd_step(params, grads, opt)
            loss_sum += report.mean_weighted_loss * batch.size
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
    rng = np.random.default_rng(seed)
    embeddings = EmbeddingTable(rows=rng.normal(0.0, 0.6, size=(num_rows, emb_dim)))
    if tower == "mlp":
        image_tower: MlpImageTower | LookupImageTower = MlpImageTower(
            V=rng.normal(0.0, 0.6, size=(hidden_dim, feature_dim)),
            b1=rng.normal(0.0, 0.3, size=hidden_dim),
            U=rng.normal(0.0, 0.6, size=(emb_dim, hidden_dim)),
            b2=rng.normal(0.0, 0.3, size=emb_dim),
        )
        images: np.ndarray = rng.normal(0.0, 1.0, size=(batch_size, feature_dim))
    elif tower == "lookup":
        image_tower = LookupImageTower(vectors=rng.normal(0.0, 0.6, size=(num_images, emb_dim)))
        images = rng.integers(0, num_images, size=batch_size)
    else:
        raise ValueError(f"unknown tower kind {tower!r}")
    params = ModelParams(embeddings=embeddings, tower=image_tower)
    token_ids = [rng.integers(0, num_rows, size=rng.integers(1, 5)) for _ in range(batch_size)]
    examples = [
        TrainExample(token_ids=token_ids[i], image=images[i], weight=float(rng.uniform(0.2, 2.0)))
        for i in range(batch_size)
    ]
    batch = Batch.from_examples(examples)

    grads = batch_gradients(params, batch, logit_scale)
    analytic: list[tuple[str, np.ndarray, np.ndarray]] = [
        ("embeddings", params.embeddings.rows, grads.embeddings.to_dense(num_rows))
    ]
    if grads.mlp is not None:
        t = params.tower
        assert isinstance(t, MlpImageTower)
        analytic += [("V", t.V, grads.mlp.V), ("b1", t.b1, grads.mlp.b1), ("U", t.U, grads.mlp.U), ("b2", t.b2, grads.mlp.b2)]
    if grads.images is not None:
        t = params.tower
        assert isinstance(t, LookupImageTower)
        analytic.append(("image_vectors", t.vectors, grads.images.to_dense(num_images)))
    if corrupt:
        analytic[0][2].flat[0] += corrupt

    max_rel = 0.0
    worst = ""
    checked = 0
    for name, theta, ga in analytic:
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
    arrays: dict[str, np.ndarray] = {
        "embeddings": params.embeddings.rows,
        "emb_accum": opt.emb_accum,
    }
    if isinstance(params.tower, MlpImageTower):
        t = params.tower
        assert opt.mlp_accum is not None
        arrays.update(V=t.V, b1=t.b1, U=t.U, b2=t.b2)
        arrays.update(V_accum=opt.mlp_accum.V, b1_accum=opt.mlp_accum.b1, U_accum=opt.mlp_accum.U, b2_accum=opt.mlp_accum.b2)
    else:
        assert opt.image_accum is not None
        arrays.update(image_vectors=params.tower.vectors, image_accum=opt.image_accum)
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
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        config = TrainConfig(**meta["config"])
        embeddings = EmbeddingTable(rows=data["embeddings"])
        opt = OptimizerState(learning_rate=meta["learning_rate"], epsilon=meta["epsilon"])
        opt.emb_accum = data["emb_accum"]
        if config.tower == "mlp":
            tower: MlpImageTower | LookupImageTower = MlpImageTower(V=data["V"], b1=data["b1"], U=data["U"], b2=data["b2"])
            opt.mlp_accum = MlpGradient(V=data["V_accum"], b1=data["b1_accum"], U=data["U_accum"], b2=data["b2_accum"])
        else:
            tower = LookupImageTower(vectors=data["image_vectors"])
            opt.image_accum = data["image_accum"]
    return Checkpoint(
        params=ModelParams(embeddings=embeddings, tower=tower),
        optimizer=opt,
        config=config,
        vocab_hash=meta["vocab_hash"],
        epoch=meta["epoch"],
    )
