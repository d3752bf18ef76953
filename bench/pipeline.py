"""One pass of the `imglex train` pipeline plus `lexicon_retrieval`, the
step probe and the correctness gate.

The pass makes the library calls `imglex train` makes, in the same order:
load, vocab, prepare, `train`, then the four artifacts; then the evaluation a
user runs on the export. Every call sits in a span named after the module
and function it enters; with tracing off the spans are no-ops.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from counts import bxb_bytes_per_step, check_against_step, flops_per_step, measured_param_bytes
from imglex.data import load_features, load_triples, prepare_examples
from imglex.evaluation import lexicon_retrieval, load_lexicon
from imglex.model import init_params, load_word2vec, save_word2vec
from imglex.textproc import LangMode, build_vocab, tokenize
from imglex.training import (
    Batch,
    OptimizerState,
    TrainConfig,
    batch_gradients,
    batch_loss,
    batch_loss_bruteforce,
    save_checkpoint,
    save_loss_curve,
    sgd_step,
    train,
)
from tracing import Tracer
from workloads import DEFAULT_SEED, Workload

MODE = LangMode.AWARE
ARTIFACTS = ("vocab.txt", "embeddings.vec", "checkpoint.npz", "loss.csv")
EVAL_REPEATS = 2  # eval is the noisiest stage per sample; it only reads the export
ORACLE_BATCH = 64
ORACLE_TOLERANCE = 1e-9  # |batch_loss - batch_loss_bruteforce|, as in the acceptance suite
REFERENCE_RTOL = 1e-9  # final epoch loss vs the stored reference at DEFAULT_SEED


def train_config(w: Workload, seed: int) -> TrainConfig:
    return TrainConfig(
        tower="mlp",
        emb_dim=w.emb_dim,
        hidden_dim=w.hidden_dim,
        batch_size=w.batch_size,
        epochs=w.epochs,
        learning_rate=w.learning_rate,
        logit_scale=w.logit_scale,
        seed=seed,
    )


@dataclass
class PassResult:
    """Stage wall times of one pass, plus what the gate inspects."""

    setup_s: float
    train_s: float
    export_s: float
    eval_s: list[float]  # one per repeat of the eval stage
    examples: int
    triples: list
    features: dict
    vocab: object
    prepared: object
    result: object
    vectors: dict
    retrieval: object
    bytes_written: int


def run_pass(w: Workload, seed: int, inputs: Path, out: Path, tracer: Tracer) -> PassResult:
    span = tracer.span
    config = train_config(w, seed)
    t0 = time.perf_counter()
    with span("stage.setup"):
        with span("data.load_triples"):
            triples = load_triples(inputs / "triples.tsv")
        with span("data.load_features"):
            features = load_features(inputs / "features.tsv")
        with span("textproc.build_vocab"):
            vocab = build_vocab(
                (token for t in triples for token in tokenize(t.query, t.lang, MODE)),
                min_count=w.min_count,
                num_buckets=w.buckets,
                mode=MODE,
            )
        with span("data.prepare_examples"):
            prepared = prepare_examples(triples, vocab, tower="mlp", features=features)
    t1 = time.perf_counter()
    with span("stage.train"), span("training.train"):
        result = train(prepared.examples, config, num_embedding_rows=vocab.total_ids, num_images=prepared.num_images)
    t2 = time.perf_counter()
    with span("stage.export"):
        with span("textproc.Vocabulary.save"):
            vocab.save(out / "vocab.txt")
        with span("model.save_word2vec"):
            save_word2vec(out / "embeddings.vec", vocab, result.params.embeddings)
        with span("training.save_checkpoint"):
            vocab_hash = hashlib.sha256((out / "vocab.txt").read_bytes()).hexdigest()
            save_checkpoint(out / "checkpoint.npz", result.params, result.optimizer, config, vocab_hash, config.epochs)
        with span("training.save_loss_curve"):
            save_loss_curve(out / "loss.csv", result.epoch_losses)
    t3 = time.perf_counter()
    eval_s = []
    for _ in range(EVAL_REPEATS):
        t = time.perf_counter()
        with span("stage.eval"):
            with span("model.load_word2vec"):
                vectors = load_word2vec(out / "embeddings.vec")
            with span("evaluation.load_lexicon"):
                pairs = load_lexicon(inputs / "lexicon.tsv")
            with span("evaluation.lexicon_retrieval"):
                retrieval = lexicon_retrieval(vectors, pairs, MODE)
        eval_s.append(time.perf_counter() - t)
    return PassResult(
        setup_s=t1 - t0,
        train_s=t2 - t1,
        export_s=t3 - t2,
        eval_s=eval_s,
        examples=len(prepared.examples),
        triples=triples,
        features=features,
        vocab=vocab,
        prepared=prepared,
        result=result,
        vectors=vectors,
        retrieval=retrieval,
        bytes_written=sum((out / name).stat().st_size for name in ARTIFACTS),
    )


def traffic(res: PassResult) -> dict:
    """What the library made of the inputs, to compare with the generator's stats."""
    ids = np.concatenate([ex.token_ids for ex in res.prepared.examples])
    return {
        "token_occurrences": int(ids.size),
        "oov_occurrences": int(np.count_nonzero(ids >= res.vocab.vocab_size)),
        "vocab_size": res.vocab.vocab_size,
        "distinct_images": len({t.image_id for t in res.triples}),
        "feature_rows": len(res.features),
    }


@dataclass
class Gate:
    """Correctness checks applied to every pass of a run."""

    w: Workload
    seed: int
    stats: dict
    reference: float | None
    first_loss: float | None = None

    def check(self, res: PassResult, seen: dict) -> list[str]:
        problems = []
        final = res.result.epoch_losses[-1]
        if not math.isfinite(final):
            problems.append(f"final epoch loss {final!r} is not finite")
        if self.first_loss is None:
            self.first_loss = final
        elif final != self.first_loss:
            problems.append(f"final epoch loss {final!r} differs from the first pass's {self.first_loss!r}")
        if self.seed == DEFAULT_SEED:
            if self.reference is None:
                problems.append("no stored reference loss for this workload")
            elif abs(final - self.reference) > REFERENCE_RTOL * abs(self.reference):
                problems.append(f"final epoch loss {final!r} != stored reference {self.reference!r}")

        params = res.result.params
        batch = Batch.from_examples(res.prepared.examples[:ORACLE_BATCH])
        fast = batch_loss(params, batch, self.w.logit_scale).mean_weighted_loss
        slow = batch_loss_bruteforce(params, batch, self.w.logit_scale)
        if not abs(fast - slow) <= ORACLE_TOLERANCE:
            problems.append(f"batch_loss {fast!r} vs brute force {slow!r}")

        r = res.retrieval
        if r.precision_at_1 < self.w.p1_floor:
            problems.append(f"lexicon precision@1 {r.precision_at_1:.3f} < floor {self.w.p1_floor}")
        if not r.same_concept_mean > r.diff_concept_mean:
            problems.append(f"same-concept cosine {r.same_concept_mean:.3f} <= different {r.diff_concept_mean:.3f}")

        rows = params.embeddings.rows
        if list(res.vectors) != list(res.vocab.tokens) or not all(
            np.array_equal(res.vectors[tok], rows[i]) for i, tok in enumerate(res.vocab.tokens)
        ):
            problems.append("embeddings.vec does not round-trip through load_word2vec")

        for key, value in seen.items():
            if value != self.stats[key]:
                problems.append(f"library sees {key}={value}, generator wrote {self.stats[key]}")
        return problems


@dataclass
class ProbeResult:
    init_s: float
    batch_build_ms: list[float]
    forward_ms: list[float]
    gradients_ms: list[float]
    sgd_step_ms: list[float]
    step_ms: list[float]
    touched_emb_rows: list[int]
    touched_image_rows: list[int]
    flops_per_step: int
    bxb_bytes_per_step: int
    param_bytes: int
    problems: list[str]


def step_probe(w: Workload, seed: int, vocab, prepared, num_batches: int) -> ProbeResult:
    """Replay the first ``num_batches`` batches `train` sees, timing each call.

    Parameters are initialised and batches drawn exactly as `train` does, so
    the probe sees the workload's own batches and trajectory. ``step_ms`` is
    Batch.from_examples + batch_gradients + sgd_step; batch_loss runs on the
    same batch in addition, so backward = batch_gradients - batch_loss.
    """
    config = train_config(w, seed)
    examples = prepared.examples
    t0 = time.perf_counter()
    params = init_params(
        config.seed,
        num_rows=vocab.total_ids,
        emb_dim=w.emb_dim,
        tower="mlp",
        feature_dim=prepared.feature_dim,
        hidden_dim=w.hidden_dim,
    )
    opt = OptimizerState.for_params(params, config.learning_rate)
    init_s = time.perf_counter() - t0

    out = ProbeResult(init_s, [], [], [], [], [], [], [], 0, 0, measured_param_bytes(params, opt), [])
    shuffle_rng = np.random.default_rng([config.seed, 1])
    n = len(examples)
    clock = time.perf_counter
    checked = False
    while len(out.step_ms) < num_batches:
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            if len(out.step_ms) == num_batches:
                break
            chosen = [examples[i] for i in order[start : start + config.batch_size]]
            a = clock()
            batch = Batch.from_examples(chosen)
            b = clock()
            report = batch_loss(params, batch, config.logit_scale)
            c = clock()
            grads = batch_gradients(params, batch, config.logit_scale)
            d = clock()
            sgd_step(params, grads, opt)
            e = clock()
            out.batch_build_ms.append(1e3 * (b - a))
            out.forward_ms.append(1e3 * (c - b))
            out.gradients_ms.append(1e3 * (d - c))
            out.sgd_step_ms.append(1e3 * (e - d))
            out.step_ms.append(1e3 * ((b - a) + (e - c)))
            out.touched_emb_rows.append(int(grads.embeddings.rows.size))
            out.touched_image_rows.append(int(grads.images.rows.size) if grads.images is not None else 0)
            if not checked and batch.size == config.batch_size:
                out.problems += check_against_step(params, opt, batch, report)
                checked = True
    if not checked:
        out.problems.append("no full batch to check the computed counts against")
    t = params.tower
    out.flops_per_step = flops_per_step(config.batch_size, params.emb_dim, t.feature_dim, t.hidden_dim)
    out.bxb_bytes_per_step = bxb_bytes_per_step(config.batch_size)
    return out
