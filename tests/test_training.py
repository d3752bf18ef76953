"""Loss, gradients, optimizer, train loop, gradient checker, checkpointing."""

import dataclasses
import io
import json
import math
import re
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imglex.data import SyntheticSpec, TripleRecord, filter_multilingual, generate_synthetic, prepare_examples
from imglex.errors import ConfigError, DataError, TrainingDiverged
from imglex.model import (
    INIT_CHUNK_ROWS,
    TOWER_KINDS,
    EmbeddingTable,
    LookupImageTower,
    MlpImageTower,
    ModelParams,
    NonFiniteError,
    cosine,
    init_params,
    initial_rows,
)
from imglex.textproc import LangMode, build_vocab, tokenize
from imglex.training import (
    ADAGRAD_EPSILON,
    Batch,
    Gradients,
    OptimizerState,
    RowGradient,
    TrainConfig,
    TrainExample,
    batch_gradients,
    batch_loss,
    batch_loss_bruteforce,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)
from oracles import directional_check, held_row_sets, image_repr_mlp, numeric_gradients, pack_examples, query_repr

LOG4 = 1.3862943611198906
LOG_1P_EXP_M1 = 0.31326168751822286  # log(1 + e^-1)


def lookup_params(emb_rows, image_rows):
    return ModelParams(
        embeddings=EmbeddingTable(rows=np.asarray(emb_rows, dtype=np.float64)),
        tower=LookupImageTower(vectors=np.asarray(image_rows, dtype=np.float64)),
    )


def random_params_and_batch(rng, tower="mlp", batch_size=8, num_rows=20, emb_dim=6):
    if tower == "mlp":
        params = init_params(int(rng.integers(1 << 30)), num_rows=num_rows, emb_dim=emb_dim, tower="mlp", feature_dim=5, hidden_dim=7)
        params.embeddings.rows[:] = rng.normal(0, 0.6, size=params.embeddings.rows.shape)
        images = [rng.normal(size=5) for _ in range(batch_size)]
    else:
        params = init_params(int(rng.integers(1 << 30)), num_rows=num_rows, emb_dim=emb_dim, tower="lookup", num_images=6)
        params.embeddings.rows[:] = rng.normal(0, 0.6, size=params.embeddings.rows.shape)
        params.tower.vectors[:] = rng.normal(0, 0.6, size=params.tower.vectors.shape)
        images = [int(rng.integers(6)) for _ in range(batch_size)]
    examples = [
        (rng.integers(0, num_rows, size=int(rng.integers(1, 5))), images[i], float(rng.uniform(0.0, 2.0)))
        for i in range(batch_size)
    ]
    return params, pack_examples(examples)


def test_singleton_batch_loss_is_zero():
    rng = np.random.default_rng(0)
    params, _ = random_params_and_batch(rng, tower="lookup")
    batch = pack_examples([([3, 4], 1, 1.0)])
    assert batch_loss(params, batch, 1.0).mean_weighted_loss == 0.0


def test_equal_logits_give_log_b():
    # All image vectors identical: every row of the logit matrix is constant,
    # so the softmax is uniform and each example loses exactly log B.
    emb = np.random.default_rng(1).normal(size=(10, 4))
    params = lookup_params(emb, np.tile([0.3, 0.1, -0.2, 0.5], (3, 1)))
    examples = [([i % 10, (3 * i) % 10], i % 3, 1.0) for i in range(4)]
    report = batch_loss(params, pack_examples(examples), 1.0)
    assert np.all(np.abs(report.example_losses - LOG4) < 1e-12)
    assert report.mean_weighted_loss == pytest.approx(LOG4, abs=1e-12)


def test_identity_logits_hand_value():
    params = lookup_params([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    report = batch_loss(params, pack_examples([([0], 0, 1.0), ([1], 1, 1.0)]), 1.0)
    assert np.allclose(report.logits, np.eye(2))
    assert report.mean_weighted_loss == pytest.approx(LOG_1P_EXP_M1, abs=1e-12)


def test_batch_loss_matches_bruteforce():
    rng = np.random.default_rng(2)
    for trial in range(40):
        tower = "mlp" if trial % 2 == 0 else "lookup"
        params, batch = random_params_and_batch(rng, tower=tower, batch_size=int(rng.integers(1, 20)))
        scale = float(rng.uniform(0.5, 10.0))
        fast = batch_loss(params, batch, scale).mean_weighted_loss
        slow = batch_loss_bruteforce(params, batch, scale)
        assert abs(fast - slow) <= 1e-9


def test_bruteforce_rejects_large_batches():
    rng = np.random.default_rng(3)
    params, batch = random_params_and_batch(rng, tower="lookup", batch_size=65)
    with pytest.raises(ValueError):
        batch_loss_bruteforce(params, batch, 1.0)


def test_weight_linearity():
    rng = np.random.default_rng(4)
    params, batch = random_params_and_batch(rng, tower="lookup", batch_size=6)
    batch.weights[:] = 1.0
    base = batch_loss(params, batch, 2.0)
    batch.weights[0] = 2.0
    doubled = batch_loss(params, batch, 2.0)
    assert doubled.example_losses[0] == pytest.approx(2.0 * base.example_losses[0], rel=1e-12)
    assert np.array_equal(doubled.example_losses[1:], base.example_losses[1:])


def test_batch_loss_matches_bruteforce_past_exp_range():
    # scale * cos reaches +-2000, far past float64's exp range (~709): only
    # the row-max shift in the batched forward keeps it finite. The oracle
    # exponentiates unshifted in long double (80-bit on x86-64).
    rng = np.random.default_rng(5)
    for tower in ("mlp", "lookup"):
        for scale in (800.0, 2000.0):
            params, batch = random_params_and_batch(rng, tower=tower, batch_size=12)
            fast = batch_loss(params, batch, scale).mean_weighted_loss
            assert fast == pytest.approx(batch_loss_bruteforce(params, batch, scale), rel=1e-9, abs=0)


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    params, _ = random_params_and_batch(rng, tower="lookup")
    examples = [(rng.integers(0, 20, size=2), int(rng.integers(6)), 1.0) for _ in range(8)]
    forward = batch_loss(params, pack_examples(examples), 3.0)
    backward = batch_loss(params, pack_examples(examples[::-1]), 3.0)
    assert np.allclose(forward.example_losses[::-1], backward.example_losses, atol=1e-12)
    assert forward.mean_weighted_loss == pytest.approx(backward.mean_weighted_loss, abs=1e-12)


def test_unweighted_loss_nonnegative_and_positive_for_b2():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params, batch = random_params_and_batch(rng, tower="lookup", batch_size=int(rng.integers(2, 10)))
        batch.weights[:] = 1.0
        report = batch_loss(params, batch, 4.0)
        assert np.all(report.example_losses > 0.0)


def test_gradient_sparsity_embeddings_and_images():
    rng = np.random.default_rng(8)
    params, _ = random_params_and_batch(rng, tower="lookup", num_rows=16)
    grads = batch_gradients(params, pack_examples([([3, 9], 2, 1.0), ([9], 4, 1.0)]), 2.0)
    assert list(grads.embeddings.rows) == [3, 9]
    assert list(grads.tower["image_vectors"].rows) == [2, 4]
    dense = grads.embeddings.to_dense(16)
    untouched = [i for i in range(16) if i not in (3, 9)]
    assert np.all(dense[untouched] == 0.0)


def test_singleton_batch_gradients_zero():
    rng = np.random.default_rng(9)
    params, _ = random_params_and_batch(rng, tower="mlp")
    batch = pack_examples([([1, 2], np.ones(5), 1.5)])
    grads = batch_gradients(params, batch, 5.0)
    assert np.all(grads.embeddings.values == 0.0)
    assert np.all(grads.tower["V"] == 0.0)
    assert np.all(grads.tower["U"] == 0.0)
    assert np.all(grads.tower["b1"] == 0.0)
    assert np.all(grads.tower["b2"] == 0.0)


def test_batch_validation():
    # Batch.pack's own checks; from_examples' are pinned with the per-example view.
    with pytest.raises(ValueError, match="empty query"):
        pack_examples([([], 0, 1.0)])
    with pytest.raises(ValueError, match="weights"):
        pack_examples([([0], 0, -1.0)])
    with pytest.raises(ValueError, match="weights"):
        pack_examples([([0], 0, np.nan)])


def test_batch_loss_rejects_nonfinite_params():
    params = lookup_params(np.ones((4, 2)), np.ones((2, 2)))
    params.embeddings.rows[1, 0] = np.nan
    batch = pack_examples([([1], 0, 1.0), ([2], 1, 1.0)])
    with pytest.raises(ValueError, match="non-finite"):
        batch_loss(params, batch, 1.0)


@pytest.mark.parametrize(
    "tower, images, message",
    [
        ("mlp", [0, 1], "batch carries image ids but tower is mlp"),
        ("lookup", [np.ones(5), np.ones(5)], "batch carries features but tower is lookup"),
        ("mlp", [np.ones(3), np.ones(3)], "feature dim 3 != tower dim 5"),
        ("lookup", [0, -1], "image id out of range"),
        ("lookup", [5, 6], "image id out of range"),
    ],
    ids=["mlp-given-ids", "lookup-given-features", "feature-width", "negative-id", "id-past-table"],
)
def test_batch_loss_checks_tower_inputs(tower, images, message):
    params, _ = random_params_and_batch(np.random.default_rng(30), tower=tower)  # feature_dim 5, num_images 6
    batch = pack_examples([([i], image, 1.0) for i, image in enumerate(images)])
    with pytest.raises(ValueError) as caught:
        batch_loss(params, batch, 1.0)
    assert str(caught.value) == message


def test_adagrad_hand_step():
    params = lookup_params([[0.0]], [[0.0]])
    opt = OptimizerState.for_params(params, learning_rate=0.1)
    grads_first = RowGradient(rows=np.array([0]), values=np.array([[2.0]]))
    sgd_step(params, Gradients(embeddings=grads_first), opt)
    # theta -= lr * g / (sqrt(G + g^2) + eps) = 0.1 * 2 / (2 + eps)
    assert params.embeddings.rows[0, 0] == pytest.approx(-0.1 * 2.0 / (math.sqrt(4.0) + ADAGRAD_EPSILON), abs=1e-15)
    assert opt.accum.embeddings.rows[0, 0] == pytest.approx(4.0)
    sgd_step(params, Gradients(embeddings=RowGradient(rows=np.array([0]), values=np.array([[2.0]]))), opt)
    assert opt.accum.embeddings.rows[0, 0] == pytest.approx(8.0)


def test_adagrad_hand_step_dense():
    # A dense array (b2) takes the same update as a sparse row, on every row.
    params = init_params(0, num_rows=3, emb_dim=2, tower="mlp", feature_dim=2, hidden_dim=2)
    before = {name: theta.copy() for name, theta in params.arrays().items()}
    opt = OptimizerState.for_params(params, learning_rate=0.1)
    g_b2 = np.array([2.0, -0.5])
    ones = MlpImageTower(V=np.ones((2, 2)), b1=np.ones(2), U=np.ones((2, 2)), b2=g_b2)
    no_rows = RowGradient(rows=np.array([], dtype=np.int64), values=np.zeros((0, 2)))
    sgd_step(params, Gradients(embeddings=no_rows, tower=ones.arrays()), opt)
    # theta -= lr * g / (sqrt(g^2) + eps), about lr * sign(g), from b2 = 0
    first_b2 = before["b2"] - 0.1 * g_b2 / (np.sqrt(g_b2 * g_b2) + ADAGRAD_EPSILON)
    assert np.array_equal(params.tower.b2, first_b2)
    assert np.array_equal(opt.accum.tower.b2, [4.0, 0.25])
    assert np.array_equal(params.tower.V, before["V"] - 0.1 * 1.0 / (1.0 + ADAGRAD_EPSILON))
    assert np.array_equal(params.embeddings.rows, before["embeddings"])
    assert np.all(opt.accum.embeddings.rows == 0.0)
    sgd_step(params, Gradients(embeddings=no_rows, tower=ones.arrays()), opt)
    # G = 2 g^2: theta -= lr * g / (sqrt(2) |g| + eps)
    assert params.tower.b2 == pytest.approx(first_b2 - 0.1 * g_b2 / (np.sqrt(2 * g_b2 * g_b2) + ADAGRAD_EPSILON), rel=1e-15)
    assert np.array_equal(opt.accum.tower.b2, [8.0, 0.5])


@pytest.mark.parametrize(
    "tower, names, fields",
    [("mlp", ["embeddings", "V", "b1", "U", "b2"], ["V", "b1", "U", "b2"]), ("lookup", ["embeddings", "image_vectors"], ["vectors"])],
)
def test_param_arrays_name_the_live_arrays(tower, names, fields):
    # Adagrad, checkpoints and the gradient check loop over this table: an
    # array missing from it would silently go untrained and unsaved.
    rng = np.random.default_rng(30)
    params, batch = random_params_and_batch(rng, tower=tower)
    arrays = params.arrays()
    assert list(arrays) == names
    live = [params.embeddings.rows] + [getattr(params.tower, f) for f in fields]
    assert all(a is b for a, b in zip(arrays.values(), live, strict=True))
    rebuilt = ModelParams.from_arrays(arrays)
    assert type(rebuilt.tower) is type(params.tower)
    assert all(a is b for a, b in zip(rebuilt.arrays().values(), live, strict=True))
    opt = OptimizerState.for_params(params, learning_rate=0.5)
    assert list(opt.accum.arrays()) == names
    assert all(np.all(a == 0.0) and a.shape == b.shape for a, b in zip(opt.accum.arrays().values(), live))
    assert list(batch_gradients(params, batch, 2.0).arrays()) == names


def test_sgd_step_zero_gradient_is_identity():
    rng = np.random.default_rng(10)
    params, batch = random_params_and_batch(rng, tower="lookup")
    before = params.embeddings.rows.copy()
    opt = OptimizerState.for_params(params, learning_rate=0.5)
    zero = Gradients(embeddings=RowGradient(rows=np.array([2, 5]), values=np.zeros((2, 6))))
    sgd_step(params, zero, opt)
    assert np.array_equal(params.embeddings.rows, before)


def test_sgd_step_rejects_nonfinite_gradient():
    params = lookup_params([[0.0]], [[0.0]])
    opt = OptimizerState.for_params(params, learning_rate=0.1)
    bad = Gradients(embeddings=RowGradient(rows=np.array([0]), values=np.array([[np.inf]])))
    with pytest.raises(ValueError, match="non-finite"):
        sgd_step(params, bad, opt)


def test_sgd_step_rejects_an_overflowing_accumulator_before_writing_it():
    # A finite gradient of 1e200 squares to inf; the update would then be
    # g / inf = 0 and the row would stop training unseen.
    params = lookup_params([[0.5, 0.25]], [[0.0, 1.0]])
    opt = OptimizerState.for_params(params, learning_rate=0.1)
    bad = Gradients(embeddings=RowGradient(rows=np.array([0]), values=np.array([[1e200, 1.0]])))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^non-finite Adagrad accumulator$"):
        sgd_step(params, bad, opt)
    assert params.embeddings.rows.tolist() == [[0.5, 0.25]] and not opt.accum.embeddings.rows.any()


def rel_errs_to_numeric(params, batch, logit_scale):
    """For every parameter array, the largest |ga - gn| / max(1e-8, |ga| + |gn|)
    of batch_gradients against tests/oracles.numeric_gradients."""
    grads = batch_gradients(params, batch, logit_scale).arrays()
    errs = {}
    for name, gn in numeric_gradients(params, batch, logit_scale).items():
        ga = grads[name].to_dense(gn.shape[0]) if isinstance(grads[name], RowGradient) else grads[name]
        errs[name] = float((np.abs(ga - gn) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))).max())
    return errs


def test_gradients_match_finite_differences_quick():
    for tower in ("mlp", "lookup"):
        report = grad_check(tower, 11)
        assert report.max_rel_err < 1e-4, (tower, report)


def test_grad_check_detects_corruption(monkeypatch):
    def corrupted(*args):
        grads = batch_gradients(*args)
        grads.embeddings.values[0, 0] += 0.5
        return grads

    monkeypatch.setattr("imglex.training.batch_gradients", corrupted)
    report = grad_check("mlp", 0)
    assert report.max_rel_err > 1e-2


def test_singleton_batch_matches_finite_differences_trivially():
    rng = np.random.default_rng(0)
    for tower in ("mlp", "lookup"):
        params, batch = random_params_and_batch(rng, tower=tower, batch_size=1, num_rows=14)
        errs = rel_errs_to_numeric(params, batch, 1.5)
        assert max(errs.values()) < 1e-9, (tower, errs)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(tower="cnn", emb_dim=4).validate()
    with pytest.raises(ConfigError):
        TrainConfig(tower="mlp", emb_dim=8, hidden_dim=4, batch_size=0).validate()
    TrainConfig(tower="mlp", emb_dim=8, hidden_dim=4).validate()
    TrainConfig(tower="lookup", emb_dim=8).validate()
    TrainConfig(tower="lookup", emb_dim=8, learning_rate=1, logit_scale=2).validate()  # a JSON integer is a number


def make_toy_examples(rng, n, num_rows, num_images):
    """``n`` lookup-tower examples (token_ids, image id, weight 1), for pack_examples."""
    return [(rng.integers(0, num_rows, size=int(rng.integers(1, 4))), int(rng.integers(num_images)), 1.0) for _ in range(n)]


def test_train_zero_epochs_keeps_init():
    rng = np.random.default_rng(12)
    corpus = pack_examples(make_toy_examples(rng, 50, 10, 4))
    config = TrainConfig(tower="lookup", emb_dim=5, epochs=0, batch_size=16, seed=99)
    result = train(corpus, config, num_embedding_rows=10, num_images=4)
    reference = init_params(99, num_rows=10, emb_dim=5, tower="lookup", num_images=4)
    table = result.params.embeddings
    assert table.ids.tolist() == np.unique(corpus.token_ids).tolist()
    assert np.array_equal(table.rows, reference.embeddings.rows[table.ids])
    assert result.epoch_losses == []


def test_train_deterministic():
    rng = np.random.default_rng(13)
    corpus = pack_examples(make_toy_examples(rng, 120, 12, 5))
    config = TrainConfig(tower="lookup", emb_dim=6, epochs=3, batch_size=32, seed=7, logit_scale=5.0)
    a = train(corpus, config, num_embedding_rows=12, num_images=5)
    b = train(corpus, config, num_embedding_rows=12, num_images=5)
    assert np.array_equal(a.params.embeddings.rows, b.params.embeddings.rows)
    assert a.epoch_losses == b.epoch_losses


def test_train_loss_decreases(small_synth_training_run):
    losses = small_synth_training_run.epoch_losses
    assert losses[0] > losses[1] > losses[2]


def test_train_rejects_empty_corpus():
    config = TrainConfig(tower="lookup", emb_dim=4)
    with pytest.raises(ValueError, match="no training examples"):
        train(pack_examples([]), config, num_embedding_rows=4)


def all_rows(params, opt):
    """Every parameter and every accumulator under its name, the embedding
    table and its accumulator with all their rows, whatever rows the table
    holds: a row not held reads as its initial value, its accumulator as 0."""
    table = params.embeddings
    accum = np.zeros((table.num_rows, table.emb_dim))
    accum[table.ids] = opt.accum.embeddings.rows
    rows = table.read(np.arange(table.num_rows))
    return {**params.arrays(), "embeddings": rows}, {**opt.accum.arrays(), "embeddings": accum}


def assert_same_checkpoint_arrays(path, loaded, params, opt):
    """Every parameter and accumulator round-trips bit for bit under its name
    (compared as bytes, so -0.0 and 0.0 differ); the archive holds each of
    them plus the ids of the stored embedding rows and the table's row count."""
    names = list(params.arrays())
    with np.load(path) as data:
        assert sorted(data.files) == sorted(["meta", "embeddings_ids", "embeddings_num_rows", *names, *(f"{name}_accum" for name in names)])
    for got_arrays, want_arrays in zip(all_rows(loaded.params, loaded.optimizer), all_rows(params, opt), strict=True):
        assert list(got_arrays) == names
        for name, theta in want_arrays.items():
            got_theta = got_arrays[name]
            assert (got_theta.shape, got_theta.dtype) == (theta.shape, theta.dtype), name
            assert got_theta.tobytes() == theta.tobytes(), name
    assert loaded.optimizer.learning_rate == loaded.config.learning_rate == opt.learning_rate


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    corpus = pack_examples(make_toy_examples(rng, 60, 8, 3))
    config = TrainConfig(tower="lookup", emb_dim=4, epochs=2, batch_size=16, seed=3)
    result = train(corpus, config, num_embedding_rows=8, num_images=3)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, result.params, result.optimizer, config, vocab_hash="abc123", epoch=2)
    loaded = load_checkpoint(path)
    assert loaded.vocab_hash == "abc123"
    assert loaded.epoch == 2
    assert loaded.config == config
    assert isinstance(loaded.params.tower, LookupImageTower)
    assert np.count_nonzero(result.optimizer.accum.tower.vectors) > 0
    assert_same_checkpoint_arrays(path, loaded, result.params, result.optimizer)


def test_checkpoint_round_trip_mlp(tmp_path):
    params = init_params(1, num_rows=6, emb_dim=4, tower="mlp", feature_dim=3, hidden_dim=5)
    opt = OptimizerState.for_params(params, learning_rate=0.25)
    rng = np.random.default_rng(15)
    for accum in opt.accum.arrays().values():  # distinct values, so no two arrays can be swapped unseen
        accum[:] = rng.uniform(0.0, 1.0, size=accum.shape)
    config = TrainConfig(tower="mlp", emb_dim=4, hidden_dim=5, learning_rate=0.25)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=0)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert isinstance(loaded.params.tower, MlpImageTower)
    assert_same_checkpoint_arrays(path, loaded, params, opt)


def stored_row_ids(path):
    with np.load(path) as data:
        return data["embeddings_ids"].tolist()


def assert_resaves_byte_for_byte(path, loaded):
    again = path.with_name(f"again-{path.name}")
    save_checkpoint(again, loaded.params, loaded.optimizer, loaded.config, loaded.vocab_hash, loaded.epoch)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("tower", TOWER_KINDS)
def test_load_checkpoint_memory_is_a_few_chunks(tmp_path, tower):
    # A 1M-row table (64 MB) with three stored rows: the loaded table holds
    # only those, so loading never allocates the size of the table.
    config = TrainConfig(tower=tower, emb_dim=8, hidden_dim=5 if tower == "mlp" else None)
    changed = [5, 70_000, 999_999]
    params = init_params(0, num_rows=1_000_000, emb_dim=8, tower=tower, feature_dim=3, hidden_dim=5, num_images=2, rows=changed)
    opt = OptimizerState.for_params(params, config.learning_rate)
    params.embeddings.rows[:] += 1.0
    opt.accum.embeddings.rows[:] = 1.0
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=1)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = INIT_CHUNK_ROWS * 8 * params.embeddings.rows.itemsize
    assert peak < 4 * chunk_bytes, (peak, chunk_bytes)
    table = loaded.params.embeddings
    assert (table.ids.tolist(), table.num_rows, table.seed) == (changed, 1_000_000, 0)
    assert loaded.optimizer.accum.embeddings.rows.shape == (3, 8)
    assert_resaves_byte_for_byte(path, loaded)


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoint_round_trip")


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    num_rows=st.integers(2 * INIT_CHUNK_ROWS + 2, 3 * INIT_CHUNK_ROWS),
    tower=st.sampled_from(TOWER_KINDS),
)
def test_checkpoint_round_trips_any_stored_rows(round_trip_dir, data, num_rows, tower):
    # The table holds the drawn rows and changes each one: every other row's
    # value, the rest's accumulator. The loaded table holds exactly those rows.
    stored = data.draw(held_row_sets(num_rows))
    config = TrainConfig(tower=tower, emb_dim=2, hidden_dim=3 if tower == "mlp" else None, learning_rate=0.25, seed=5)
    params = init_params(5, num_rows=num_rows, emb_dim=2, tower=tower, feature_dim=3, hidden_dim=3, num_images=4, rows=stored)
    opt = OptimizerState.for_params(params, config.learning_rate)
    params.embeddings.rows[::2] *= -1.0  # flips the sign bit, so the value is no longer initial
    opt.accum.embeddings.rows[1::2] = 0.5
    for accum in opt.accum.tower.arrays().values():
        accum.flat[0] = 1.5
    path = round_trip_dir / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=1)
    assert stored_row_ids(path) == stored
    loaded = load_checkpoint(path)
    assert loaded.params.embeddings.ids.tolist() == stored and loaded.config == config
    assert_same_checkpoint_arrays(path, loaded, params, opt)
    assert_resaves_byte_for_byte(path, loaded)


def assert_checkpoints_load_the_same(path_a, path_b):
    """The two checkpoints load to the same parameters and accumulators, bit
    for bit, every table row included, whatever rows each stores."""
    a, b = load_checkpoint(path_a), load_checkpoint(path_b)
    for got, want in zip(all_rows(a.params, a.optimizer), all_rows(b.params, b.optimizer), strict=True):
        assert list(got) == list(want)
        for name, theta in want.items():
            assert got[name].tobytes() == theta.tobytes(), name


def toy_tables(tower):
    """A trained and an untrained (0 epochs) run of a toy corpus whose token
    ids are every 250th row of a 3,000-row table, each as train() returns it
    (holding the corpus rows) and as an all-rows table and optimizer of the
    same values: name -> (params, optimizer), and the config to save them
    under."""
    rng = np.random.default_rng(45)
    examples = make_toy_examples(rng, 40, 12, 3)
    corpus = pack_examples([(250 * ids, rng.normal(size=4) if tower == "mlp" else image_id, 1.0) for ids, image_id, _ in examples])
    config = TrainConfig(tower=tower, emb_dim=4, hidden_dim=5 if tower == "mlp" else None, epochs=2, batch_size=16, seed=6)
    tables = {}
    for name, epochs in (("trained", 2), ("untrained", 0)):
        result = train(corpus, dataclasses.replace(config, epochs=epochs), num_embedding_rows=3000, num_images=3)
        params, opt = result.params, result.optimizer
        held = params.embeddings.ids
        assert held.tolist() == list(range(0, 3000, 250))
        dense_params = init_params(6, num_rows=3000, emb_dim=4, tower=tower, feature_dim=4, hidden_dim=5, num_images=3)
        dense = OptimizerState.for_params(dense_params, config.learning_rate)
        dense_params.embeddings.rows[held] = params.embeddings.rows
        dense.accum.embeddings.rows[held] = opt.accum.embeddings.rows
        for key, theta in params.tower.arrays().items():
            dense_params.tower.arrays()[key][:] = theta
            dense.accum.tower.arrays()[key][:] = opt.accum.tower.arrays()[key]
        tables[name], tables[f"{name}-all-rows"] = (params, opt), (dense_params, dense)
    return tables, config


@pytest.mark.parametrize("tower", TOWER_KINDS)
def test_checkpoint_stores_the_rows_the_table_holds(tmp_path, monkeypatch, tower):
    # Trained or not, holding the corpus rows or every row, a table's rows
    # and their accumulators are stored as they are, and saving draws no
    # initial row. A held-rows table and an all-rows table of the same values
    # give files that load to the same values.
    tables, config = toy_tables(tower)
    paths = {name: tmp_path / f"{name}.npz" for name in tables}

    def no_draw(*args):
        raise AssertionError("save_checkpoint drew initial rows")

    with monkeypatch.context() as patched:
        patched.setattr("imglex.model.initial_rows", no_draw)
        for name, (params, opt) in tables.items():
            save_checkpoint(paths[name], params, opt, config, vocab_hash="h", epoch=2)
    for name, (params, opt) in tables.items():
        table = params.embeddings
        with np.load(paths[name]) as data:
            ids = data["embeddings_ids"]
            assert (ids.dtype, ids.tolist()) == (np.int64, table.ids.tolist()), name
            assert data["embeddings"].tobytes() == table.rows.tobytes(), name
            assert data["embeddings_accum"].tobytes() == opt.accum.embeddings.rows.tobytes(), name
        assert_same_checkpoint_arrays(paths[name], load_checkpoint(paths[name]), params, opt)
    for name in ("trained", "untrained"):
        assert_checkpoints_load_the_same(paths[name], paths[f"{name}-all-rows"])


@pytest.mark.parametrize("tower", ["lookup", "mlp"])
def test_checkpoint_stores_only_changed_embedding_rows(tmp_path, tower):
    # A table holding only rows that training changed, as train() leaves the
    # corpus rows, stores exactly those rows, however small the change: a
    # sign flip with a zero accumulator, one unit in the last place, or a
    # nonzero accumulator on an initial value.
    config = TrainConfig(tower=tower, emb_dim=4, hidden_dim=5 if tower == "mlp" else None, learning_rate=0.25, seed=7)
    params = init_params(7, num_rows=10, emb_dim=4, tower=tower, feature_dim=3, hidden_dim=5, num_images=3, rows=[2, 4, 6])
    opt = OptimizerState.for_params(params, config.learning_rate)
    table, table_accum = params.embeddings.rows, opt.accum.embeddings.rows
    table[0, 1] = -table[0, 1]  # row 2: value changed, accumulator zero
    table[1, 3] = np.nextafter(table[1, 3], 1.0)  # row 4: one unit in the last place
    table_accum[2, 0] = 0.25  # row 6: accumulator nonzero, value initial
    for accum in opt.accum.tower.arrays().values():  # stored whole
        accum.flat[0] = 1.5
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=1)
    assert stored_row_ids(path) == [2, 4, 6]
    loaded = load_checkpoint(path)
    assert loaded.params.embeddings.ids.tolist() == [2, 4, 6]
    assert_same_checkpoint_arrays(path, loaded, params, opt)
    assert_resaves_byte_for_byte(path, loaded)


@pytest.mark.parametrize("trained", [True, False], ids=["every-accumulator-set", "untrained"])
def test_save_checkpoint_draws_only_the_rows_with_a_zero_accumulator(tmp_path, monkeypatch, trained):
    # Of the rows with a zero accumulator, saving draws none: every held row
    # is stored as it is, so a table whose rows span five 1,024-row chunks
    # is saved without a draw, trained or untrained (every accumulator 0).
    held = np.arange(1, 5000, 3)
    config = TrainConfig(tower="lookup", emb_dim=3, seed=2)
    params = init_params(2, num_rows=5000, emb_dim=3, tower="lookup", num_images=2, rows=held)
    opt = OptimizerState.for_params(params, config.learning_rate)
    if trained:
        params.embeddings.rows[::2] += 1.0
        opt.accum.embeddings.rows[:, 1] = 0.25
    drawn: list[int] = []

    def counting(seed, ids, emb_dim):
        drawn.extend(ids.tolist())
        return initial_rows(seed, ids, emb_dim)

    path = tmp_path / "ckpt.npz"
    with monkeypatch.context() as patched:
        patched.setattr("imglex.model.initial_rows", counting)
        save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=1)
    assert drawn == []
    assert stored_row_ids(path) == held.tolist()
    assert_same_checkpoint_arrays(path, load_checkpoint(path), params, opt)


@pytest.mark.parametrize("tower", ["lookup", "mlp"])
def test_checkpoint_of_the_compact_optimizer_equals_the_dense_one(tmp_path, tower):
    # train() holds only the corpus rows, every 250th row of a 3,000-row
    # table; an all-rows table and optimizer holding the same values store
    # every row, and the two files load to the same values. Row 500 is reset
    # to its initial value but keeps its accumulator.
    tables, config = toy_tables(tower)
    (params, compact), (dense_params, dense) = tables["trained"], tables["trained-all-rows"]
    held = params.embeddings.ids
    params.embeddings.rows[2] = dense_params.embeddings.rows[500] = initial_rows(config.seed, np.array([500]), 4)[0]
    assert compact.accum.embeddings.rows[2].any()
    paths = tmp_path / "compact.npz", tmp_path / "dense.npz"
    for path, (p, opt) in zip(paths, ((params, compact), (dense_params, dense))):
        save_checkpoint(path, p, opt, config, vocab_hash="h", epoch=2)
    assert stored_row_ids(paths[0]) == held.tolist()
    assert stored_row_ids(paths[1]) == list(range(3000))
    assert_checkpoints_load_the_same(*paths)
    assert_same_checkpoint_arrays(paths[0], load_checkpoint(paths[0]), params, compact)


def test_checkpoint_of_changed_rows_only_loads_and_resaves_them(tmp_path):
    # Checkpoints once stored only the held rows that training had changed,
    # in value or accumulator; a row left out is initial with a zero
    # accumulator. Such a file loads to the values of the table it was saved
    # from and re-saves exactly the rows it stores.
    config = TrainConfig(tower="lookup", emb_dim=4, learning_rate=0.25, seed=5)
    params = init_params(5, num_rows=3000, emb_dim=4, tower="lookup", num_images=3, rows=np.array([1, 4, 1024, 1500, 2999]))
    opt = OptimizerState.for_params(params, config.learning_rate)
    changed = [1, 3]  # the slots of rows 4 and 1500
    params.embeddings.rows[changed] += 0.125
    opt.accum.embeddings.rows[changed] = 0.5
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=1)
    with np.load(path) as data:
        entries = {name: data[name] for name in data.files}
    np.savez(path, **{**entries, **{name: entries[name][changed] for name in ("embeddings_ids", "embeddings", "embeddings_accum")}})
    loaded = load_checkpoint(path)
    assert loaded.params.embeddings.ids.tolist() == [4, 1500]
    assert_same_checkpoint_arrays(path, loaded, params, opt)
    assert_resaves_byte_for_byte(path, loaded)


def test_checkpoint_meta_holds_each_value_once_and_older_meta_loads(tmp_path):
    # The table holds every row, so every row is stored.
    params = init_params(1, num_rows=6, emb_dim=4, tower="lookup", num_images=3)
    opt = OptimizerState.for_params(params, 0.25)
    config = TrainConfig(tower="lookup", emb_dim=4, learning_rate=0.25)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=3)
    with np.load(path) as data:
        kept = {name: data[name] for name in data.files if name != "meta"}
        meta = json.loads(data["meta"].tobytes())
    assert sorted(meta) == ["config", "epoch", "vocab_hash"]
    # Earlier checkpoints also stored the optimizer's rate and epsilon in meta; they are ignored.
    np.savez(path, meta=json_entry({**meta, "learning_rate": 0.75, "epsilon": 0.0}), **kept)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.optimizer.learning_rate == config.learning_rate
    assert (loaded.vocab_hash, loaded.epoch) == ("h", 3)
    assert stored_row_ids(path) == list(range(6))
    assert_same_checkpoint_arrays(path, loaded, params, opt)


def test_load_checkpoint_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match=r"cannot read checkpoint .*missing\.npz"):
        load_checkpoint(tmp_path / "missing.npz")


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "content",
    [b"", b"not an archive\n", b"PK\x03\x04truncated", npy_bytes(np.arange(3.0))],
    ids=["empty", "text", "bad-zip", "npy"],
)
def test_load_checkpoint_not_npz_is_data_error(tmp_path, content):
    path = tmp_path / "ckpt.npz"
    path.write_bytes(content)
    with pytest.raises(DataError, match=r"ckpt\.npz: not a checkpoint: not an \.npz archive"):
        load_checkpoint(path)


def saved_checkpoint_entries(tmp_path, tower="lookup"):
    """The path of a valid checkpoint and its entries by name: emb_dim 4, 6
    table rows, 3 images (lookup) or hidden_dim 5 and feature_dim 3 (MLP).
    The table holds all 6 rows, drawn from seed 1 under a seed-0 config, so
    no stored row equals its initial value."""
    hidden_dim = 5 if tower == "mlp" else None
    params = init_params(1, num_rows=6, emb_dim=4, tower=tower, feature_dim=3, hidden_dim=hidden_dim, num_images=3)
    opt = OptimizerState.for_params(params, learning_rate=0.25)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, TrainConfig(tower=tower, emb_dim=4, hidden_dim=hidden_dim), vocab_hash="h", epoch=0)
    with np.load(path) as data:
        return path, {name: data[name] for name in data.files}


# A dense checkpoint, written before only changed embedding rows were
# stored, has no 'embeddings_ids' entry.
@pytest.mark.parametrize("dropped", ["meta", "embeddings_accum", "embeddings_ids", "embeddings_num_rows"])
def test_load_checkpoint_missing_entry_is_data_error(tmp_path, dropped):
    path, entries = saved_checkpoint_entries(tmp_path)
    np.savez(path, **without(entries, dropped))
    with pytest.raises(DataError, match=rf"ckpt\.npz: checkpoint has no '{dropped}' entry"):
        load_checkpoint(path)


def json_entry(value):
    return np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def config_entry(meta, **changes):
    return json_entry({**meta, "config": {**meta["config"], **changes}})


# case -> (the meta entry, made from a valid meta dict; the DataError message after "ckpt.npz: ")
MALFORMED_META = {
    "not-utf8": (lambda meta: np.frombuffer(b"\xff\xfe{}", dtype=np.uint8), "checkpoint 'meta' entry is not UTF-8 JSON"),
    "not-json": (lambda meta: np.frombuffer(b"{config", dtype=np.uint8), "checkpoint 'meta' entry is not UTF-8 JSON"),
    "int-scalar": (lambda meta: np.array(2**62), "checkpoint 'meta' entry is not UTF-8 JSON"),
    "not-object": (lambda meta: json_entry([1, 2]), "checkpoint 'meta' entry is not a JSON object"),
    "object-array": (lambda meta: np.array([{}], dtype=object), "checkpoint entry 'meta' cannot be read"),
    "no-vocab-hash": (lambda meta: json_entry(without(meta, "vocab_hash")), "checkpoint meta has no 'vocab_hash' field"),
    "vocab-hash-int": (lambda meta: json_entry({**meta, "vocab_hash": 17}), "checkpoint meta 'vocab_hash' must be a string, got 17"),
    "epoch-string": (lambda meta: json_entry({**meta, "epoch": "three"}), "checkpoint meta 'epoch' must be an integer >= 0, got 'three'"),
    "epoch-negative": (lambda meta: json_entry({**meta, "epoch": -4}), "checkpoint meta 'epoch' must be an integer >= 0, got -4"),
    "epoch-bool": (lambda meta: json_entry({**meta, "epoch": True}), "checkpoint meta 'epoch' must be an integer >= 0, got True"),
    "config-not-object": (lambda meta: json_entry({**meta, "config": [1]}), "checkpoint meta 'config' is not a JSON object"),
    "config-unknown-key": (
        lambda meta: config_entry(meta, colour="red"),
        "checkpoint meta 'config' has unknown field 'colour'",
    ),
    "config-missing-key": (
        lambda meta: json_entry({**meta, "config": without(meta["config"], "emb_dim")}),
        "checkpoint meta 'config' has no 'emb_dim' field",
    ),
    "config-invalid": (
        lambda meta: config_entry(meta, batch_size=1),
        "checkpoint meta 'config' is invalid: batch_size must be >= 2",
    ),
    "config-wrong-type": (lambda meta: config_entry(meta, emb_dim="4"), "checkpoint meta 'config' is invalid: "),
    "config-float-seed": (lambda meta: config_entry(meta, seed=1.5), "checkpoint meta 'config' is invalid: seed must be an integer, got 1.5"),
    "config-float-emb-dim": (
        lambda meta: config_entry(meta, emb_dim=3.0),
        "checkpoint meta 'config' is invalid: emb_dim must be an integer, got 3.0",
    ),
    "config-float-epochs": (
        lambda meta: config_entry(meta, epochs=2.5),
        "checkpoint meta 'config' is invalid: epochs must be an integer, got 2.5",
    ),
    "config-bool-logit-scale": (
        lambda meta: config_entry(meta, logit_scale=True),
        "checkpoint meta 'config' is invalid: logit_scale must be a number, got True",
    ),
    "config-string-learning-rate": (
        lambda meta: config_entry(meta, learning_rate="0.5"),
        "checkpoint meta 'config' is invalid: learning_rate must be a number, got '0.5'",
    ),
    "config-nan-learning-rate": (
        lambda meta: config_entry(meta, learning_rate=math.nan),
        "checkpoint meta 'config' is invalid: learning_rate must be finite and positive",
    ),
    # Checkpoints written while the MLP output width was a setting of its own.
    "config-out-dim": (lambda meta: config_entry(meta, out_dim=4), "checkpoint meta 'config' has unknown field 'out_dim'"),
    "config-tower-mismatch": (
        lambda meta: config_entry(meta, tower="mlp", hidden_dim=5),
        "checkpoint meta 'config.tower' is 'mlp', but the arrays hold a lookup tower",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_META))
def test_load_checkpoint_malformed_meta_is_data_error(tmp_path, case):
    make_entry, message = MALFORMED_META[case]
    path, entries = saved_checkpoint_entries(tmp_path)
    np.savez(path, **{**entries, "meta": make_entry(json.loads(entries["meta"].tobytes()))})
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: {message}")):
        load_checkpoint(path)


# case -> (tower, the entries replacing those of saved_checkpoint_entries,
# the DataError message after "ckpt.npz: ")
MALFORMED_ARRAYS = {
    "accum-shape": (
        "lookup",
        dict(embeddings_accum=np.zeros((2, 9))),
        "checkpoint entry 'embeddings_accum' has shape (2, 9), but 'embeddings' has (6, 4)",
    ),
    "float32-U": ("mlp", dict(U=np.zeros((4, 5), dtype=np.float32)), "checkpoint entry 'U' is float32, not float64"),
    "int64-b1": ("mlp", dict(b1=np.zeros(5, dtype=np.int64)), "checkpoint entry 'b1' is int64, not float64"),
    "float32-accum": (
        "lookup",
        dict(image_vectors_accum=np.zeros((3, 4), dtype=np.float32)),
        "checkpoint entry 'image_vectors_accum' is float32, not float64",
    ),
    "table-width": (
        "lookup",
        dict(embeddings=np.zeros((6, 7)), embeddings_accum=np.zeros((6, 7))),
        "checkpoint entry 'embeddings' has shape (6, 7), but the config needs (?, 4)",
    ),
    "image-width": (
        "lookup",
        dict(image_vectors=np.zeros((3, 5)), image_vectors_accum=np.zeros((3, 5))),
        "checkpoint entry 'image_vectors' has shape (3, 5), but the config needs (?, 4)",
    ),
    "V-hidden": (
        "mlp",
        dict(V=np.zeros((6, 3)), V_accum=np.zeros((6, 3))),
        "checkpoint entry 'V' has shape (6, 3), but the config needs (5, ?)",
    ),
    "U-hidden": (
        "mlp",
        dict(U=np.zeros((4, 6)), U_accum=np.zeros((4, 6))),
        "checkpoint entry 'U' has shape (4, 6), but the config needs (4, 5)",
    ),
    "b2-matrix": (
        "mlp",
        dict(b2=np.zeros((4, 1)), b2_accum=np.zeros((4, 1))),
        "checkpoint entry 'b2' has shape (4, 1), but the config needs (4,)",
    ),
    "ids-too-few": (
        "lookup",
        dict(embeddings_ids=np.arange(5)),
        "checkpoint entry 'embeddings_ids' has shape (5,), but 'embeddings' stores 6 rows",
    ),
    "ids-float": (
        "lookup",
        dict(embeddings_ids=np.arange(6.0)),
        "checkpoint entry 'embeddings_ids' is float64, not int64",
    ),
    "ids-not-ascending": (
        "lookup",
        dict(embeddings_ids=np.array([0, 2, 1, 3, 4, 5])),
        "checkpoint entry 'embeddings_ids' is not strictly ascending",
    ),
    "ids-repeated": (
        "lookup",
        dict(embeddings_ids=np.array([0, 1, 1, 3, 4, 5])),
        "checkpoint entry 'embeddings_ids' is not strictly ascending",
    ),
    "ids-negative": (
        "lookup",
        dict(embeddings_ids=np.arange(-1, 5)),
        "checkpoint entry 'embeddings_ids' holds an id outside [0, 6)",
    ),
    "ids-past-end": (
        "lookup",
        dict(embeddings_num_rows=np.array(5)),
        "checkpoint entry 'embeddings_ids' holds an id outside [0, 5)",
    ),
    "num-rows-negative": (
        "lookup",
        dict(embeddings_num_rows=np.array(-1)),
        "checkpoint entry 'embeddings_num_rows' is not a non-negative integer scalar",
    ),
    "num-rows-float": (
        "lookup",
        dict(embeddings_num_rows=np.array(6.0)),
        "checkpoint entry 'embeddings_num_rows' is not a non-negative integer scalar",
    ),
    "num-rows-past-int64": (
        "lookup",
        dict(embeddings_num_rows=np.array(2**64 - 1, dtype=np.uint64)),
        "checkpoint entry 'embeddings_num_rows' is 18446744073709551615, past the int64 limit of 2**63 - 1 embedding rows",
    ),
    "num-rows-array": (
        "lookup",
        dict(embeddings_num_rows=np.array([6])),
        "checkpoint entry 'embeddings_num_rows' is not a non-negative integer scalar",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARRAYS))
def test_load_checkpoint_malformed_array_is_data_error(tmp_path, case):
    tower, replaced, message = MALFORMED_ARRAYS[case]
    path, entries = saved_checkpoint_entries(tmp_path, tower)
    np.savez(path, **{**entries, **replaced})
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: {message}")):
        load_checkpoint(path)


# Tables of 1.1 PB, of 3.2 TB and at the int64 limit, there with the row
# count stored as uint64, as another writer could store it.
@pytest.mark.parametrize(
    "num_rows, dtype", [(2**45, np.int64), (10**11, np.int64), (2**63 - 1, np.uint64)], ids=["2**45", "10**11", "uint64-2**63-1"]
)
def test_load_checkpoint_of_a_huge_table_draws_the_rows_not_stored(tmp_path, num_rows, dtype):
    path, entries = saved_checkpoint_entries(tmp_path)
    ids = np.arange(num_rows - 6, num_rows)  # the six stored rows end the table
    np.savez(path, **{**entries, "embeddings_ids": ids, "embeddings_num_rows": np.array(num_rows, dtype=dtype)})
    loaded = load_checkpoint(path)
    table = loaded.params.embeddings
    assert (table.ids.tolist(), table.num_rows) == (ids.tolist(), num_rows)
    assert table.read(ids).tobytes() == entries["embeddings"].tobytes()
    far = np.array([0, 2**33 + 5, num_rows - 7])
    assert table.read(far).tobytes() == initial_rows(loaded.config.seed, far, 4).tobytes()


def test_load_checkpoint_meta_member_not_npy_is_data_error(tmp_path):
    # np.load hands back the raw bytes of a member that is not an .npy file.
    path, entries = saved_checkpoint_entries(tmp_path)
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in without(entries, "meta").items():
            archive.writestr(f"{name}.npy", npy_bytes(array))
        archive.writestr("meta.npy", b"\x93garbage\xff")
    with pytest.raises(DataError, match=r"ckpt\.npz: checkpoint 'meta' entry is not UTF-8 JSON"):
        load_checkpoint(path)


def test_optimizer_state_is_zero_and_owns_its_arrays():
    params = init_params(2, num_rows=6, emb_dim=4, tower="mlp", feature_dim=3, hidden_dim=5)
    opt = OptimizerState.for_params(params, learning_rate=0.5)
    for name, theta in params.arrays().items():
        accum = opt.accum.arrays()[name]
        assert accum.shape == theta.shape and accum.dtype == theta.dtype, name
        assert not accum.any() and not np.shares_memory(accum, theta), name


def test_dense_optimizer_serves_the_bench_contract():
    # bench/counts.py reads opt.emb_accum and opt.mlp_accum of a for_params
    # optimizer and compares their nbytes with the parameters' (the --trace 1
    # param_bytes gate): without rows, the accumulators are table-sized.
    params = init_params(2, num_rows=7, emb_dim=4, tower="mlp", feature_dim=3, hidden_dim=5)
    opt = OptimizerState.for_params(params, learning_rate=0.5)
    table = params.embeddings.rows
    assert opt.emb_accum.shape == table.shape and opt.emb_accum.nbytes == table.nbytes
    assert params.embeddings.ids.tolist() == list(range(7)) and params.embeddings.num_rows == 7
    t, a = params.tower, opt.mlp_accum
    measured = sum(x.nbytes for x in [table, opt.emb_accum, t.V, t.b1, t.U, t.b2, a.V, a.b1, a.U, a.b2])
    assert measured == 2 * sum(theta.nbytes for theta in params.arrays().values())
    opt.accum.embeddings.rows[3, 1] = 2.5  # the dense view of a full block is the block itself
    assert opt.emb_accum[3, 1] == 2.5


@pytest.mark.parametrize("rows", [[3, 1], [1, 1], [-1, 2], [2, 12]], ids=["descending", "repeated", "negative", "past-table"])
def test_init_params_rejects_bad_held_rows(rows):
    with pytest.raises(ValueError, match=r"held rows must be ascending, distinct and in \[0, 12\)"):
        init_params(2, num_rows=12, emb_dim=3, tower="lookup", num_images=2, rows=np.array(rows))


def test_sgd_step_on_an_uncovered_row_raises_and_writes_nothing():
    params = init_params(3, num_rows=8, emb_dim=2, tower="mlp", feature_dim=2, hidden_dim=2, rows=np.array([1, 4, 6]))
    opt = OptimizerState.for_params(params, learning_rate=0.1)
    ones = MlpImageTower(V=np.ones((2, 2)), b1=np.ones(2), U=np.ones((2, 2)), b2=np.ones(2))
    sgd_step(params, Gradients(embeddings=RowGradient(rows=np.array([1, 6]), values=np.ones((2, 2))), tower=ones.arrays()), opt)
    before = [a.copy() for a in [*params.arrays().values(), *opt.accum.arrays().values()]]
    bad = Gradients(embeddings=RowGradient(rows=np.array([1, 5]), values=np.ones((2, 2))), tower=ones.arrays())
    with pytest.raises(ValueError, match="embedding row 5 is not held by the table"):
        sgd_step(params, bad, opt)
    after = [*params.arrays().values(), *opt.accum.arrays().values()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after, strict=True))


def test_compact_and_dense_optimizers_step_bit_identically():
    rng = np.random.default_rng(41)
    dense_params, batch = random_params_and_batch(rng, tower="lookup", num_rows=20)
    held = np.unique(batch.token_ids)
    table = EmbeddingTable(rows=dense_params.embeddings.rows[held], ids=held, num_rows=20, seed=0)
    params = ModelParams(embeddings=table, tower=LookupImageTower(vectors=dense_params.tower.vectors.copy()))
    compact = OptimizerState.for_params(params, learning_rate=0.5)
    dense = OptimizerState.for_params(dense_params, learning_rate=0.5)
    for _ in range(3):
        sgd_step(params, batch_gradients(params, batch, 2.0), compact)
        sgd_step(dense_params, batch_gradients(dense_params, batch, 2.0), dense)
    assert table.rows.tobytes() == dense_params.embeddings.rows[held].tobytes()
    assert params.tower.vectors.tobytes() == dense_params.tower.vectors.tobytes()
    assert compact.accum.embeddings.rows.tobytes() == dense.accum.embeddings.rows[held].tobytes()
    assert compact.accum.tower.vectors.tobytes() == dense.accum.tower.vectors.tobytes()


def test_train_accumulates_only_the_corpus_rows():
    # 40 distinct token ids spread over a 200k-row table: the table holds
    # those 40 rows and the optimizer accumulates for them, so training
    # allocates neither the 12.8 MB table nor a table-sized accumulator.
    rng = np.random.default_rng(42)
    ids = np.sort(rng.choice(200_000, size=40, replace=False))
    corpus = pack_examples([(rng.choice(ids, size=2), int(rng.integers(3)), 1.0) for _ in range(64)])
    config = TrainConfig(tower="lookup", emb_dim=8, epochs=1, batch_size=16, seed=5)
    tracemalloc.start()
    try:
        result = train(corpus, config, num_embedding_rows=200_000, num_images=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 200_000 * 8 * 8
    assert peak < table_bytes / 10, (peak, table_bytes)
    held = np.unique(corpus.token_ids)
    assert result.params.embeddings.ids.tolist() == held.tolist() and result.params.embeddings.num_rows == 200_000
    assert result.params.embeddings.rows.shape == result.optimizer.accum.embeddings.rows.shape == (held.size, 8)


def test_train_rejects_token_ids_outside_the_table_before_drawing_it(monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("init_params ran")

    monkeypatch.setattr("imglex.training.init_params", no_init)
    examples = make_toy_examples(np.random.default_rng(43), 8, 5, 2)
    examples[3] = ([1, 9], 0, 1.0)
    examples[5] = ([7], 1, 1.0)
    config = TrainConfig(tower="lookup", emb_dim=4, batch_size=4)
    with pytest.raises(ValueError) as caught:
        train(pack_examples(examples), config, num_embedding_rows=5, num_images=2)
    assert str(caught.value) == "token id 7 is outside the embedding table's rows [0, 5)"
    examples[5] = ([-2], 1, 1.0)
    with pytest.raises(ValueError, match=r"token id -2 is outside"):
        train(pack_examples(examples), config, num_embedding_rows=5, num_images=2)


@pytest.mark.parametrize("num_rows", [10**11, 10**17])  # tables of 80 TB and of a byte count past int64
def test_train_on_a_huge_table_allocates_only_the_held_rows(tmp_path, num_rows):
    examples = make_toy_examples(np.random.default_rng(44), 8, 5, 2)
    examples[2] = ([num_rows - 1, 1], 0, 1.0)
    corpus = pack_examples(examples)
    config = TrainConfig(tower="lookup", emb_dim=100, batch_size=4, epochs=2, seed=1)
    path = tmp_path / "ckpt.npz"
    tracemalloc.start()
    try:
        result = train(corpus, config, num_embedding_rows=num_rows, num_images=2)
        save_checkpoint(path, result.params, result.optimizer, config, vocab_hash="h", epoch=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    held = np.unique(corpus.token_ids)
    assert result.params.embeddings.ids.tolist() == held.tolist() and held[-1] == num_rows - 1
    with np.load(path) as data:
        assert int(data["embeddings_num_rows"]) == num_rows
        assert data["embeddings_ids"].tolist() == held.tolist()


# Epoch losses of the conftest corpus as the unpacked per-batch step computed
# them (np.add.reduceat forward, np.add.at scatter, B x B cosine products);
# the packed, fused step must reproduce them to rel 1e-9.
PINNED_MLP_LOSSES = [3.6880605357185674, 3.2781013046625085, 3.2623990129619513, 3.2605845429661864, 3.25566272996908]
PINNED_LOOKUP_LOSSES = [5.869362419337293, 3.572898210119778, 3.3741842761207943, 3.3059701254888627, 3.2617221446481435]


def test_train_epoch_losses_pinned(small_synth_corpus, small_synth_training_run):
    assert small_synth_training_run.epoch_losses == pytest.approx(PINNED_MLP_LOSSES, rel=1e-9, abs=0)
    corpus, vocab = small_synth_corpus
    prep = prepare_examples(corpus.triples, vocab, tower="lookup")
    config = TrainConfig(tower="lookup", emb_dim=8, batch_size=128, epochs=5, learning_rate=0.5, logit_scale=10.0, seed=3)
    result = train(prep.examples, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    assert result.epoch_losses == pytest.approx(PINNED_LOOKUP_LOSSES, rel=1e-9, abs=0)


def ragged_mlp_batch(rng):
    """Ragged queries with a token repeated inside one query and shared
    across queries, and one image whose ReLU output is all zero."""
    params = init_params(0, num_rows=12, emb_dim=5, tower="mlp", feature_dim=4, hidden_dim=6)
    params.embeddings.rows[:] = rng.normal(0, 0.6, size=(12, 5))
    tower = params.tower
    tower.V[:] = rng.normal(0, 1.0, size=tower.V.shape)
    tower.U[:] = rng.normal(0, 1.0, size=tower.U.shape)
    tower.b1[:] = -np.abs(rng.normal(0, 0.3, size=6))
    tower.b2[:] = -np.abs(rng.normal(0, 0.3, size=5))
    queries = [[3, 3, 7], [7], [1, 3, 9, 9, 9], [0, 11], [5], [3, 5, 7, 1]]
    images = [rng.normal(0, 3.0, size=4) for _ in queries]
    images[2] = np.zeros(4)  # negative biases: relu(U relu(b1) + b2) = 0
    return params, pack_examples([(q, images[i], float(rng.uniform(0.2, 2.0))) for i, q in enumerate(queries)])


def test_ragged_batch_matches_oracles():
    rng = np.random.default_rng(20)
    params, batch = ragged_mlp_batch(rng)
    assert np.array_equal(batch.counts, [3, 1, 5, 2, 1, 4])
    assert np.array_equal(batch.offsets, [0, 3, 4, 9, 11, 12])
    assert np.all(image_repr_mlp(params.tower, batch.images[2]) == 0.0)
    assert np.count_nonzero(image_repr_mlp(params.tower, batch.images[0])) > 0
    for scale in (1.0, 4.0):
        fast = batch_loss(params, batch, scale).mean_weighted_loss
        assert abs(fast - batch_loss_bruteforce(params, batch, scale)) <= 1e-9

    assert list(batch_gradients(params, batch, 2.5).embeddings.rows) == [0, 1, 3, 5, 7, 9, 11]
    errs = rel_errs_to_numeric(params, batch, 2.5)
    assert list(errs) == ["embeddings", "V", "b1", "U", "b2"] and max(errs.values()) < 1e-4, errs


def test_gradients_match_finite_differences_on_crowded_rows():
    # 9 queries over 6 rows: most rows repeat within and across queries.
    for tower in ("mlp", "lookup"):
        for seed in (21, 22):
            params, batch = random_params_and_batch(np.random.default_rng(seed), tower=tower, batch_size=9, num_rows=6)
            errs = rel_errs_to_numeric(params, batch, 1.5)
            assert max(errs.values()) < 1e-4, (tower, seed, errs)


def test_logits_are_scaled_cosines_and_owned():
    rng = np.random.default_rng(23)
    params, batch = ragged_mlp_batch(rng)
    report = batch_loss(params, batch, 3.0)
    assert report.logits.shape == (6, 6) and report.logits.dtype == np.float64
    queries = [query_repr(params.embeddings, ids) for ids in np.split(batch.token_ids, batch.offsets[1:])]
    images = [image_repr_mlp(params.tower, f) for f in batch.images]
    expected = [[3.0 * cosine(q, i) for i in images] for q in queries]
    assert np.allclose(report.logits, expected, rtol=0, atol=1e-12)

    kept = report.logits.copy()
    opt = OptimizerState.for_params(params, learning_rate=0.5)
    for _ in range(3):
        sgd_step(params, batch_gradients(params, batch, 3.0), opt)
        batch_loss(params, batch, 3.0)
    assert np.array_equal(report.logits, kept)
    assert batch_loss(params, batch, 3.0).mean_weighted_loss != report.mean_weighted_loss


def test_select_equals_packing_the_subset():
    rng = np.random.default_rng(25)
    examples = make_toy_examples(rng, 30, 9, 4)
    packed = pack_examples(examples)
    index = rng.permutation(30)[:11]
    got = packed.select(index)
    want = pack_examples([examples[i] for i in index])
    for name in ("token_ids", "counts", "offsets", "images", "weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_train_config_rejects_batch_of_one():
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(tower="lookup", emb_dim=4, batch_size=1).validate()
    TrainConfig(tower="lookup", emb_dim=4, batch_size=2).validate()


def test_train_rejects_single_example():
    config = TrainConfig(tower="lookup", emb_dim=4, batch_size=4)
    with pytest.raises(ValueError, match="at least 2"):
        train(pack_examples(make_toy_examples(np.random.default_rng(26), 1, 4, 2)), config, num_embedding_rows=4)


def test_train_merges_trailing_singleton_batch():
    # 33 examples at B=16: batches of 16 and 17, not 16, 16 and 1.
    rng = np.random.default_rng(27)
    corpus = pack_examples(make_toy_examples(rng, 33, 10, 4))
    config = TrainConfig(tower="lookup", emb_dim=5, epochs=2, batch_size=16, seed=4, logit_scale=3.0)
    result = train(corpus, config, num_embedding_rows=10, num_images=4)

    params = init_params(4, num_rows=10, emb_dim=5, tower="lookup", num_images=4)
    opt = OptimizerState.for_params(params, config.learning_rate)
    shuffle_rng = np.random.default_rng([4, 1])
    losses = []
    for _ in range(2):
        order = shuffle_rng.permutation(33)
        total = 0.0
        for start, end in ((0, 16), (16, 33)):
            batch = corpus.select(order[start:end])
            total += batch_loss(params, batch, 3.0).mean_weighted_loss * batch.size
            sgd_step(params, batch_gradients(params, batch, 3.0), opt)
        losses.append(total / 33)
    assert result.epoch_losses == pytest.approx(losses, rel=1e-12)
    assert np.allclose(result.params.embeddings.rows, params.embeddings.rows[result.params.embeddings.ids], rtol=0, atol=1e-12)


def test_train_divergence_names_epoch_batch_and_cause():
    rng = np.random.default_rng(28)
    corpus = pack_examples([(rng.integers(0, 10, size=2), rng.normal(size=4), 1.0) for _ in range(64)])
    config = TrainConfig(
        tower="mlp", emb_dim=5, hidden_dim=6, batch_size=16, epochs=2, learning_rate=1e200, logit_scale=1e6
    )
    with pytest.raises(TrainingDiverged) as caught:
        train(corpus, config, num_embedding_rows=10)
    err = caught.value
    assert (err.epoch, err.batch) == (0, 1)
    assert err.what == "image tower output"
    assert str(err) == "epoch 0, batch 1: non-finite image tower output"


def test_train_norm_overflow_is_divergence():
    # Parameters near 1e200 are finite, but their norm overflows to inf;
    # training must stop rather than zero those rows and run on at log(B).
    corpus = generate_synthetic(SyntheticSpec(num_concepts=20, num_languages=3, words_per_concept=2, num_examples=600))
    vocab = build_vocab(
        (tok for t in corpus.triples for tok in tokenize(t.query, t.lang, LangMode.AWARE)),
        min_count=1,
        num_buckets=10,
        mode=LangMode.AWARE,
    )
    prep = prepare_examples(corpus.triples, vocab, tower="lookup")
    config = TrainConfig(tower="lookup", emb_dim=100, batch_size=100, learning_rate=1e200, logit_scale=1e6)
    with pytest.raises(TrainingDiverged) as caught:
        train(prep.examples, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    err = caught.value
    assert err.what in ("query norm", "image norm")
    assert str(err) == f"epoch {err.epoch}, batch {err.batch}: non-finite {err.what}"


def test_train_nonfinite_loss_is_divergence():
    # At logit scale 1e308 the weighted losses are near 1e308 and their batch
    # mean overflows; training must stop rather than record a loss of inf.
    corpus = pack_examples(make_toy_examples(np.random.default_rng(30), 64, 10, 4))
    config = TrainConfig(tower="lookup", emb_dim=4, batch_size=16, epochs=2, logit_scale=1e308)
    with pytest.raises(TrainingDiverged) as caught:
        train(corpus, config, num_embedding_rows=10, num_images=4)
    err = caught.value
    assert (err.epoch, err.batch, err.what) == (0, 0, "loss")
    assert str(err) == "epoch 0, batch 0: non-finite loss"


def test_train_accumulator_overflow_is_divergence():
    # At logit scale 1e160 the batch loss (near 1e159) and every gradient are
    # finite, but the squared gradients overflow the Adagrad accumulators;
    # training must stop rather than run on with updates of g / inf = 0.
    corpus = pack_examples(make_toy_examples(np.random.default_rng(30), 64, 10, 4))
    config = TrainConfig(tower="lookup", emb_dim=4, batch_size=16, epochs=2, logit_scale=1e160)
    with pytest.raises(TrainingDiverged) as caught:
        train(corpus, config, num_embedding_rows=10, num_images=4)
    err = caught.value
    assert (err.epoch, err.batch, err.what) == (0, 0, "Adagrad accumulator")
    assert str(err) == "epoch 0, batch 0: non-finite Adagrad accumulator"
    result = train(corpus, dataclasses.replace(config, logit_scale=1e150), num_embedding_rows=10, num_images=4)
    assert all(np.isfinite(accum).all() for accum in result.optimizer.accum.arrays().values())


def test_train_rejects_examples_for_the_other_tower():
    corpus = pack_examples(make_toy_examples(np.random.default_rng(29), 8, 5, 2))
    config = TrainConfig(tower="mlp", emb_dim=4, hidden_dim=3, batch_size=4)
    with pytest.raises(ValueError, match="lookup tower"):
        train(corpus, config, num_embedding_rows=5)


def hashed_synth_corpus(tower, seed, multilingual_filter=False):
    """A gensynth corpus whose every third query also carries a rare token
    (hashed into one of 3,000 buckets, so the table spans several chunks)
    and every tenth triple an empty query, plus its vocabulary and examples."""
    corpus = generate_synthetic(SyntheticSpec(num_concepts=6, num_examples=400, feature_dim=5, images_per_concept=8, seed=seed))
    triples = [
        TripleRecord(t.weight, t.lang, f"{t.query} rare{k}" if k % 3 == 0 else ("?!" if k % 10 == 1 else t.query), t.image_id)
        for k, t in enumerate(corpus.triples)
    ]
    if multilingual_filter:
        triples = filter_multilingual(triples)
    vocab = build_vocab(
        (tok for t in triples for tok in tokenize(t.query, t.lang, LangMode.AWARE)), min_count=6, num_buckets=3000, mode=LangMode.AWARE
    )
    prep = prepare_examples(triples, vocab, tower=tower, features=corpus.features)
    assert prep.dropped > 0 and np.any(prep.examples.token_ids >= vocab.vocab_size)
    return vocab, prep


def train_through_all_rows(corpus, config, num_rows, num_images):
    """train()'s loop over a table holding every row and an optimizer for
    every row: the reference the held-rows table must reproduce bit for bit."""
    params = init_params(
        config.seed,
        num_rows=num_rows,
        emb_dim=config.emb_dim,
        tower=config.tower,
        feature_dim=corpus.images.shape[-1],
        hidden_dim=config.hidden_dim,
        num_images=num_images,
    )
    opt = OptimizerState.for_params(params, config.learning_rate)
    n = corpus.size
    starts = list(range(0, n, config.batch_size))
    if n % config.batch_size == 1:
        starts.pop()
    shuffle_rng = np.random.default_rng([config.seed, 1])
    losses = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start, end in zip(starts, starts[1:] + [n]):
            batch = corpus.select(order[start:end])
            total += batch_loss(params, batch, config.logit_scale).mean_weighted_loss * batch.size
            sgd_step(params, batch_gradients(params, batch, config.logit_scale), opt)
        losses.append(total / n)
    return params, opt, losses


@pytest.mark.parametrize("tower", ["lookup", "mlp"])
def test_held_rows_train_bit_identically_to_an_all_rows_table(tmp_path, tower):
    vocab, prep = hashed_synth_corpus(tower, seed=7)
    config = TrainConfig(tower=tower, emb_dim=6, hidden_dim=5 if tower == "mlp" else None, batch_size=64, epochs=3, logit_scale=5.0, seed=4)
    result = train(prep.examples, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    params, opt, losses = train_through_all_rows(prep.examples, config, vocab.total_ids, prep.num_images)
    table, held = result.params.embeddings, result.params.embeddings.ids
    assert held.size < vocab.total_ids / 2
    assert result.epoch_losses == losses
    assert table.rows.tobytes() == params.embeddings.rows[held].tobytes()
    assert result.optimizer.accum.embeddings.rows.tobytes() == opt.accum.embeddings.rows[held].tobytes()
    assert not np.delete(opt.accum.embeddings.rows, held, axis=0).any()  # no row outside the corpus was touched
    for got, want in ((result.params.tower, params.tower), (result.optimizer.accum.tower, opt.accum.tower)):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.arrays().values(), want.arrays().values(), strict=True))
    paths = tmp_path / "held.npz", tmp_path / "all.npz"
    save_checkpoint(paths[0], result.params, result.optimizer, config, vocab_hash="h", epoch=3)
    save_checkpoint(paths[1], params, opt, config, vocab_hash="h", epoch=3)
    assert_checkpoints_load_the_same(*paths)


def assert_same_batch(got, want):
    for name in ("token_ids", "counts", "offsets", "images", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


@pytest.mark.parametrize("tower", TOWER_KINDS)
def test_packed_corpus_equals_packing_its_examples(tower):
    _, prep = hashed_synth_corpus(tower, seed=9)
    corpus = prep.examples
    assert isinstance(corpus, Batch)
    assert_same_batch(corpus, Batch.from_examples(list(corpus)))
    index = np.random.default_rng(3).permutation(len(corpus))[:50]
    assert_same_batch(corpus.select(index), Batch.from_examples([corpus[i] for i in index]))
    assert len(corpus[:7]) == 7 and all(isinstance(ex, TrainExample) for ex in corpus[:7])
    last = corpus[-1]
    assert last.token_ids.tolist() == corpus.token_ids[corpus.offsets[-1] :].tolist()
    if tower == "mlp":
        assert np.shares_memory(last.image, corpus.features)  # a row view, not a copy
    else:
        assert type(last.image) is int
    with pytest.raises(IndexError):
        corpus[len(corpus)]


@pytest.mark.parametrize("tower", TOWER_KINDS)
def test_per_example_view_serves_the_bench_contract(tower):
    # The benchmark reads the packed corpus one example at a time: it takes
    # len(), indexes with the np.int64 entries of a permutation, packs a
    # slice with Batch.from_examples, scans every query's token ids and reads
    # the image-vector gradient as Gradients.images.
    vocab, prep = hashed_synth_corpus(tower, seed=12)
    corpus = prep.examples
    assert len(corpus) == corpus.size > 64
    for i in np.random.default_rng(4).permutation(corpus.size)[:20]:
        ex, start = corpus[i], corpus.offsets[i]
        assert ex.token_ids.tolist() == corpus.token_ids[start : start + corpus.counts[i]].tolist()
        assert np.array_equal(ex.image, corpus.images[i]) and ex.weight == corpus.weights[i]
    params = init_params(3, num_rows=vocab.total_ids, emb_dim=8, tower=tower, feature_dim=5, hidden_dim=6, num_images=prep.num_images)
    first = corpus.select(np.arange(64))
    got, want = batch_loss(params, Batch.from_examples(corpus[:64]), 5.0), batch_loss(params, first, 5.0)
    assert got.example_losses.tobytes() == want.example_losses.tobytes() and got.logits.tobytes() == want.logits.tobytes()
    assert np.concatenate([ex.token_ids for ex in corpus]).tobytes() == corpus.token_ids.tobytes()
    grads = batch_gradients(params, first, 5.0)
    assert grads.images is grads.tower.get("image_vectors") and (grads.images is None) == (tower == "mlp")
    with pytest.raises(ValueError, match="empty batch"):
        Batch.from_examples([])
    with pytest.raises(ValueError, match="mixed"):
        Batch.from_examples([TrainExample(token_ids=np.array([0]), image=0), TrainExample(token_ids=np.array([0]), image=np.ones(3))])


@pytest.mark.parametrize("tower", TOWER_KINDS)
def test_train_on_the_packed_corpus_equals_train_on_its_examples(tower):
    vocab, prep = hashed_synth_corpus(tower, seed=10)
    config = TrainConfig(tower=tower, emb_dim=6, hidden_dim=5 if tower == "mlp" else None, batch_size=64, epochs=3, logit_scale=5.0, seed=2)
    corpus = prep.examples
    examples = list(zip(np.split(corpus.token_ids, corpus.offsets[1:]), corpus.images, corpus.weights))
    packed = train(corpus, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    listed = train(pack_examples(examples), config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    assert packed.epoch_losses == listed.epoch_losses
    assert packed.params.embeddings.ids.tolist() == listed.params.embeddings.ids.tolist()
    for got, want in ((packed.params, listed.params), (packed.optimizer.accum, listed.optimizer.accum)):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.arrays().values(), want.arrays().values(), strict=True))


@pytest.mark.parametrize("tower", TOWER_KINDS)
def test_train_and_grad_check_need_no_per_example_view(tower, monkeypatch):
    # The packed corpus is the one input: with the per-example view gone,
    # train() on prepare_examples output and grad_check give what they gave.
    vocab, prep = hashed_synth_corpus(tower, seed=13)
    config = TrainConfig(tower=tower, emb_dim=6, hidden_dim=5 if tower == "mlp" else None, batch_size=64, epochs=2, logit_scale=5.0, seed=3)
    sizes = dict(num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    want, want_check = train(prep.examples, config, **sizes), grad_check(tower, 0)

    def gone(*args):
        raise AssertionError("the per-example view was read")

    for name in ("from_examples", "__getitem__", "__len__"):
        monkeypatch.setattr(Batch, name, gone)
    got = train(prep.examples, config, **sizes)
    assert got.epoch_losses == want.epoch_losses and np.all(np.isfinite(got.epoch_losses))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.params.arrays().values(), want.params.arrays().values(), strict=True))
    check = grad_check(tower, 0)
    assert check == want_check and check.max_rel_err < 1e-4


def test_train_on_the_packed_corpus_copies_no_feature_row():
    # 40,000 images of 64 features (20.48 MB), each the image of one triple:
    # packed once by prepare_examples, the matrix is what every step gathers
    # from, so train() allocates far less than one copy of it.
    n, d = 40_000, 64
    matrix = np.random.default_rng(51).standard_normal((n, d))
    features = {f"i{k}": row for k, row in enumerate(matrix)}
    triples = [TripleRecord(1.0, "en", f"w{k % 50}", f"i{k}") for k in range(n)]
    vocab = build_vocab((f"en:w{k}" for k in range(50)), min_count=1, num_buckets=10, mode=LangMode.AWARE)
    prep = prepare_examples(triples, vocab, tower="mlp", features=features)
    config = TrainConfig(tower="mlp", emb_dim=4, hidden_dim=4, batch_size=500, epochs=1, seed=1)
    tracemalloc.start()
    try:
        train(prep.examples, config, num_embedding_rows=vocab.total_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nbytes >= 20_000_000
    assert peak < matrix.nbytes, peak


@pytest.fixture(scope="module", params=TOWER_KINDS)
def trained_at_b1000(request):
    """Parameters after 2 epochs at B=1000 on a gensynth corpus whose every
    third query carries a rare token hashed into one of 2**41 buckets (ids
    up to about 2**41), and a batch of 1,000 examples gathered from the
    packed corpus."""
    tower = request.param
    corpus = generate_synthetic(SyntheticSpec(num_concepts=10, num_examples=1300, feature_dim=12, images_per_concept=40, seed=11))
    triples = [TripleRecord(t.weight, t.lang, f"{t.query} rare{k}" if k % 3 == 0 else t.query, t.image_id) for k, t in enumerate(corpus.triples)]
    vocab = build_vocab(
        (tok for t in triples for tok in tokenize(t.query, t.lang, LangMode.AWARE)), min_count=6, num_buckets=2**41, mode=LangMode.AWARE
    )
    prep = prepare_examples(triples, vocab, tower=tower, features=corpus.features)
    assert np.count_nonzero(prep.examples.token_ids > 2**40) > 100
    config = TrainConfig(tower=tower, emb_dim=16, hidden_dim=24 if tower == "mlp" else None, batch_size=1000, epochs=2, logit_scale=10.0, seed=5)
    result = train(prep.examples, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    batch = prep.examples.select(np.random.default_rng(1).permutation(prep.examples.size)[:1000])
    return result.params, batch, config.logit_scale


def test_directional_derivatives_at_b1000(trained_at_b1000):
    params, batch, logit_scale = trained_at_b1000
    before = {name: theta.tobytes() for name, theta in params.arrays().items()}
    errors = directional_check(params, batch, logit_scale, np.random.default_rng(2))
    assert len(errors) == 5 and max(errors) <= 1e-6, errors
    assert {name: theta.tobytes() for name, theta in params.arrays().items()} == before


def test_directional_check_catches_a_slot_map_off_by_one_row(trained_at_b1000, monkeypatch):
    # Each token reads and updates the held row after its own.
    params, batch, logit_scale = trained_at_b1000
    slots = EmbeddingTable.slots
    monkeypatch.setattr(EmbeddingTable, "slots", lambda self, ids: (slots(self, ids) + 1) % self.ids.size)
    errors = directional_check(params, batch, logit_scale, np.random.default_rng(2))
    assert min(errors) > 1e-3, errors


@pytest.mark.parametrize("multilingual_filter", [False, True])
def test_train_holds_every_vocabulary_row_first(multilingual_filter):
    # Every vocabulary token occurs in a kept, non-empty query, so the held
    # ids start with 0..vocab_size-1 and rows[i] is vocabulary id i: the
    # benchmark's export round-trip gate and the acceptance suite read the
    # vocabulary's rows this way.
    vocab, prep = hashed_synth_corpus("lookup", seed=8, multilingual_filter=multilingual_filter)
    config = TrainConfig(tower="lookup", emb_dim=4, batch_size=64, epochs=1, seed=2)
    result = train(prep.examples, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    ids = result.params.embeddings.ids
    assert vocab.vocab_size > 0 and ids.size > vocab.vocab_size
    assert ids[: vocab.vocab_size].tolist() == list(range(vocab.vocab_size))


def test_save_checkpoint_refuses_a_held_rows_table_of_another_seed(tmp_path):
    # The rows such a table does not hold are drawn from seed 1, but
    # load_checkpoint would draw them from the config's seed 0.
    params = init_params(1, num_rows=9, emb_dim=4, tower="lookup", num_images=2, rows=np.array([2, 5]))
    opt = OptimizerState.for_params(params, 0.5)
    with pytest.raises(ValueError, match="^the table's rows are drawn from seed 1, the config's seed is 0$"):
        save_checkpoint(tmp_path / "ckpt.npz", params, opt, TrainConfig(tower="lookup", emb_dim=4), vocab_hash="h", epoch=0)
    assert not (tmp_path / "ckpt.npz").exists()
