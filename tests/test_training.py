"""Loss, gradients, optimizer, train loop, gradient checker, checkpointing."""

import io
import math

import numpy as np
import pytest

from imglex.data import SyntheticSpec, generate_synthetic, prepare_examples
from imglex.errors import ConfigError, DataError, TrainingDiverged
from imglex.model import EmbeddingTable, LookupImageTower, MlpImageTower, ModelParams, cosine, init_params
from imglex.textproc import LangMode, build_vocab, tokenize
from imglex.training import (
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
from oracles import image_repr_mlp, numeric_gradients, query_repr

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
        TrainExample(
            token_ids=rng.integers(0, num_rows, size=int(rng.integers(1, 5))),
            image=images[i],
            weight=float(rng.uniform(0.0, 2.0)),
        )
        for i in range(batch_size)
    ]
    return params, Batch.from_examples(examples)


def test_singleton_batch_loss_is_zero():
    rng = np.random.default_rng(0)
    params, _ = random_params_and_batch(rng, tower="lookup")
    batch = Batch.from_examples([TrainExample(token_ids=np.array([3, 4]), image=1, weight=1.0)])
    assert batch_loss(params, batch, 1.0).mean_weighted_loss == 0.0


def test_equal_logits_give_log_b():
    # All image vectors identical: every row of the logit matrix is constant,
    # so the softmax is uniform and each example loses exactly log B.
    emb = np.random.default_rng(1).normal(size=(10, 4))
    params = lookup_params(emb, np.tile([0.3, 0.1, -0.2, 0.5], (3, 1)))
    examples = [TrainExample(token_ids=np.array([i % 10, (3 * i) % 10]), image=i % 3, weight=1.0) for i in range(4)]
    report = batch_loss(params, Batch.from_examples(examples), 1.0)
    assert np.all(np.abs(report.example_losses - LOG4) < 1e-12)
    assert report.mean_weighted_loss == pytest.approx(LOG4, abs=1e-12)


def test_identity_logits_hand_value():
    params = lookup_params([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    examples = [
        TrainExample(token_ids=np.array([0]), image=0, weight=1.0),
        TrainExample(token_ids=np.array([1]), image=1, weight=1.0),
    ]
    report = batch_loss(params, Batch.from_examples(examples), 1.0)
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
    examples = [
        TrainExample(token_ids=rng.integers(0, 20, size=2), image=int(rng.integers(6)), weight=1.0)
        for _ in range(8)
    ]
    forward = batch_loss(params, Batch.from_examples(examples), 3.0)
    backward = batch_loss(params, Batch.from_examples(examples[::-1]), 3.0)
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
    examples = [
        TrainExample(token_ids=np.array([3, 9]), image=2, weight=1.0),
        TrainExample(token_ids=np.array([9]), image=4, weight=1.0),
    ]
    grads = batch_gradients(params, Batch.from_examples(examples), 2.0)
    assert list(grads.embeddings.rows) == [3, 9]
    assert list(grads.images.rows) == [2, 4]
    dense = grads.embeddings.to_dense(16)
    untouched = [i for i in range(16) if i not in (3, 9)]
    assert np.all(dense[untouched] == 0.0)


def test_singleton_batch_gradients_zero():
    rng = np.random.default_rng(9)
    params, _ = random_params_and_batch(rng, tower="mlp")
    batch = Batch.from_examples([TrainExample(token_ids=np.array([1, 2]), image=np.ones(5), weight=1.5)])
    grads = batch_gradients(params, batch, 5.0)
    assert np.all(grads.embeddings.values == 0.0)
    assert np.all(grads.mlp.V == 0.0)
    assert np.all(grads.mlp.U == 0.0)
    assert np.all(grads.mlp.b1 == 0.0)
    assert np.all(grads.mlp.b2 == 0.0)


def test_batch_validation():
    with pytest.raises(ValueError, match="empty batch"):
        Batch.from_examples([])
    with pytest.raises(ValueError, match="empty query"):
        Batch.from_examples([TrainExample(token_ids=np.array([], dtype=np.int64), image=0, weight=1.0)])
    with pytest.raises(ValueError, match="mixed"):
        Batch.from_examples(
            [
                TrainExample(token_ids=np.array([0]), image=0, weight=1.0),
                TrainExample(token_ids=np.array([0]), image=np.ones(3), weight=1.0),
            ]
        )
    with pytest.raises(ValueError, match="weights"):
        Batch.from_examples([TrainExample(token_ids=np.array([0]), image=0, weight=-1.0)])


def test_batch_loss_rejects_nonfinite_params():
    params = lookup_params(np.ones((4, 2)), np.ones((2, 2)))
    params.embeddings.rows[1, 0] = np.nan
    batch = Batch.from_examples(
        [
            TrainExample(token_ids=np.array([1]), image=0, weight=1.0),
            TrainExample(token_ids=np.array([2]), image=1, weight=1.0),
        ]
    )
    with pytest.raises(ValueError, match="non-finite"):
        batch_loss(params, batch, 1.0)


def test_adagrad_hand_step():
    params = lookup_params([[0.0]], [[0.0]])
    opt = OptimizerState.for_params(params, learning_rate=0.1, epsilon=0.0)
    grads_first = RowGradient(rows=np.array([0]), values=np.array([[2.0]]))
    sgd_step(params, Gradients(embeddings=grads_first), opt)
    # theta -= lr * g / sqrt(G + g^2) = 0.1 * 2 / 2
    assert params.embeddings.rows[0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert opt.emb_accum[0, 0] == pytest.approx(4.0)
    sgd_step(params, Gradients(embeddings=RowGradient(rows=np.array([0]), values=np.array([[2.0]]))), opt)
    assert opt.emb_accum[0, 0] == pytest.approx(8.0)


def test_adagrad_hand_step_dense():
    # A dense array (b2) takes the same update as a sparse row, on every row.
    params = init_params(0, num_rows=3, emb_dim=2, tower="mlp", feature_dim=2, hidden_dim=2)
    before = {name: theta.copy() for name, theta in params.arrays().items()}
    opt = OptimizerState.for_params(params, learning_rate=0.1, epsilon=0.0)
    g_b2 = np.array([2.0, -0.5])
    ones = MlpImageTower(V=np.ones((2, 2)), b1=np.ones(2), U=np.ones((2, 2)), b2=g_b2)
    no_rows = RowGradient(rows=np.array([], dtype=np.int64), values=np.zeros((0, 2)))
    sgd_step(params, Gradients(embeddings=no_rows, mlp=ones), opt)
    # theta -= lr * g / sqrt(g^2) = lr * sign(g), from b2 = 0
    assert np.array_equal(params.tower.b2, [-0.1, 0.1])
    assert np.array_equal(opt.mlp_accum.b2, [4.0, 0.25])
    assert np.array_equal(params.tower.V, before["V"] - 0.1)
    assert np.array_equal(params.embeddings.rows, before["embeddings"])
    assert np.all(opt.emb_accum == 0.0)
    sgd_step(params, Gradients(embeddings=no_rows, mlp=ones), opt)
    # G = 2 g^2: theta -= lr * g / (sqrt(2) |g|)
    assert params.tower.b2 == pytest.approx([-0.1 - 0.1 / math.sqrt(2), 0.1 + 0.1 / math.sqrt(2)], rel=1e-15)
    assert np.array_equal(opt.mlp_accum.b2, [8.0, 0.5])


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


def test_gradients_match_finite_differences_quick():
    for tower in ("mlp", "lookup"):
        report = grad_check(tower=tower, seed=11, batch_size=6)
        assert report.max_rel_err < 1e-4, (tower, report)


def test_grad_check_detects_corruption():
    report = grad_check(tower="mlp", seed=0, corrupt=0.5)
    assert report.max_rel_err > 1e-2


def test_grad_check_singleton_batch_trivial():
    for tower in ("mlp", "lookup"):
        report = grad_check(tower=tower, seed=0, batch_size=1)
        assert report.max_rel_err < 1e-9


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(tower="cnn", emb_dim=4).validate()
    with pytest.raises(ConfigError, match="equal emb_dim"):
        TrainConfig(tower="mlp", emb_dim=8, hidden_dim=4, out_dim=6).validate()
    with pytest.raises(ConfigError):
        TrainConfig(tower="mlp", emb_dim=8, hidden_dim=4, batch_size=0).validate()
    TrainConfig(tower="mlp", emb_dim=8, hidden_dim=4).validate()
    TrainConfig(tower="lookup", emb_dim=8).validate()


def make_toy_examples(rng, n, num_rows, num_images):
    return [
        TrainExample(
            token_ids=rng.integers(0, num_rows, size=int(rng.integers(1, 4))),
            image=int(rng.integers(num_images)),
            weight=1.0,
        )
        for _ in range(n)
    ]


def test_train_zero_epochs_keeps_init():
    rng = np.random.default_rng(12)
    examples = make_toy_examples(rng, 50, 10, 4)
    config = TrainConfig(tower="lookup", emb_dim=5, epochs=0, batch_size=16, seed=99)
    result = train(examples, config, num_embedding_rows=10, num_images=4)
    reference = init_params(99, num_rows=10, emb_dim=5, tower="lookup", num_images=4)
    assert np.array_equal(result.params.embeddings.rows, reference.embeddings.rows)
    assert result.epoch_losses == []


def test_train_deterministic():
    rng = np.random.default_rng(13)
    examples = make_toy_examples(rng, 120, 12, 5)
    config = TrainConfig(tower="lookup", emb_dim=6, epochs=3, batch_size=32, seed=7, logit_scale=5.0)
    a = train(examples, config, num_embedding_rows=12, num_images=5)
    b = train(examples, config, num_embedding_rows=12, num_images=5)
    assert np.array_equal(a.params.embeddings.rows, b.params.embeddings.rows)
    assert a.epoch_losses == b.epoch_losses


def test_train_loss_decreases(small_synth_training_run):
    losses = small_synth_training_run.epoch_losses
    assert losses[0] > losses[1] > losses[2]


def test_train_rejects_empty_corpus():
    config = TrainConfig(tower="lookup", emb_dim=4)
    with pytest.raises(ValueError, match="no training examples"):
        train([], config, num_embedding_rows=4)


def assert_same_checkpoint_arrays(path, loaded, params, opt):
    """Every parameter and accumulator round-trips bit for bit under its name."""
    names = list(params.arrays())
    with np.load(path) as data:
        assert sorted(data.files) == sorted(["meta", *names, *(f"{name}_accum" for name in names)])
    for got, want in ((loaded.params, params), (loaded.optimizer.accum, opt.accum)):
        got_arrays = got.arrays()
        assert list(got_arrays) == names
        for name, theta in want.arrays().items():
            assert np.array_equal(got_arrays[name], theta) and got_arrays[name].dtype == theta.dtype, name
    assert (loaded.optimizer.learning_rate, loaded.optimizer.epsilon) == (opt.learning_rate, opt.epsilon)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    examples = make_toy_examples(rng, 60, 8, 3)
    config = TrainConfig(tower="lookup", emb_dim=4, epochs=2, batch_size=16, seed=3)
    result = train(examples, config, num_embedding_rows=8, num_images=3)
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
    config = TrainConfig(tower="mlp", emb_dim=4, hidden_dim=5)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, config, vocab_hash="h", epoch=0)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert isinstance(loaded.params.tower, MlpImageTower)
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


@pytest.mark.parametrize("dropped", ["meta", "embeddings_accum"])
def test_load_checkpoint_missing_entry_is_data_error(tmp_path, dropped):
    params = init_params(1, num_rows=6, emb_dim=4, tower="lookup", num_images=3)
    opt = OptimizerState.for_params(params, learning_rate=0.25)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, opt, TrainConfig(tower="lookup", emb_dim=4), vocab_hash="h", epoch=0)
    with np.load(path) as data:
        kept = {name: data[name] for name in data.files if name != dropped}
    np.savez(path, **kept)
    with pytest.raises(DataError, match=rf"ckpt\.npz: checkpoint has no '{dropped}' entry"):
        load_checkpoint(path)


def test_optimizer_state_is_zero_and_owns_its_arrays():
    params = init_params(2, num_rows=6, emb_dim=4, tower="mlp", feature_dim=3, hidden_dim=5)
    opt = OptimizerState.for_params(params, learning_rate=0.5)
    for name, theta in params.arrays().items():
        accum = opt.accum.arrays()[name]
        assert accum.shape == theta.shape and accum.dtype == theta.dtype, name
        assert not accum.any() and not np.shares_memory(accum, theta), name


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
    examples = [
        TrainExample(token_ids=np.array(q), image=images[i], weight=float(rng.uniform(0.2, 2.0)))
        for i, q in enumerate(queries)
    ]
    return params, Batch.from_examples(examples)


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

    grads = batch_gradients(params, batch, 2.5)
    assert list(grads.embeddings.rows) == [0, 1, 3, 5, 7, 9, 11]
    analytic = {
        "embeddings": grads.embeddings.to_dense(12),
        "V": grads.mlp.V,
        "b1": grads.mlp.b1,
        "U": grads.mlp.U,
        "b2": grads.mlp.b2,
    }
    numeric = numeric_gradients(params, batch, 2.5)
    for name, ga in analytic.items():
        gn = numeric[name]
        rel = np.abs(ga - gn) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        assert rel.max() < 1e-4, name


def test_grad_check_ragged_batches():
    for tower in ("mlp", "lookup"):
        for seed in (21, 22):
            report = grad_check(tower=tower, seed=seed, batch_size=9, num_rows=6)
            assert report.max_rel_err < 1e-4, (tower, seed, report)


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
    packed = Batch.from_examples(examples)
    index = rng.permutation(30)[:11]
    got = packed.select(index)
    want = Batch.from_examples([examples[i] for i in index])
    for name in ("token_ids", "counts", "offsets", "images", "weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_train_config_rejects_batch_of_one():
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(tower="lookup", emb_dim=4, batch_size=1).validate()
    TrainConfig(tower="lookup", emb_dim=4, batch_size=2).validate()


def test_train_rejects_single_example():
    config = TrainConfig(tower="lookup", emb_dim=4, batch_size=4)
    with pytest.raises(ValueError, match="at least 2"):
        train(make_toy_examples(np.random.default_rng(26), 1, 4, 2), config, num_embedding_rows=4)


def test_train_merges_trailing_singleton_batch():
    # 33 examples at B=16: batches of 16 and 17, not 16, 16 and 1.
    rng = np.random.default_rng(27)
    examples = make_toy_examples(rng, 33, 10, 4)
    config = TrainConfig(tower="lookup", emb_dim=5, epochs=2, batch_size=16, seed=4, logit_scale=3.0)
    result = train(examples, config, num_embedding_rows=10, num_images=4)

    params = init_params(4, num_rows=10, emb_dim=5, tower="lookup", num_images=4)
    opt = OptimizerState.for_params(params, config.learning_rate)
    corpus = Batch.from_examples(examples)
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
    assert np.allclose(result.params.embeddings.rows, params.embeddings.rows, rtol=0, atol=1e-12)


def test_train_divergence_names_epoch_batch_and_cause():
    rng = np.random.default_rng(28)
    examples = [
        TrainExample(token_ids=rng.integers(0, 10, size=2), image=rng.normal(size=4), weight=1.0) for _ in range(64)
    ]
    config = TrainConfig(
        tower="mlp", emb_dim=5, hidden_dim=6, batch_size=16, epochs=2, learning_rate=1e200, logit_scale=1e6
    )
    with pytest.raises(TrainingDiverged) as caught:
        train(examples, config, num_embedding_rows=10)
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


def test_train_rejects_examples_for_the_other_tower():
    examples = make_toy_examples(np.random.default_rng(29), 8, 5, 2)
    config = TrainConfig(tower="mlp", emb_dim=4, hidden_dim=3, batch_size=4)
    with pytest.raises(ValueError, match="lookup tower"):
        train(examples, config, num_embedding_rows=5)
