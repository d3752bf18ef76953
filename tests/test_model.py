"""Tower forward passes, cosine, initialization, and the word2vec export."""

import math

import numpy as np
import pytest

from imglex.model import (
    EmbeddingTable,
    LookupImageTower,
    MlpImageTower,
    cosine,
    init_params,
    load_word2vec,
    save_word2vec,
)
from imglex.textproc import LangMode, build_vocab
from oracles import image_repr_lookup, image_repr_mlp, query_repr


def table(rows):
    return EmbeddingTable(rows=np.asarray(rows, dtype=np.float64))


def test_query_repr_single_token():
    t = table([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(query_repr(t, [1]), [3.0, 4.0])


def test_query_repr_mean_of_two():
    t = table([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(query_repr(t, [0, 1]), [0.5, 0.5])


def test_query_repr_counts_duplicates():
    t = table([[3.0, 3.0], [0.0, 0.0]])
    assert np.allclose(query_repr(t, [0, 0, 1]), [2.0, 2.0])


def test_query_repr_rejects_empty():
    with pytest.raises(ValueError, match="empty query"):
        query_repr(table([[1.0]]), [])


def test_query_repr_rejects_bad_id():
    with pytest.raises(ValueError):
        query_repr(table([[1.0]]), [5])


def test_query_repr_permutation_invariant():
    rng = np.random.default_rng(0)
    t = table(rng.normal(size=(20, 5)))
    ids = rng.integers(0, 20, size=7)
    shuffled = rng.permutation(ids)
    assert np.allclose(query_repr(t, ids), query_repr(t, shuffled))


def test_image_repr_mlp_zero_map():
    tower = MlpImageTower(V=np.zeros((3, 2)), b1=np.zeros(3), U=np.zeros((4, 3)), b2=np.zeros(4))
    assert np.array_equal(image_repr_mlp(tower, np.array([5.0, -2.0])), np.zeros(4))


def test_image_repr_mlp_hand_forward():
    tower = MlpImageTower(V=np.array([[2.0]]), b1=np.array([-1.0]), U=np.array([[3.0]]), b2=np.array([0.0]))
    assert np.allclose(image_repr_mlp(tower, np.array([2.0])), [9.0])
    # f=0: V*f + b1 = -1, killed by the first ReLU.
    assert np.allclose(image_repr_mlp(tower, np.array([0.0])), [0.0])


def test_image_repr_mlp_dimension_mismatch():
    tower = MlpImageTower(V=np.zeros((3, 2)), b1=np.zeros(3), U=np.zeros((4, 3)), b2=np.zeros(4))
    with pytest.raises(ValueError):
        image_repr_mlp(tower, np.zeros(5))


def test_image_repr_mlp_nonnegative():
    rng = np.random.default_rng(1)
    tower = MlpImageTower(
        V=rng.normal(size=(6, 4)), b1=rng.normal(size=6), U=rng.normal(size=(3, 6)), b2=rng.normal(size=3)
    )
    for _ in range(50):
        out = image_repr_mlp(tower, rng.normal(size=4))
        assert np.all(out >= 0.0)


def test_image_repr_lookup_identity_and_bounds():
    vectors = np.arange(12.0).reshape(4, 3)
    tower = LookupImageTower(vectors=vectors)
    assert np.array_equal(image_repr_lookup(tower, 0), vectors[0])
    assert np.array_equal(image_repr_lookup(tower, 2), image_repr_lookup(tower, 2))
    with pytest.raises(ValueError):
        image_repr_lookup(tower, 4)
    with pytest.raises(ValueError):
        image_repr_lookup(tower, -1)


def test_cosine_basics():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(0.8)


def test_cosine_zero_norm_is_zero():
    assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
    assert cosine(np.array([1e-13, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine(np.zeros(2), np.zeros(3))


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        alpha = float(rng.uniform(0.1, 50.0))
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
        assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), abs=1e-12)
    assert -1.0 - 1e-12 <= cosine(a, b) <= 1.0 + 1e-12


def test_init_params_deterministic():
    kwargs = dict(num_rows=30, emb_dim=8, tower="mlp", feature_dim=5, hidden_dim=7)
    a = init_params(123, **kwargs)
    b = init_params(123, **kwargs)
    assert np.array_equal(a.embeddings.rows, b.embeddings.rows)
    assert np.array_equal(a.tower.V, b.tower.V)
    assert np.array_equal(a.tower.U, b.tower.U)


def test_init_params_embedding_range():
    params = init_params(0, num_rows=500, emb_dim=100, tower="lookup", num_images=20)
    assert np.all(np.abs(params.embeddings.rows) < 0.005)
    assert np.all(np.abs(params.tower.vectors) < 0.005)


def test_init_params_glorot_bound_and_zero_biases():
    params = init_params(0, num_rows=10, emb_dim=100, tower="mlp", feature_dim=64, hidden_dim=200)
    bound = math.sqrt(6.0 / (64 + 200))
    assert bound == pytest.approx(0.1508, abs=1e-4)
    assert np.all(np.abs(params.tower.V) <= bound)
    assert np.abs(params.tower.V).max() > 0.9 * bound  # actually fills the range
    assert np.all(params.tower.b1 == 0.0)
    assert np.all(params.tower.b2 == 0.0)


def test_query_and_image_dims_agree():
    params = init_params(3, num_rows=12, emb_dim=9, tower="mlp", feature_dim=4, hidden_dim=6)
    q = query_repr(params.embeddings, [0, 3, 3])
    i = image_repr_mlp(params.tower, np.ones(4))
    assert q.shape == i.shape == (9,)


def test_word2vec_round_trip(tmp_path):
    vocab = build_vocab(["en:b"] * 8 + ["en:a"] * 6, min_count=6, num_buckets=40, mode=LangMode.AWARE)
    params = init_params(5, num_rows=vocab.total_ids, emb_dim=4, tower="lookup", num_images=2)
    path = tmp_path / "emb.vec"
    save_word2vec(path, vocab, params.embeddings)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "2 4"
    assert len(lines) == 3  # header + 2 in-vocab tokens; buckets excluded

    vectors = load_word2vec(path)
    assert set(vectors) == {"en:a", "en:b"}
    for token, idx in vocab.index.items():
        assert np.array_equal(vectors[token], params.embeddings.rows[idx])


def test_load_word2vec_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.vec"
    bad.write_text("2 3\nw1 0.5 0.25\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_word2vec(bad)
