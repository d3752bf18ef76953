"""Tower forward passes, cosine, initialization, and the word2vec export."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imglex.errors import DataError
from imglex.model import (
    INIT_CHUNK_ROWS,
    TOWER_KINDS,
    LookupImageTower,
    MlpImageTower,
    cosine,
    init_params,
    initial_rows,
    load_word2vec,
    save_word2vec,
)
from imglex.textproc import LangMode, Vocabulary, build_vocab
from oracles import full_table, held_row_sets, image_repr_lookup, image_repr_mlp, load_word2vec_per_value, query_repr


def test_query_repr_single_token():
    t = full_table([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(query_repr(t, [1]), [3.0, 4.0])


def test_query_repr_mean_of_two():
    t = full_table([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(query_repr(t, [0, 1]), [0.5, 0.5])


def test_query_repr_counts_duplicates():
    t = full_table([[3.0, 3.0], [0.0, 0.0]])
    assert np.allclose(query_repr(t, [0, 0, 1]), [2.0, 2.0])


def test_query_repr_rejects_empty():
    with pytest.raises(ValueError, match="empty query"):
        query_repr(full_table([[1.0]]), [])


def test_query_repr_rejects_bad_id():
    with pytest.raises(ValueError):
        query_repr(full_table([[1.0]]), [5])


def test_query_repr_permutation_invariant():
    rng = np.random.default_rng(0)
    t = full_table(rng.normal(size=(20, 5)))
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


@pytest.mark.parametrize("tower", ["mlp", "lookup"])
def test_initial_row_chunks_are_init_params_table(tower):
    # One seeded stream: the table is drawn first, one chunk of rows or one
    # run of consecutive rows at a time, which equals one draw of the whole
    # table, and the tower's arrays follow it.
    num_rows, emb_dim, half = 2 * INIT_CHUNK_ROWS + 5, 3, 0.5 / 3
    params = init_params(4, num_rows=num_rows, emb_dim=emb_dim, tower=tower, feature_dim=2, hidden_dim=6, num_images=7)
    assert params.embeddings.ids.tolist() == list(range(num_rows)) and params.embeddings.num_rows == num_rows
    assert initial_rows(4, np.arange(num_rows), emb_dim).tobytes() == params.embeddings.rows.tobytes()
    rng = np.random.default_rng(4)
    assert rng.uniform(-half, half, size=(num_rows, emb_dim)).tobytes() == params.embeddings.rows.tobytes()
    if tower == "lookup":
        assert rng.uniform(-half, half, size=(7, emb_dim)).tobytes() == params.tower.vectors.tobytes()
    else:
        bound1, bound2 = math.sqrt(6.0 / (2 + 6)), math.sqrt(6.0 / (6 + emb_dim))
        assert rng.uniform(-bound1, bound1, size=(6, 2)).tobytes() == params.tower.V.tobytes()
        assert rng.uniform(-bound2, bound2, size=(emb_dim, 6)).tobytes() == params.tower.U.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32),
    emb_dim=st.integers(1, 4),
    num_rows=st.integers(2 * INIT_CHUNK_ROWS + 1, 4 * INIT_CHUNK_ROWS),
    tower=st.sampled_from(TOWER_KINDS),
)
def test_held_rows_are_the_all_rows_table_rows(data, seed, emb_dim, num_rows, tower):
    held = np.array(data.draw(held_row_sets(num_rows)), dtype=np.int64)
    sizes = dict(num_rows=num_rows, emb_dim=emb_dim, tower=tower, feature_dim=3, hidden_dim=4, num_images=5)
    full = init_params(seed, **sizes)
    part = init_params(seed, rows=held, **sizes)
    table = part.embeddings
    assert (table.ids.tolist(), table.num_rows, table.seed) == (held.tolist(), num_rows, seed)
    assert table.rows.tobytes() == full.embeddings.rows[held].tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(part.tower.arrays().values(), full.tower.arrays().values(), strict=True))
    # A row the table does not hold reads as its initial row, in any order
    # and mix with held rows.
    unheld = np.setdiff1d(np.arange(num_rows), held)
    some_rows = st.lists(st.integers(0, num_rows - 1), max_size=6)
    reads = data.draw(some_rows) + (data.draw(st.lists(st.sampled_from(unheld.tolist()), max_size=4)) if unheld.size else [])
    assert table.read(reads).tobytes() == full.embeddings.rows[reads].tobytes()


def test_embedding_table_refuses_rows_it_cannot_give():
    table = init_params(2, num_rows=40, emb_dim=3, tower="lookup", num_images=2, rows=np.array([3, 7, 39])).embeddings
    assert table.slots(np.array([3, 39, 7])).tolist() == [0, 2, 1]
    with pytest.raises(ValueError, match="^embedding row 8 is not held by the table$"):
        table.slots(np.array([3, 8, 9]))
    for ids in ([40], [-1, 3]):
        with pytest.raises(ValueError, match="token id out of range"):
            table.read(ids)
    assert table.read([]).shape == (0, 3)


def test_initial_rows_jump_over_huge_gaps():
    # advance takes the row offset as a Python int: rows past 2**63 / emb_dim
    # draw the same values as a generator moved there by hand.
    emb_dim, seed = 3, 9
    ids = np.array([0, 1, 5, 10**17 - 1, 10**17, 2**63 - 2], dtype=np.int64)
    got = initial_rows(seed, ids, emb_dim)
    for row, want_row in zip(ids.tolist(), got):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(row * emb_dim)
        assert rng.uniform(-0.5 / emb_dim, 0.5 / emb_dim, size=emb_dim).tobytes() == want_row.tobytes()
    assert initial_rows(seed, np.zeros(0, dtype=np.int64), emb_dim).shape == (0, emb_dim)


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


def test_save_word2vec_does_not_hold_the_file(tmp_path):
    # 20,000 rows of 100 values: a 45 MB file, written a line at a time from
    # a chunk of table rows (0.8 MB) at a time.
    vocab = Vocabulary(tuple(f"en:w{n}" for n in range(20_000)), 1, LangMode.AWARE)
    params = init_params(0, num_rows=vocab.total_ids, emb_dim=100, tower="lookup", num_images=2)
    path = tmp_path / "emb.vec"
    tracemalloc.start()
    try:
        save_word2vec(path, vocab, params.embeddings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    with path.open("rb") as fh:
        assert fh.readline() == b"20000 100\n"
        assert sum(1 for _ in fh) == 20_000


@pytest.fixture(scope="module")
def vec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vec") / "emb.vec"


# Values are mostly numbers, some large enough to overflow a row's L2 norm,
# so many rows load; the rest is text the value syntax gives meaning to.
VEC_VALUES = st.one_of(
    st.lists(st.one_of(st.floats(allow_nan=False).map(repr), st.floats(-1e3, 1e3).map("{:.3E}".format)), max_size=3).map(" ".join),
    st.text(alphabet="0123456789 .-+eEinfa_#x١\t", max_size=14),
)


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(0, 3),
    lines=st.lists(st.tuples(st.sampled_from(["a", "b", "c", ""]), VEC_VALUES), max_size=4),
    extra_count=st.sampled_from([0, 0, 0, 1, -1]),
)
def test_load_word2vec_agrees_with_per_value_parse(vec_path, dim, lines, extra_count):
    header = f"{len(lines) + extra_count} {dim}\n"
    vec_path.write_text(header + "".join(f"{token} {values}\n" for token, values in lines), encoding="utf-8")
    try:
        want = load_word2vec_per_value(vec_path)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_word2vec(vec_path)
        assert str(err.value) == str(exc)
    else:
        got = load_word2vec(vec_path)
        assert list(got) == list(want)
        for token, vec in want.items():
            assert got[token].dtype == vec.dtype and got[token].tobytes() == vec.tobytes(), token


def test_load_word2vec_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.vec"
    bad.write_text("2 3\nw1 0.5 0.25\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_word2vec(bad)
