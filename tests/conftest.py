import math

import numpy as np
import pytest

from imglex.data import SyntheticSpec, generate_synthetic, prepare_corpus
from imglex.textproc import LangMode
from imglex.training import TrainConfig, train


def naive_ranks(vals):
    """Independent oracle: 1-based ranks, ties averaged, by sorting and a loop."""
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    out = [0.0] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        for k in range(i, j + 1):
            out[order[k]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return out


def naive_spearman(x, y):
    """Independent oracle: average-rank ties by sorting, then plain Pearson."""
    rx, ry = naive_ranks(list(x)), naive_ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(math.fsum((a - mx) ** 2 for a in rx) * math.fsum((b - my) ** 2 for b in ry))
    return num / den


def fail_batch_buffer(monkeypatch, b, error):
    """Make ``np.empty`` raise ``error`` for train()'s B x B buffer, the one
    request for ``b * b`` float64s, and serve every other request."""
    empty = np.empty

    def fake_empty(shape, *args, **kwargs):
        if shape == b * b and not args and not kwargs:
            raise error
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", fake_empty)


# numpy's two refusals: the allocation fails, or the byte count is past what an array can index.
ALLOCATION_ERRORS = [MemoryError(), ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size.")]


@pytest.fixture(scope="session")
def small_synth_corpus():
    """A small synthetic corpus, its vocabulary and its MLP packed corpus,
    shared by a few tests."""
    spec = SyntheticSpec(
        num_concepts=5,
        num_languages=2,
        words_per_concept=2,
        feature_dim=8,
        noise_sigma=0.1,
        num_examples=4000,
        seed=3,
        images_per_concept=30,
        isolated_image_fraction=0.2,
    )
    corpus = generate_synthetic(spec)
    vocab, prep = prepare_corpus(
        corpus.triples, tower="mlp", features=corpus.features, mode=LangMode.AWARE, min_count=6, num_buckets=50
    )
    return corpus, vocab, prep


@pytest.fixture(scope="session")
def small_synth_training_run(small_synth_corpus):
    """A small but non-trivial MLP training run shared by a few tests."""
    _, vocab, prep = small_synth_corpus
    config = TrainConfig(
        tower="mlp", emb_dim=8, hidden_dim=16, batch_size=128, epochs=5, learning_rate=0.5, logit_scale=10.0, seed=3
    )
    return train(prep.examples, config, num_embedding_rows=vocab.total_ids)
