"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic-recovery thresholds were confirmed by running the
pipeline before being frozen here.
"""

import random
import time

import numpy as np
import pytest

from imglex.cli import main as cli_main
from imglex.data import (
    SyntheticSpec,
    TripleRecord,
    filter_multilingual,
    gen_synthetic,
    load_features,
    load_triples,
    prepare_corpus,
)
from imglex.evaluation import (
    ScoredResult,
    format_cell,
    format_score,
    lexicon_retrieval,
    load_lexicon,
    spearman,
)
from imglex.model import init_params
from imglex.textproc import LangMode, Vocabulary, tokenize
from imglex.training import (
    TrainConfig,
    batch_loss,
    batch_loss_bruteforce,
    grad_check,
    train,
)

from conftest import naive_spearman
from oracles import pack_examples


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- Shared synthetic corpus and training runs (criteria 4 and 5) -----------

RECOVERY_SPEC = SyntheticSpec(
    num_concepts=20,
    num_languages=3,
    words_per_concept=2,
    feature_dim=16,
    noise_sigma=0.1,
    num_examples=50_000,
    seed=7,
)

RECOVERY_TRAIN = dict(emb_dim=16, batch_size=256, epochs=10, learning_rate=0.5, logit_scale=10.0, seed=7)


@pytest.fixture(scope="module")
def recovery_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("recovery_corpus")
    paths = gen_synthetic(RECOVERY_SPEC, out)
    return {
        "triples": load_triples(paths.triples),
        "features": load_features(paths.features),
        "lexicon": load_lexicon(paths.lexicon),
    }


def train_and_score(triples, features, lexicon, tower):
    mode = LangMode.AWARE
    vocab, prep = prepare_corpus(triples, tower=tower, features=features, mode=mode, min_count=6, num_buckets=1000)
    config = TrainConfig(tower=tower, hidden_dim=32 if tower == "mlp" else None, **RECOVERY_TRAIN)
    started = time.perf_counter()
    result = train(prep.examples, config, num_embedding_rows=vocab.total_ids, num_images=prep.num_images)
    elapsed = time.perf_counter() - started
    vectors = {token: result.params.embeddings.rows[i] for i, token in enumerate(vocab.tokens)}
    return lexicon_retrieval(vectors, lexicon, mode), elapsed


@pytest.fixture(scope="module")
def mlp_recovery(recovery_corpus):
    return train_and_score(
        recovery_corpus["triples"], recovery_corpus["features"], recovery_corpus["lexicon"], "mlp"
    )


@pytest.fixture(scope="module")
def lookup_recovery(recovery_corpus):
    return train_and_score(recovery_corpus["triples"], None, recovery_corpus["lexicon"], "lookup")


@pytest.fixture(scope="module")
def lookup_filtered_recovery(recovery_corpus):
    filtered = filter_multilingual(recovery_corpus["triples"])
    return train_and_score(filtered, None, recovery_corpus["lexicon"], "lookup")


# --- Criterion 1: gradient correctness ---------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for tower in ("mlp", "lookup"):
        report = grad_check(tower=tower, seed=0)
        worst = max(worst, report.max_rel_err)
    elapsed = time.perf_counter() - started
    report_line(
        1,
        "gradient correctness",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.3e}, {elapsed:.1f}s",
    )


# --- Criterion 2: loss oracle equivalence ------------------------------------


def random_setup(rng, tower, batch_size):
    num_rows = int(rng.integers(6, 24))
    emb_dim = int(rng.integers(3, 10))
    if tower == "mlp":
        feature_dim = int(rng.integers(2, 8))
        params = init_params(
            int(rng.integers(1 << 30)),
            num_rows=num_rows,
            emb_dim=emb_dim,
            tower="mlp",
            feature_dim=feature_dim,
            hidden_dim=int(rng.integers(2, 9)),
        )
        images = [rng.normal(size=feature_dim) for _ in range(batch_size)]
    else:
        num_images = int(rng.integers(2, 12))
        params = init_params(
            int(rng.integers(1 << 30)), num_rows=num_rows, emb_dim=emb_dim, tower="lookup", num_images=num_images
        )
        params.tower.vectors[:] = rng.normal(0, 0.6, size=params.tower.vectors.shape)
        images = [int(rng.integers(num_images)) for _ in range(batch_size)]
    params.embeddings.rows[:] = rng.normal(0, 0.6, size=params.embeddings.rows.shape)
    examples = [
        (rng.integers(0, num_rows, size=int(rng.integers(1, 5))), images[i], float(rng.uniform(0.0, 2.0)))
        for i in range(batch_size)
    ]
    return params, pack_examples(examples)


def test_criterion_2_loss_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    max_gap = 0.0
    for trial in range(200):
        tower = "mlp" if trial % 2 == 0 else "lookup"
        params, batch = random_setup(rng, tower, int(rng.integers(1, 65)))
        scale = float(rng.uniform(0.5, 10.0))
        fast = batch_loss(params, batch, scale).mean_weighted_loss
        slow = batch_loss_bruteforce(params, batch, scale)
        max_gap = max(max_gap, abs(fast - slow))

    # Singleton batches: loss is exactly 0.
    singleton_ok = True
    for _ in range(10):
        params, batch = random_setup(rng, "lookup", 1)
        singleton_ok &= batch_loss(params, batch, 3.0).mean_weighted_loss == 0.0

    # Equal logits: identical image vectors make every row of the logit
    # matrix constant, so each example loses exactly log B.
    equal_ok = True
    for b in (2, 4, 16, 64):
        params, batch = random_setup(rng, "lookup", b)
        params.tower.vectors[:] = params.tower.vectors[0]
        batch.weights[:] = 1.0
        losses = batch_loss(params, batch, 2.0).example_losses
        equal_ok &= bool(np.all(np.abs(losses - np.log(b)) < 1e-12))

    elapsed = time.perf_counter() - started
    report_line(
        2,
        "loss oracle equivalence",
        max_gap <= 1e-9 and singleton_ok and equal_ok and elapsed < 30.0,
        f"max |fast-brute| {max_gap:.2e}, {elapsed:.1f}s",
    )


# --- Criterion 3: Spearman oracle --------------------------------------------


def test_criterion_3_spearman_oracle():
    rng = random.Random(3)
    checked = 0
    max_gap = 0.0
    while checked < 1000:
        n = rng.randrange(2, 51)
        x = [rng.randrange(10) for _ in range(n)]
        y = [rng.randrange(10) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        max_gap = max(max_gap, abs(spearman(x, y) - naive_spearman(x, y)))
        checked += 1
    hand = spearman([1, 2, 2, 3], [1, 2, 3, 4])
    hand_ok = abs(hand - 0.9487) <= 1e-4
    report_line(
        3,
        "spearman oracle",
        max_gap <= 1e-12 and hand_ok,
        f"max gap {max_gap:.2e} over {checked} lists, hand case {hand:.5f}",
    )


# --- Criterion 4: synthetic crosslingual recovery (MLP tower) ----------------


def test_criterion_4_synthetic_crosslingual_recovery(mlp_recovery):
    result, elapsed = mlp_recovery
    margin = result.same_concept_mean - result.diff_concept_mean
    report_line(
        4,
        "synthetic crosslingual recovery",
        margin >= 0.3 and result.precision_at_1 >= 0.9 and elapsed < 300.0,
        f"margin {margin:.3f} (same {result.same_concept_mean:.3f}, diff {result.diff_concept_mean:.3f}), "
        f"p@1 {result.precision_at_1:.3f}, train {elapsed:.0f}s",
    )


# --- Criterion 5: co-occurrence-only baseline direction ----------------------


def test_criterion_5_baseline_direction(mlp_recovery, lookup_recovery, lookup_filtered_recovery):
    mlp, _ = mlp_recovery
    lookup, _ = lookup_recovery
    filtered, _ = lookup_filtered_recovery
    ok = lookup.precision_at_1 < mlp.precision_at_1 and filtered.precision_at_1 >= lookup.precision_at_1
    report_line(
        5,
        "pixel-data and filter direction",
        ok,
        f"p@1 mlp {mlp.precision_at_1:.3f} > lookup {lookup.precision_at_1:.3f}; "
        f"filtered lookup {filtered.precision_at_1:.3f} >= unfiltered {lookup.precision_at_1:.3f}",
    )


# --- Criterion 6: language-unaware contract ----------------------------------


def test_criterion_6_language_unaware_contract(tmp_path):
    lines = []
    for k in range(8):
        lines.append(f"1.0\ten\tactor stage{k}\timg_en_{k}")
        lines.append(f"1.0\tes\tactor escena{k}\timg_es_{k}")
        lines.append(f"1.0\ten\ttheater stage{k}\timg_sh_{k}")
        lines.append(f"1.0\tes\tteatro escena{k}\timg_sh_{k}")
    triples_path = tmp_path / "triples.tsv"
    triples_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = cli_main(
        [
            "train",
            "--triples", str(triples_path),
            "--tower", "lookup",
            "--lang-mode", "unaware",
            "--emb-dim", "8",
            "--epochs", "2",
            "--min-count", "2",
            "--buckets", "64",
            "--logit-scale", "5",
            "--seed", "4",
            "--out-dir", str(out),
        ]
    )
    vocab = Vocabulary.load(out / "vocab.txt")
    single_row = vocab.tokens.count("actor") == 1
    id_equal = vocab.lookup(tokenize("actor", "en", LangMode.UNAWARE)[0]) == vocab.lookup(
        tokenize("actor", "es", LangMode.UNAWARE)[0]
    )

    # End-to-end evaluation with untagged inputs.
    task = tmp_path / "untagged.tsv"
    task.write_text("actor\ttheater\t8.0\nactor\tteatro\t7.0\ntheater\tteatro\t9.0\n", encoding="utf-8")
    eval_code = cli_main(
        [
            "eval",
            "--embeddings", str(out / "embeddings.vec"),
            "--similarity", str(task),
        ]
    )
    report_line(
        6,
        "language-unaware contract",
        code == 0 and single_row and id_equal and eval_code == 0,
        f"train exit {code}, one shared row {single_row}, id equality {id_equal}, untagged eval exit {eval_code}",
    )


# --- Criterion 7: filter correctness -----------------------------------------


def test_criterion_7_filter_correctness():
    rng = random.Random(7)
    trials_ok = 0
    for _ in range(100):
        n = rng.randrange(0, 1001)
        triples = [
            TripleRecord(
                weight=1.0,
                lang=rng.choice(["en", "de", "fr", "es"]),
                query=f"q{k}",
                image_id=f"i{rng.randrange(60)}",
            )
            for k in range(n)
        ]
        kept = filter_multilingual(triples)
        brute = [
            t for t in triples if len({u.lang for u in triples if u.image_id == t.image_id}) >= 2
        ]
        if kept == brute and filter_multilingual(kept) == kept:
            trials_ok += 1
    report_line(7, "filter correctness", trials_ok == 100, f"{trials_ok}/100 trials")


# --- Criterion 8: determinism ------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    gen = tmp_path / "corpus"
    assert (
        cli_main(
            [
                "gensynth",
                "--concepts", "4",
                "--languages", "2",
                "--feature-dim", "8",
                "--num-examples", "2000",
                "--seed", "11",
                "--out-dir", str(gen),
            ]
        )
        == 0
    )
    argv = [
        "train",
        "--triples", str(gen / "triples.tsv"),
        "--features", str(gen / "features.tsv"),
        "--tower", "mlp",
        "--emb-dim", "8",
        "--m", "16",
        "--batch-size", "128",
        "--epochs", "2",
        "--logit-scale", "10",
        "--buckets", "128",
        "--seed", "11",
    ]
    assert cli_main(argv + ["--out-dir", str(tmp_path / "run_a")]) == 0
    assert cli_main(argv + ["--out-dir", str(tmp_path / "run_b")]) == 0
    artifacts = ("vocab.txt", "embeddings.vec", "checkpoint.npz", "loss.csv")
    differing = [
        name for name in artifacts
        if (tmp_path / "run_a" / name).read_bytes() != (tmp_path / "run_b" / name).read_bytes()
    ]
    compared = sum((tmp_path / "run_a" / name).stat().st_size for name in artifacts)
    report_line(8, "deterministic exports", not differing, f"{compared} bytes compared, differing: {differing}")


# --- Criterion 9: report fidelity --------------------------------------------


def test_criterion_9_report_fidelity():
    cell = format_cell(ScoredResult(score=0.82, coverage=0.81, n_used=81, n_total=100))
    one = format_cell(ScoredResult(score=1.0, coverage=1.0, n_used=5, n_total=5))
    negative = format_score(-0.25)
    ok = cell == ".82 [.81]" and one == "1.00 [1.00]" and negative == "-.25"
    report_line(9, "report fidelity", ok, f"cells {cell!r}, {one!r}, {negative!r}")
