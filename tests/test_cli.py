"""End-to-end command-line tests (invoking main() in process)."""

import argparse
import csv
import dataclasses
import hashlib
import os
import re
import shlex
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import ALLOCATION_ERRORS, fail_batch_buffer
from imglex.cli import PRESETS, TRAIN_DEFAULTS, build_parser, main
from imglex.data import SyntheticSpec, gen_synthetic, load_triples
from imglex.evaluation import lexicon_retrieval, load_lexicon
from imglex.model import load_word2vec
from imglex.textproc import LangMode, Vocabulary, tokenize
from imglex.training import TrainConfig, load_checkpoint
from single_read import PIPE_KINDS, load_piped, pipe_of


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        [
            "gensynth",
            "--concepts", "4",
            "--languages", "2",
            "--words-per-concept", "2",
            "--feature-dim", "8",
            "--sigma", "0.1",
            "--num-examples", "1500",
            "--images-per-concept", "20",
            "--isolated-fraction", "0.2",
            "--seed", "5",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


def test_gensynth_writes_three_files(synth_dir):
    for name in ("triples.tsv", "features.tsv", "lexicon.tsv"):
        assert (synth_dir / name).exists()


def test_gensynth_deterministic(tmp_path):
    args = ["gensynth", "--concepts", "2", "--languages", "2", "--num-examples", "50", "--seed", "9"]
    assert run(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("triples.tsv", "features.tsv", "lexicon.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gensynth_defaults_are_the_spec_defaults(tmp_path):
    assert run(["gensynth", "--out-dir", str(tmp_path / "a")]) == 0
    gen_synthetic(SyntheticSpec(), tmp_path / "b")
    for name in ("triples.tsv", "features.tsv", "lexicon.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_every_synthetic_setting_has_one_flag_named_after_it():
    dests = [a.dest for a in subcommands()["gensynth"]._actions if a.option_strings]
    for field in dataclasses.fields(SyntheticSpec):
        assert dests.count(field.name) == 1, field.name


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--concepts", "0", "num_concepts, num_languages, num_examples must be >= 1"),
        ("--words-per-concept", "0", "words_per_concept, feature_dim, images_per_concept must be >= 1"),
        ("--sigma", "-0.1", "noise_sigma must be finite and >= 0"),
        ("--sigma", "nan", "noise_sigma must be finite and >= 0"),
        ("--sigma", "inf", "noise_sigma must be finite and >= 0"),
        ("--isolated-fraction", "1.5", "isolated_image_fraction must be in [0, 1]"),
        # numpy refuses these allocations at once (1.42 PiB; more than an array can index), so nothing is allocated.
        ("--feature-dim", "10000000000000", "cannot allocate the 20 x 10000000000000 float64 concept prototypes"),
        ("--feature-dim", "10000000000000000000", "cannot allocate the 20 x 10000000000000000000 float64 concept prototypes"),
    ],
    ids=["concepts", "words-per-concept", "sigma", "sigma-nan", "sigma-inf", "isolated-fraction", "feature-dim-PiB",
         "feature-dim-past-intp"],
)
def test_gensynth_config_error_is_one_line_and_writes_nothing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "corpus"
    assert run(["gensynth", flag, value, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["gensynth", "--out-dir", "{out}"], ["train", "--triples", "{triples}", "--tower", "lookup", "--out-dir", "{out}"],
     ["gradcheck"]],
    ids=["gensynth", "train", "gradcheck"],
)
def test_negative_seed_is_config_error(synth_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [arg.format(out=out, triples=synth_dir / "triples.tsv") for arg in argv]
    assert run(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "config error: seed must be >= 0\n")
    assert not out.exists()


def test_filter_command(synth_dir, tmp_path, capsys):
    out = tmp_path / "filtered.tsv"
    assert run(["filter", str(synth_dir / "triples.tsv"), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "kept" in printed and "dropped" in printed

    original = load_triples(synth_dir / "triples.tsv")
    kept = load_triples(out)
    brute = [t for t in original if len({u.lang for u in original if u.image_id == t.image_id}) >= 2]
    assert kept == brute

    # Idempotence: filtering the filtered file changes nothing.
    out2 = tmp_path / "filtered2.tsv"
    assert run(["filter", str(out), str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_filter_empty_file(tmp_path):
    src = tmp_path / "empty.tsv"
    src.write_text("", encoding="utf-8")
    dst = tmp_path / "out.tsv"
    assert run(["filter", str(src), str(dst)]) == 0
    assert dst.read_text(encoding="utf-8") == ""


def test_train_mlp_end_to_end(synth_dir, tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--features", str(synth_dir / "features.tsv"),
            "--tower", "mlp",
            "--lang-mode", "aware",
            "--emb-dim", "8",
            "--m", "16",
            "--batch-size", "128",
            "--epochs", "2",
            "--logit-scale", "10",
            "--min-count", "6",
            "--buckets", "100",
            "--seed", "1",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    vectors = load_word2vec(out / "embeddings.vec")
    assert all(v.shape == (8,) for v in vectors.values())
    vocab = Vocabulary.load(out / "vocab.txt")
    assert set(vectors) == set(vocab.tokens)
    assert (out / "checkpoint.npz").exists()
    loss_lines = (out / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,mean_loss"
    assert len(loss_lines) == 3


def test_train_preset_dims(synth64_dir, tmp_path):
    out = tmp_path / "preset_run"
    code = run(
        [
            "train",
            "--triples", str(synth64_dir / "triples.tsv"),
            "--features", str(synth64_dir / "features.tsv"),
            "--preset", "mlp-100",
            "--epochs", "1",
            "--buckets", "200",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    header = (out / "embeddings.vec").read_text().splitlines()[0]
    assert header.endswith(" 100")


@pytest.fixture(scope="module")
def synth64_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth64")
    assert (
        run(
            [
                "gensynth",
                "--concepts", "3",
                "--languages", "2",
                "--feature-dim", "64",
                "--num-examples", "600",
                "--seed", "2",
                "--out-dir", str(out),
            ]
        )
        == 0
    )
    return out


def test_train_preset_follows_emb_dim_override(synth64_dir, tmp_path):
    # The MLP output width is --emb-dim, so overriding a preset's emb_dim
    # needs no other flag.
    out = tmp_path / "preset_emb24"
    code = run(
        [
            "train",
            "--triples", str(synth64_dir / "triples.tsv"),
            "--features", str(synth64_dir / "features.tsv"),
            "--preset", "mlp-100",
            "--emb-dim", "24",
            "--epochs", "1",
            "--buckets", "200",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    checkpoint = load_checkpoint(out / "checkpoint.npz")
    assert checkpoint.config.emb_dim == 24 and checkpoint.config.hidden_dim == 200
    assert checkpoint.params.tower.U.shape == (24, 200)
    assert (out / "embeddings.vec").read_text().splitlines()[0].endswith(" 24")


def test_train_checkpoint_table_is_the_export(synth64_dir, tmp_path):
    # The checkpoint stores only the embedding rows training changed; the
    # table load_checkpoint returns holds only those and still reads as the
    # exported vectors, at 10**11 buckets too (a table of 80 TB).
    argv = ["train", "--triples", str(synth64_dir / "triples.tsv"), "--features", str(synth64_dir / "features.tsv")]
    for buckets in (200, 10**11):
        out = tmp_path / f"buckets{buckets}"
        assert run(argv + ["--preset", "mlp-100", "--epochs", "1", "--buckets", str(buckets), "--out-dir", str(out)]) == 0
        vocab = Vocabulary.load(out / "vocab.txt")
        vectors = load_word2vec(out / "embeddings.vec")
        table = load_checkpoint(out / "checkpoint.npz").params.embeddings
        assert table.num_rows == vocab.vocab_size + buckets
        assert np.stack([vectors[token] for token in vocab.tokens]).tobytes() == table.read(np.arange(vocab.vocab_size)).tobytes()
        with np.load(out / "checkpoint.npz") as data:
            assert data["embeddings_ids"].tolist() == table.ids.tolist() and table.ids.size < vocab.vocab_size + 200


@pytest.mark.parametrize("preset", ["mlp-100", "baseline"])
def test_train_checkpoint_vocab_hash_is_the_sha256_of_vocab_txt(synth64_dir, tmp_path, preset):
    out = tmp_path / preset
    argv = ["train", "--triples", str(synth64_dir / "triples.tsv"), "--preset", preset, "--epochs", "1", "--buckets", "200"]
    if preset == "mlp-100":
        argv += ["--features", str(synth64_dir / "features.tsv")]
    assert run(argv + ["--out-dir", str(out)]) == 0
    checkpoint = load_checkpoint(out / "checkpoint.npz")
    assert checkpoint.vocab_hash == hashlib.sha256((out / "vocab.txt").read_bytes()).hexdigest()


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_train_setting_has_one_flag_named_after_it():
    dests = [a.dest for a in subcommands()["train"]._actions if a.option_strings]
    for field in dataclasses.fields(TrainConfig):
        assert dests.count(field.name) == 1, field.name
    for preset in PRESETS.values():
        assert set(preset) <= set(dests)
    assert set(TRAIN_DEFAULTS) <= set(dests)


def test_readme_names_only_existing_flags():
    options = {opt for sub in subcommands().values() for a in sub._actions for opt in a.option_strings}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = {flag for line in readme.splitlines() if "pip" not in line for flag in re.findall(r"--[a-z][a-z0-9-]*", line)}
    assert named and sorted(named - options) == []


def test_train_config_rejected_before_any_output(synth_dir, tmp_path):
    out = tmp_path / "invalid"
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--features", str(synth_dir / "features.tsv"),
            "--tower", "mlp",
            "--emb-dim", "8",
            "--m", "16",
            "--batch-size", "1",
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()



def test_train_divergence_is_one_line_exit_1(synth_dir, tmp_path, capsys):
    out = tmp_path / "diverged"
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--features", str(synth_dir / "features.tsv"),
            "--emb-dim", "8",
            "--m", "8",
            "--batch-size", "64",
            "--epochs", "2",
            "--buckets", "50",
            "--lr", "1e200",
            "--logit-scale", "1e6",
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("training diverged: epoch 0, batch ")
    assert err[0].endswith("non-finite image tower output")
    assert not out.exists()


def test_train_norm_overflow_is_one_line_exit_1(tmp_path, capsys):
    # Finite parameters near 1e200 whose norm overflows: before the norm was
    # checked, training ran on with a flat loss of log(100) and exited 0.
    corpus = tmp_path / "corpus"
    assert run(["gensynth", "--num-examples", "600", "--out-dir", str(corpus)]) == 0
    out = tmp_path / "overflow"
    code = run(
        [
            "train",
            "--triples", str(corpus / "triples.tsv"),
            "--tower", "lookup",
            "--lr", "1e200",
            "--logit-scale", "1e6",
            "--batch-size", "100",
            "--min-count", "1",
            "--buckets", "10",
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("training diverged: epoch 0, batch ")
    assert err[0].endswith(("non-finite query norm", "non-finite image norm"))
    assert not out.exists()


def test_train_nonfinite_loss_is_one_line_exit_1(tmp_path, capsys):
    # Every parameter and gradient stays finite, but the batch loss is inf:
    # before the loss was checked, train exited 0 and wrote a loss.csv of inf.
    corpus = tmp_path / "corpus"
    assert run(["gensynth", "--num-examples", "600", "--seed", "1", "--out-dir", str(corpus)]) == 0
    capsys.readouterr()
    out = tmp_path / "inf-loss"
    code = run(
        [
            "train",
            "--triples", str(corpus / "triples.tsv"),
            "--features", str(corpus / "features.tsv"),
            "--logit-scale", "1e308",
            "--epochs", "2",
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["training diverged: epoch 0, batch 0: non-finite loss"]
    assert not out.exists()


@pytest.mark.parametrize("flag, setting", [("--lr", "learning_rate"), ("--logit-scale", "logit_scale")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_rejects_non_finite_rates_before_reading_input(tmp_path, capsys, flag, setting, value):
    out = tmp_path / "out"
    missing = tmp_path / "no_such_triples.tsv"  # a config error comes before any input is read
    assert run(["train", "--triples", str(missing), "--tower", "lookup", f"{flag}={value}", "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"config error: {setting} must be finite and positive\n")
    assert not out.exists()


@pytest.mark.parametrize("size", ["1", "0"])
def test_train_rejects_batch_size_below_two(synth_dir, tmp_path, capsys, size):
    out = tmp_path / "tiny_batch"
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--tower", "lookup",
            "--batch-size", size,
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "config error: batch_size must be >= 2: a batch of one has a constant in-batch softmax\n"
    assert not out.exists()


def test_train_single_example_is_data_error(tmp_path, capsys):
    triples = tmp_path / "one.tsv"
    triples.write_text("1.0\ten\tred car\timg1\n", encoding="utf-8")
    out = tmp_path / "one_run"
    code = run(["train", "--triples", str(triples), "--tower", "lookup", "--min-count", "1", "--buckets", "10", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: 1 usable training examples")
    assert not out.exists()


def test_train_lookup_needs_no_features(synth_dir, tmp_path):
    out = tmp_path / "lookup_run"
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--tower", "lookup",
            "--emb-dim", "8",
            "--epochs", "1",
            "--batch-size", "128",
            "--buckets", "100",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "embeddings.vec").exists()


def test_train_mlp_requires_features(synth_dir, tmp_path):
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--tower", "mlp",
            "--emb-dim", "8",
            "--m", "4",
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == 1


def test_train_data_error_leaves_no_outputs(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("1.0\ten\tmissing column\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run(
        [
            "train",
            "--triples", str(bad),
            "--tower", "lookup",
            "--emb-dim", "4",
            "--out-dir", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_embeddings(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run(
        [
            "train",
            "--triples", str(synth_dir / "triples.tsv"),
            "--features", str(synth_dir / "features.tsv"),
            "--tower", "mlp",
            "--emb-dim", "8",
            "--m", "16",
            "--batch-size", "128",
            "--epochs", "4",
            "--logit-scale", "10",
            "--buckets", "100",
            "--seed", "3",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out / "embeddings.vec"


def test_eval_similarity_report(trained_embeddings, synth_dir, tmp_path, capsys):
    vectors = load_word2vec(trained_embeddings)
    tokens = sorted(vectors)
    task = tmp_path / "sim.tsv"
    lines = []
    scores = [9.0, 7.5, 3.0, 1.0]
    for k, (a, b) in enumerate([(0, 1), (1, 2), (2, 3), (0, 3)]):
        lang_a, word_a = tokens[a].split(":", 1)
        lang_b, word_b = tokens[b].split(":", 1)
        lines.append(f"{lang_a}:{word_a}\t{lang_b}:{word_b}\t{scores[k]}")
    task.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out = tmp_path / "reports"
    code = run(
        [
            "eval",
            "--embeddings", str(trained_embeddings),
            "--similarity", str(task),
            "--aggregate",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "sim" in printed and "all" in printed
    assert (out / "report.txt").exists()
    csv_text = (out / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("row,column,score")
    assert ",sim," in csv_text and ",all," in csv_text


def test_eval_aggregate_adds_seventh_column(trained_embeddings, tmp_path, capsys):
    vectors = load_word2vec(trained_embeddings)
    tokens = sorted(vectors)
    rng = np.random.default_rng(0)
    paths = []
    for k in range(6):
        picks = rng.choice(len(tokens), size=(3, 2), replace=True)
        lines = [
            f"{tokens[a]}\t{tokens[b]}\t{float(rng.uniform(0, 10)):.2f}"
            for a, b in picks
            if a != b
        ]
        while len(lines) < 3:
            lines.append(f"{tokens[0]}\t{tokens[1]}\t5.0")
        path = tmp_path / f"sub{k}.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    argv = ["eval", "--embeddings", str(trained_embeddings), "--aggregate"]
    for path in paths:
        argv += ["--similarity", str(path)]
    assert run(argv) == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert header == [f"sub{k}" for k in range(6)] + ["all"]


def test_eval_leaves_a_word_without_a_direction_uncovered(tmp_path, capsys):
    # en:zero is a zero row and de:tiny has norm 1e-13: similarity, the
    # --aggregate pool and retrieval all leave both words uncovered.
    vec = tmp_path / "embeddings.vec"
    vec.write_text("6 2\nen:a 1.0 0.0\nde:b 0.8 0.6\nen:c 0.0 1.0\nde:d 0.6 0.8\nen:zero 0.0 0.0\nde:tiny 1e-13 0.0\n", encoding="utf-8")
    files = {
        "t1": "en:a\tde:b\t4\nen:a\tde:d\t1\nen:c\tde:d\t3\nen:zero\tde:b\t2\n",
        "t2": "en:c\tde:b\t1\nen:a\tde:tiny\t5\nen:c\tde:d\t2\n",
        "lexicon": "en:a\tde:b\t0\nen:c\tde:d\t1\nen:zero\tde:tiny\t2\n",
    }
    for name, content in files.items():
        (tmp_path / f"{name}.tsv").write_text(content, encoding="utf-8")
    argv = ["eval", "--embeddings", str(vec), "--aggregate", "--lexicon", str(tmp_path / "lexicon.tsv")]
    assert run(argv + ["--similarity", str(tmp_path / "t1.tsv"), "--similarity", str(tmp_path / "t2.tsv")]) == 0
    assert capsys.readouterr() == (
        "            t1         t2          all\n"
        "similarity  .87 [.75]  1.00 [.67]  .89 [.71]\n"
        "lexicon: precision@1 1.0000, same-concept cosine 0.8000, different-concept cosine 0.6000 (4 words, 2 pairs)\n",
        "",
    )


@pytest.mark.parametrize("error", ALLOCATION_ERRORS, ids=["MemoryError", "ValueError"])
def test_train_batch_buffer_it_cannot_allocate_is_one_config_error_line(tmp_path, monkeypatch, capsys, error):
    triples = tmp_path / "triples.tsv"
    triples.write_text("".join(f"1.0\ten\tw{k % 3} x\timg{k % 4}\n" for k in range(13)), encoding="utf-8")
    fail_batch_buffer(monkeypatch, 13, error)
    out = tmp_path / "run"
    argv = ["train", "--tower", "lookup", "--min-count", "1", "--buckets", "10", "--batch-size", "13"]
    assert run(argv + ["--triples", str(triples), "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", "config error: batch_size 13: the 13 x 13 float64 buffer (1352 bytes) cannot be allocated\n")
    assert not out.exists()


def test_eval_missing_task_file(trained_embeddings, tmp_path, capsys):
    missing = tmp_path / "no_such_task.tsv"
    code = run(["eval", "--embeddings", str(trained_embeddings), "--similarity", str(missing)])
    assert code == 2
    assert "no_such_task.tsv" in capsys.readouterr().err


def test_eval_missing_embeddings(tmp_path, capsys):
    code = run(["eval", "--embeddings", str(tmp_path / "none.vec"), "--similarity", str(tmp_path / "t.tsv")])
    assert code == 2


# (case, embeddings.vec content, line the one data error names)
MALFORMED_EMBEDDINGS = [
    ("empty", "", 1),
    ("header-not-int", "in \n", 1),
    ("dim-not-int", "2 x\n", 1),
    ("short-row", "2 3\nw1 0.5 0.25\n", 2),
    ("non-numeric", "1 2\nw1 0.5 oops\n", 2),
    ("row-count", "3 2\nw1 0.5 0.25\n", 1),
    ("nan", "2 2\nen:a 1 0\nde:x nan 1\n", 3),
    ("minus-inf", "2 2\nen:a -inf 0\nde:x 0 1\n", 2),
    ("overflow", "2 2\nen:a 1 0\nde:x 1e400 1\n", 3),
    ("norm-overflow", "3 2\nen:a 1e200 1e200\nde:x 1e200 0\nen:b 0 1\n", 2),
]


@pytest.mark.parametrize("content, line", [case[1:] for case in MALFORMED_EMBEDDINGS], ids=[case[0] for case in MALFORMED_EMBEDDINGS])
def test_eval_malformed_embeddings_is_data_error(tmp_path, capsys, content, line):
    bad = tmp_path / "bad.vec"
    bad.write_text(content, encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"  # a similarity task and a lexicon both
    pairs.write_text("en:a\tde:x\t1\nen:b\tde:x\t2\n", encoding="utf-8")
    for task in ("--similarity", "--lexicon"):
        code = run(["eval", "--embeddings", str(bad), task, str(pairs)])
        err = capsys.readouterr().err
        assert code == 2, task
        assert err.startswith(f"data error: {bad}:{line}: ") and err.count("\n") == 1, task


def test_eval_duplicate_embedding_token_is_data_error(tmp_path, capsys):
    vec = tmp_path / "dup.vec"
    vec.write_text("2 2\na 0.5 0.25\na 1.0 0.0\n", encoding="utf-8")
    task = tmp_path / "t.tsv"
    task.write_text("en:a\ten:b\t1.0\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(vec), "--similarity", str(task)]) == 2
    assert capsys.readouterr().err == f"data error: {vec}:3: duplicate key 'a'\n"


def test_eval_lexicon_reports_retrieval(trained_embeddings, synth_dir, capsys):
    lexicon = synth_dir / "lexicon.tsv"
    assert run(["eval", "--embeddings", str(trained_embeddings), "--lexicon", str(lexicon)]) == 0
    want = lexicon_retrieval(load_word2vec(trained_embeddings), load_lexicon(lexicon), LangMode.AWARE)
    assert capsys.readouterr().out == (
        f"lexicon: precision@1 {want.precision_at_1:.4f}, same-concept cosine {want.same_concept_mean:.4f}, "
        f"different-concept cosine {want.diff_concept_mean:.4f} ({want.n_words} words, {want.n_pairs} pairs)\n"
    )
    assert want.n_words == 16 and want.precision_at_1 > 0.5


@pytest.mark.parametrize("kind", PIPE_KINDS)
def test_eval_reads_the_embeddings_from_a_pipe(trained_embeddings, synth_dir, tmp_path, capsys, kind):
    argv = ["eval", "--lexicon", str(synth_dir / "lexicon.tsv"), "--embeddings"]
    assert run(argv + [str(trained_embeddings)]) == 0
    from_file = capsys.readouterr()
    _, code = load_piped(kind, tmp_path, trained_embeddings.read_text(encoding="utf-8"), lambda path: run(argv + [str(path)]))
    assert code == 0
    assert capsys.readouterr() == from_file and from_file.out.startswith("lexicon: precision@1 ")


def test_eval_lexicon_with_similarity(trained_embeddings, synth_dir, tmp_path, capsys):
    tokens = sorted(load_word2vec(trained_embeddings))
    task = tmp_path / "sim.tsv"
    task.write_text(f"{tokens[0]}\t{tokens[1]}\t9.0\n{tokens[1]}\t{tokens[2]}\t1.0\n{tokens[0]}\t{tokens[3]}\t5.0\n", encoding="utf-8")
    argv = ["eval", "--embeddings", str(trained_embeddings), "--similarity", str(task)]
    assert run(argv + ["--lexicon", str(synth_dir / "lexicon.tsv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["sim"] and lines[1].startswith("similarity ")
    assert lines[2].startswith("lexicon: precision@1 ") and len(lines) == 3


def test_eval_malformed_lexicon_is_data_error(trained_embeddings, tmp_path, capsys):
    bad = tmp_path / "lex.tsv"
    bad.write_text("en:a\tde:b\t0\nen:c\tde:d\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(trained_embeddings), "--lexicon", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {bad}:2: expected 3 tab-separated columns, got 2\n"
    assert captured.out == ""


def test_eval_degenerate_lexicon_exit_code(trained_embeddings, tmp_path, capsys):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("en:nothere\tde:alsonot\t0\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(trained_embeddings), "--lexicon", str(lexicon)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "lexicon: fewer than 2 covered words\n"
    assert captured.out == ""


def test_eval_nothing_to_evaluate_names_every_task_flag(trained_embeddings, capsys):
    assert run(["eval", "--embeddings", str(trained_embeddings)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nothing to evaluate") and err.count("\n") == 1
    for flag in ("--similarity", "--classify-train", "--lexicon"):
        assert flag in err


def test_eval_nothing_to_evaluate_is_raised_before_the_export_is_read(tmp_path, capsys):
    assert run(["eval", "--embeddings", str(tmp_path / "missing.vec")]) == 1
    assert capsys.readouterr() == (
        "", "error: nothing to evaluate: pass --similarity, --classify-train/--classify-test and/or --lexicon\n"
    )


def write_sim_inputs(tmp_path, *tasks):
    """An export and one similarity task file at each relative path in
    ``tasks``; returns the eval argv for them, without --out-dir."""
    vec = tmp_path / "e.vec"
    vec.write_text("4 2\nen:a 1 0\nen:b 0 1\nen:c 1 1\nde:b 1 0.5\n", encoding="utf-8")
    argv = ["eval", "--embeddings", str(vec)]
    for name in tasks:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("en:a\ten:b\t1\nen:a\ten:c\t2\nen:b\tde:b\t3\n", encoding="utf-8")
        argv += ["--similarity", str(path)]
    return argv


def test_eval_rejects_two_similarity_tasks_with_one_column(tmp_path, capsys):
    argv = write_sim_inputs(tmp_path, "a/en.tsv", "b/en.tsv")
    out = tmp_path / "o"
    assert run(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: similarity column 'en' comes from both {tmp_path / 'a/en.tsv'} and {tmp_path / 'b/en.tsv'}\n"
    )
    assert not out.exists()


def test_eval_rejects_a_similarity_task_named_like_the_aggregate(tmp_path, capsys):
    argv = write_sim_inputs(tmp_path, "a/en.tsv", "b/all.tsv")
    out = tmp_path / "o"
    assert run(argv + ["--aggregate", "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: similarity column 'all' comes from both {tmp_path / 'b/all.tsv'} and --aggregate\n")
    assert not out.exists()


def test_eval_report_csv_quotes_a_task_name_with_a_comma(tmp_path, capsys):
    argv = write_sim_inputs(tmp_path, "x,y.tsv")
    out = tmp_path / "o"
    assert run(argv + ["--aggregate", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["x,y", "all"]
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    assert [len(record) for record in records] == [7, 7, 7]
    assert [record[:2] for record in records] == [["row", "column"], ["similarity", "x,y"], ["similarity", "all"]]
    assert (out / "report.csv").read_text(encoding="utf-8").splitlines()[1].startswith('similarity,"x,y",')


def test_eval_classification_cli(trained_embeddings, tmp_path):
    vectors = load_word2vec(trained_embeddings)
    tokens = sorted(vectors)
    half = len(tokens) // 2
    docs = []
    for i, token in enumerate(tokens):
        lang, word = token.split(":", 1)
        label = "first" if i < half else "second"
        docs.append(f"{label}\t{lang}\t{word}")
    train_file = tmp_path / "train.tsv"
    test_file = tmp_path / "test.tsv"
    train_file.write_text("\n".join(docs) + "\n", encoding="utf-8")
    test_file.write_text("\n".join(docs[:4]) + "\n", encoding="utf-8")
    code = run(
        [
            "eval",
            "--embeddings", str(trained_embeddings),
            "--classify-train", str(train_file),
            "--classify-test", str(test_file),
        ]
    )
    assert code == 0


def test_eval_degenerate_task_exit_code(trained_embeddings, tmp_path, capsys):
    task = tmp_path / "degenerate.tsv"
    task.write_text("en:nothere\ten:alsonot\t5.0\nen:nope\ten:nada\t3.0\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(trained_embeddings), "--similarity", str(task)])
    assert code == 3
    assert capsys.readouterr().err == "similarity task degenerate: fewer than 2 covered pairs\n"


def test_eval_unaware_untagged_inputs(tmp_path):
    # An export of bare tokens is scored in unaware mode, which accepts task
    # words without language tags.
    vec = tmp_path / "emb.vec"
    vec.write_text(
        "4 2\nhot 1.0 0.0\nwarm 0.9 0.1\ncold 0.0 1.0\nchill 0.1 0.9\n",
        encoding="utf-8",
    )
    task = tmp_path / "sim.tsv"
    task.write_text("hot\twarm\t9.0\nhot\tcold\t1.0\nwarm\tchill\t2.0\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(vec), "--similarity", str(task)])
    assert code == 0


def test_eval_has_no_lang_mode_flag(trained_embeddings, synth_dir, capsys):
    argv = ["eval", "--embeddings", str(trained_embeddings), "--lexicon", str(synth_dir / "lexicon.tsv")]
    assert run(argv + ["--lang-mode", "aware"]) == 1
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --lang-mode aware\n")


@pytest.mark.parametrize("preset, mode", [("mlp-100", LangMode.AWARE), ("unaware-100", LangMode.UNAWARE)])
def test_eval_reads_the_language_mode_from_the_export(synth64_dir, tmp_path, capsys, preset, mode):
    out = tmp_path / preset
    argv = ["train", "--triples", str(synth64_dir / "triples.tsv"), "--features", str(synth64_dir / "features.tsv")]
    assert run(argv + ["--preset", preset, "--epochs", "1", "--buckets", "200", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    lexicon = synth64_dir / "lexicon.tsv"
    assert run(["eval", "--embeddings", str(out / "embeddings.vec"), "--lexicon", str(lexicon)]) == 0
    want = lexicon_retrieval(load_word2vec(out / "embeddings.vec"), load_lexicon(lexicon), mode)
    assert capsys.readouterr() == (
        f"lexicon: precision@1 {want.precision_at_1:.4f}, same-concept cosine {want.same_concept_mean:.4f}, "
        f"different-concept cosine {want.diff_concept_mean:.4f} ({want.n_words} words, {want.n_pairs} pairs)\n",
        "",
    )



EVAL = ["eval", "--embeddings", "{vec}"]
EVAL_BARE = ["eval", "--embeddings", "{bare_vec}"]  # an export of bare tokens: unaware mode
TRAIN = ["train", "--tower", "lookup", "--buckets", "10", "--out-dir", "{out}"]
TRAIN_MLP = ["train", "--features", "{feat}", "--min-count", "1", "--buckets", "10", "--out-dir", "{out}"]  # features of img1 only


@pytest.mark.parametrize(
    "argv, content, code, err",
    [
        (TRAIN + ["--triples"], "1.0\tEN\ta b\timg1\n", 2, "data error: {path}:1: invalid language code 'EN'"),
        (TRAIN + ["--triples"], "1.0\t\ta b\timg1\n", 2, "data error: {path}:1: invalid language code ''"),
        (TRAIN + ["--buckets", "100000000000000000000", "--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc\timg2\n", 1,
         "config error: --buckets 100000000000000000000: 0 vocabulary tokens + 100000000000000000000 buckets "
         "exceed the int64 limit of 2**63 - 1 embedding rows"),
        (TRAIN + ["--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc a\timg2\n", 2,
         "data error: empty vocabulary: none of the 3 distinct tokens reaches --min-count 6"),
        (TRAIN + ["--min-count", "1", "--emb-dim", "1000000000000", "--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc\timg2\n", 1,
         "config error: the model's float64 arrays cannot be allocated (3 embedding rows, emb_dim 1000000000000, hidden_dim None)"),
        (TRAIN + ["--min-count", "1", "--logit-scale", "1e160", "--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc\timg2\n1.0\ten\td\timg3\n", 1,
         "training diverged: epoch 0, batch 0: non-finite Adagrad accumulator"),
        (TRAIN_MLP + ["--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc\timg2\n", 2,
         "data error: {path}:2: no feature vector for image id 'img2'"),
        # The filter drops line 2 (img3 has one language); the error still names line 4.
        (TRAIN_MLP + ["--filter-multilingual", "--triples"], "1.0\ten\ta\timg1\n1.0\ten\tb\timg3\n1.0\tde\tc\timg1\n1.0\ten\td\timg2\n1.0\tde\te\timg2\n", 2,
         "data error: {path}:4: no feature vector for image id 'img2'"),
        # No token reaches --min-count 6 and img2 has no features: the vocabulary is checked first.
        (TRAIN_MLP + ["--min-count", "6", "--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc\timg2\n", 2,
         "data error: empty vocabulary: none of the 3 distinct tokens reaches --min-count 6"),
        (EVAL + ["--similarity"], "EN:a\ten:b\t1\n", 3, "similarity task bad: word 'EN:a' has an invalid language tag"),
        (EVAL + ["--similarity"], ":a\ten:b\t1\n", 3, "similarity task bad: word ':a' has an invalid language tag"),
        (EVAL + ["--similarity"], "en:a\ten:b\tnan\nen:a\ten:c\t1\nen:b\ten:c\tinf\n", 2,
         "data error: {path}:1: non-finite score 'nan'"),
        (EVAL + ["--aggregate", "--similarity"], "en:a\ten:b\t1\nen:a\ten:zz\t2\n", 3,
         "similarity task bad: fewer than 2 covered pairs\naggregate: fewer than 2 covered pairs"),
        (EVAL + ["--classify-test", "{path}", "--classify-train"], "x\tEN\ta\n", 2,
         "data error: {path}:1: invalid language code 'EN'"),
        (EVAL + ["--classify-test", "{path}", "--classify-train"], "x\t\ta\n", 2,
         "data error: {path}:1: invalid language code ''"),
        (EVAL + ["--classify-test", "{path}", "--classify-train"], "x\ten\tzz\n", 3,
         "classification: no covered training documents"),
        (EVAL + ["--lexicon"], "EN:a\ten:b\t0\n", 3, "lexicon: word 'EN:a' has an invalid language tag"),
        (EVAL + ["--lexicon"], ":a\ten:b\t0\n", 3, "lexicon: word ':a' has an invalid language tag"),
        (EVAL + ["--lexicon"], "en:a\tde:b\t0\nen:a\tde:c\t1\n", 3, "lexicon: word 'en:a' listed under two concepts"),
        (EVAL_BARE + ["--lexicon"], "a\tde:b\t0\nen:c\tde:b\t0\n", 3,
         "lexicon: word 'a' has no language tag"),
        (EVAL_BARE + ["--lexicon"], "en:a\tde:b\t0\nEN:c\tde:b\t1\n", 3,
         "lexicon: word 'EN:c' has an invalid language tag"),
        (EVAL + ["--out-dir", "{out}", "--lexicon"], "en:a\tde:b\t0\nen:c\tde:b\t0\n", 1,
         "error: --out-dir writes the similarity/classification report: pass --similarity or --classify-train/--classify-test"),
        (EVAL + ["--aggregate", "--lexicon"], "en:a\tde:b\t0\nen:c\tde:b\t0\n", 1,
         "error: --aggregate pools the similarity tasks: pass --similarity"),
        (TRAIN + ["--min-count", "0", "--triples"], "1.0\ten\ta b\timg1\n", 1, "config error: min-count and buckets must be >= 1"),
        (TRAIN + ["--buckets", "0", "--triples"], "1.0\ten\ta b\timg1\n", 1, "config error: min-count and buckets must be >= 1"),
        (TRAIN + ["--triples"], "1.0\ten\ta b\timg1\n1.0\ten\tc\t\n", 2, "data error: {path}:2: empty image id"),
        (TRAIN + ["--emb-dim", "0", "--triples"], "1.0\ten\ta b\timg1\n", 1, "config error: emb_dim must be >= 1"),
        (TRAIN + ["--epochs", "-1", "--triples"], "1.0\ten\ta b\timg1\n", 1, "config error: epochs must be >= 0"),
        (TRAIN + ["--tower", "mlp", "--m", "0", "--triples"], "1.0\ten\ta b\timg1\n", 1,
         "config error: mlp tower requires hidden_dim >= 1"),
        (EVAL + ["--classify-train"], "x\ten\ta\n", 1, "error: --classify-train and --classify-test go together"),
        # Only label x has a covered training document (zz is no token of the export).
        (EVAL + ["--classify-test", "{path}", "--classify-train"], "x\ten\ta\ny\ten\tzz\n", 3,
         "classification: fewer than 2 labels among covered training documents"),
    ],
    ids=[
        "triples-upper", "triples-empty", "buckets-too-many", "empty-vocabulary", "emb-dim-too-large", "accumulator-overflow",
        "image-without-features", "image-without-features-filtered", "empty-vocabulary-before-features",
        "similarity-upper", "similarity-empty", "similarity-nan",
        "aggregate-uncovered", "classification-upper", "classification-empty", "classification-uncovered",
        "lexicon-upper", "lexicon-empty", "lexicon-two-concepts", "lexicon-bare-word", "lexicon-unaware-upper",
        "out-dir-without-report", "aggregate-without-similarity",
        "min-count-zero", "buckets-zero", "triples-empty-image-id", "emb-dim-zero", "epochs-negative", "m-zero",
        "classify-train-alone", "classification-one-label",
    ],
)
def test_bad_input_is_one_stderr_line_with_one_prefix(tmp_path, capsys, argv, content, code, err):
    path = tmp_path / "bad.tsv"
    path.write_text(content, encoding="utf-8")
    vec = tmp_path / "emb.vec"
    vec.write_text("4 2\nen:a 1 0\nen:b 0 1\nen:c 1 1\nde:b 1 0.5\n", encoding="utf-8")
    bare_vec = tmp_path / "bare.vec"
    bare_vec.write_text("3 2\na 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
    feat = tmp_path / "feats.tsv"
    feat.write_text("img1\t1.0,0.0\n", encoding="utf-8")
    names = {"vec": vec, "bare_vec": bare_vec, "feat": feat, "out": tmp_path / "out", "path": path}
    assert run([arg.format(**names) for arg in argv] + [str(path)]) == code
    assert capsys.readouterr().err == err.format(**names) + "\n"
    assert not names["out"].exists()

@pytest.mark.parametrize("rows", [10**11, 2**63 - 1, 2**63])
def test_train_takes_buckets_up_to_the_int64_limit(tmp_path, capsys, rows):
    # --min-count 4 keeps the 3 tokens v0..v2, so --buckets rows - 3 makes a
    # table of ``rows`` rows: up to 2**63 - 1 train (only the corpus's rows
    # are held), one more is a config error that writes nothing.
    buckets = rows - 3
    triples = tmp_path / "triples.tsv"
    triples.write_text("".join(f"1.0\ten\tw{k} v{k % 3}\timg{k % 4}\n" for k in range(12)), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["train", "--triples", str(triples), "--tower", "lookup", "--emb-dim", "4", "--epochs", "2", "--batch-size", "4", "--min-count", "4"]
    code = run(argv + ["--buckets", str(buckets), "--out-dir", str(out)])
    if rows > 2**63 - 1:
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"config error: --buckets {buckets}: 3 vocabulary tokens + {buckets} buckets exceed the int64 limit of 2**63 - 1 embedding rows\n"
        )
        return
    assert code == 0
    with np.load(out / "checkpoint.npz") as data:
        assert int(data["embeddings_num_rows"]) == rows
        assert 0 < data["embeddings_ids"].size <= 15 and data["embeddings_ids"][-1] < rows
    assert (out / "embeddings.vec").read_text(encoding="utf-8").splitlines()[0] == "3 4"


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


@contextmanager
def cat_pipes(line):
    """``line`` with each ``<(cat FILE)`` replaced, as bash does, by the
    /dev/fd/N of an anonymous pipe that a thread fills with FILE's bytes."""
    pipes = []

    def substitute(match):
        pipes.append(pipe_of(Path(match.group(1)).read_bytes()))
        return f"/dev/fd/{pipes[-1][0]}"

    try:
        yield re.sub(r"<\(cat (\S+)\)", substitute, line)
    finally:
        for read_fd, writer in pipes:
            os.close(read_fd)
            writer.join(10)
            assert not writer.is_alive()


def test_workflow_smoke_commands_succeed(tmp_path, monkeypatch, capsys):
    # The CI workflow's console-script smoke step, one `imglex ...` line at a
    # time, in a fresh directory as the runner does: each must exit 0. Output
    # redirections are dropped, and `<(cat FILE)` is FILE through a pipe.
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines() if line.strip().startswith("imglex ")]
    lines = [re.sub(r" > \S+$", "", line) for line in lines]
    assert {shlex.split(line)[1] for line in lines} == {"gensynth", "filter", "train", "eval", "gradcheck"}
    assert any("<(cat " in line for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with cat_pipes(line) as piped:
            argv = shlex.split(piped)[1:]
            assert run(argv) == 0, (argv, capsys.readouterr().err)


def test_gradcheck_cli(capsys):
    assert run(["gradcheck"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 2
    assert "tower=mlp" in printed and "tower=lookup" in printed


def test_usage_error_exit_code(capsys):
    assert run(["train", "--out-dir", "x"]) == 1  # missing --triples
    assert run(["eval", "--embeddings", "x.vec"]) in (1, 2)


def test_an_output_under_a_regular_file_is_one_io_error_line(tmp_path, capsys):
    triples = tmp_path / "t.tsv"
    triples.write_text("1.0\ten\ta\timg1\n1.0\tde\tb\timg1\n", encoding="utf-8")
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert run(["filter", str(triples), str(blocker / "out.tsv")]) == 2
    assert capsys.readouterr() == ("", f"i/o error: [Errno 17] File exists: '{blocker}'\n")
    assert blocker.read_text(encoding="utf-8") == ""


def test_unaware_training_shares_cognate_row(tmp_path):
    # Two languages share the surface form "actor"; unaware training must
    # give them one embedding row.
    lines = []
    for k in range(8):
        lines.append(f"1.0\ten\tactor movie{k}\ten_img{k}")
        lines.append(f"1.0\tes\tactor cine{k}\tes_img{k}")
    triples = tmp_path / "triples.tsv"
    triples.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = run(
        [
            "train",
            "--triples", str(triples),
            "--tower", "lookup",
            "--lang-mode", "unaware",
            "--emb-dim", "4",
            "--epochs", "1",
            "--min-count", "2",
            "--buckets", "50",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    vocab = Vocabulary.load(out / "vocab.txt")
    assert vocab.tokens.count("actor") == 1
    en_token = tokenize("actor", "en", LangMode.UNAWARE)[0]
    es_token = tokenize("actor", "es", LangMode.UNAWARE)[0]
    assert vocab.lookup(en_token) == vocab.lookup(es_token)
    vectors = load_word2vec(out / "embeddings.vec")
    assert "actor" in vectors
