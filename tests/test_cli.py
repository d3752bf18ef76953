"""End-to-end command-line tests (invoking main() in process)."""

import numpy as np
import pytest

from imglex.cli import main
from imglex.data import load_triples
from imglex.model import load_word2vec
from imglex.textproc import LangMode, Vocabulary, tokenize


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
            "--n", "50",
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
    code = run(["train", "--triples", str(triples), "--tower", "lookup", "--buckets", "10", "--out-dir", str(out)])
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


def test_eval_missing_task_file(trained_embeddings, tmp_path, capsys):
    missing = tmp_path / "no_such_task.tsv"
    code = run(["eval", "--embeddings", str(trained_embeddings), "--similarity", str(missing)])
    assert code == 2
    assert "no_such_task.tsv" in capsys.readouterr().err


def test_eval_missing_embeddings(tmp_path, capsys):
    code = run(["eval", "--embeddings", str(tmp_path / "none.vec"), "--similarity", str(tmp_path / "t.tsv")])
    assert code == 2


@pytest.mark.parametrize(
    "content",
    ["", "in \n", "2 x\n", "2 3\nw1 0.5 0.25\n", "1 2\nw1 0.5 oops\n", "3 2\nw1 0.5 0.25\n"],
    ids=["empty", "header-not-int", "dim-not-int", "short-row", "non-numeric", "row-count"],
)
def test_eval_malformed_embeddings_is_data_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.vec"
    bad.write_text(content, encoding="utf-8")
    task = tmp_path / "t.tsv"
    task.write_text("en:a\ten:b\t1.0\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(bad), "--similarity", str(task)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "bad.vec:" in err


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


def test_eval_unaware_untagged_inputs(tmp_path):
    # Unaware-mode evaluation accepts task words without language tags.
    vec = tmp_path / "emb.vec"
    vec.write_text(
        "4 2\nhot 1.0 0.0\nwarm 0.9 0.1\ncold 0.0 1.0\nchill 0.1 0.9\n",
        encoding="utf-8",
    )
    task = tmp_path / "sim.tsv"
    task.write_text("hot\twarm\t9.0\nhot\tcold\t1.0\nwarm\tchill\t2.0\n", encoding="utf-8")
    code = run(["eval", "--embeddings", str(vec), "--similarity", str(task), "--lang-mode", "unaware"])
    assert code == 0


def test_gradcheck_cli(capsys):
    assert run(["gradcheck"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 2
    assert "tower=mlp" in printed and "tower=lookup" in printed


def test_usage_error_exit_code(capsys):
    assert run(["train", "--out-dir", "x"]) == 1  # missing --triples
    assert run(["eval", "--embeddings", "x.vec"]) in (1, 2)


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
