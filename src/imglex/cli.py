"""Command-line entry point.

Subcommands:
  gensynth   write a synthetic multilingual corpus (triples/features/lexicon)
  filter     keep only triples whose image spans >= 2 languages
  train      build a vocabulary, train embeddings, export artifacts
  eval       score an embedding export on similarity/classification tasks
  gradcheck  compare analytic gradients against finite differences

Exit codes: 0 success, 1 usage/config error or diverged training, 2 data
error, 3 failed check or degenerate evaluation. All outputs are written
atomically, so a failed run leaves no partial files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from imglex.data import (
    SyntheticSpec,
    filter_multilingual,
    gen_synthetic,
    load_features,
    load_triples,
    prepare_examples,
    save_triples,
)
from imglex.errors import ConfigError, DataError, EvalError, ImglexError, TrainingDiverged
from imglex.evaluation import (
    ReportRow,
    emit_report,
    eval_classification,
    eval_similarity,
    eval_similarity_aggregate,
    load_class_task,
    load_sim_task,
)
from imglex.fileio import atomic_write_text
from imglex.model import load_word2vec, save_word2vec
from imglex.textproc import (
    DEFAULT_MIN_COUNT,
    DEFAULT_NUM_BUCKETS,
    LangMode,
    build_vocab,
    tokenize,
)
from imglex.training import TrainConfig, grad_check, save_checkpoint, save_loss_curve, train

GRADCHECK_THRESHOLD = 1e-4

# Named configurations; flags given explicitly override preset values.
PRESETS: dict[str, dict] = {
    "mlp-100": {"tower": "mlp", "lang_mode": "aware", "emb_dim": 100, "m": 200, "n": 100},
    "mlp-300": {"tower": "mlp", "lang_mode": "aware", "emb_dim": 300, "m": 300, "n": 300},
    "baseline": {"tower": "lookup", "lang_mode": "aware", "emb_dim": 100},
    "baseline-2lang": {"tower": "lookup", "lang_mode": "aware", "emb_dim": 100, "filter_multilingual": True},
    "unaware-100": {"tower": "mlp", "lang_mode": "unaware", "emb_dim": 100, "m": 200, "n": 100},
}


class UsageError(ImglexError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imglex", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gensynth", help="generate a synthetic multilingual corpus")
    p_gen.add_argument("--concepts", type=int, default=20)
    p_gen.add_argument("--languages", type=int, default=3)
    p_gen.add_argument("--words-per-concept", type=int, default=2)
    p_gen.add_argument("--feature-dim", type=int, default=64)
    p_gen.add_argument("--sigma", type=float, default=0.1)
    p_gen.add_argument("--num-examples", type=int, default=1000)
    p_gen.add_argument("--images-per-concept", type=int, default=200)
    p_gen.add_argument("--isolated-fraction", type=float, default=0.6)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_gensynth)

    p_filter = sub.add_parser("filter", help="apply the >=2-language image filter")
    p_filter.add_argument("input")
    p_filter.add_argument("output")
    p_filter.set_defaults(func=cmd_filter)

    p_train = sub.add_parser("train", help="train embeddings from a triples file")
    p_train.add_argument("--triples", required=True)
    p_train.add_argument("--features", help="features TSV (required for the mlp tower)")
    p_train.add_argument("--preset", choices=sorted(PRESETS))
    p_train.add_argument("--tower", choices=["mlp", "lookup"])
    p_train.add_argument("--lang-mode", choices=["aware", "unaware"])
    p_train.add_argument("--emb-dim", type=int)
    p_train.add_argument("--m", type=int, help="MLP hidden width")
    p_train.add_argument("--n", type=int, help="MLP output width (must equal --emb-dim)")
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--logit-scale", type=float)
    p_train.add_argument("--min-count", type=int)
    p_train.add_argument("--buckets", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--filter-multilingual", action="store_true", default=None)
    p_train.add_argument("--deterministic", action="store_true",
                         help="fixed reduction order (always on; flag kept for interface stability)")
    p_train.add_argument("--out-dir", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate an embedding export")
    p_eval.add_argument("--embeddings", required=True, help="word2vec text export")
    p_eval.add_argument("--similarity", action="append", default=[], help="similarity task TSV (repeatable)")
    p_eval.add_argument("--aggregate", action="store_true", help="add a pooled 'all' column over the similarity tasks")
    p_eval.add_argument("--classify-train")
    p_eval.add_argument("--classify-test")
    p_eval.add_argument("--lang-mode", choices=["aware", "unaware"], default="aware")
    p_eval.add_argument("--out-dir")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("gradcheck", help="finite-difference gradient check for both towers")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_gradcheck)

    return parser


def cmd_gensynth(args) -> int:
    spec = SyntheticSpec(
        num_concepts=args.concepts,
        num_languages=args.languages,
        words_per_concept=args.words_per_concept,
        feature_dim=args.feature_dim,
        noise_sigma=args.sigma,
        num_examples=args.num_examples,
        seed=args.seed,
        images_per_concept=args.images_per_concept,
        isolated_image_fraction=args.isolated_fraction,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    paths = gen_synthetic(spec, args.out_dir)
    print(f"wrote {paths.triples}")
    print(f"wrote {paths.features}")
    print(f"wrote {paths.lexicon}")
    return 0


def cmd_filter(args) -> int:
    triples = load_triples(args.input)
    kept = filter_multilingual(triples)
    save_triples(args.output, kept)
    print(f"kept {len(kept)} dropped {len(triples) - len(kept)}")
    return 0


def _resolved(args, name: str, preset: dict, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    return preset.get(name, default)


def cmd_train(args) -> int:
    preset = PRESETS.get(args.preset, {}) if args.preset else {}
    tower = _resolved(args, "tower", preset, "mlp")
    lang_mode = LangMode.from_string(_resolved(args, "lang_mode", preset, "aware"))
    emb_dim = _resolved(args, "emb_dim", preset, 100)
    hidden = _resolved(args, "m", preset, 200)
    out_width = _resolved(args, "n", preset, None)
    apply_filter = bool(_resolved(args, "filter_multilingual", preset, False))
    min_count = _resolved(args, "min_count", preset, DEFAULT_MIN_COUNT)
    num_buckets = _resolved(args, "buckets", preset, DEFAULT_NUM_BUCKETS)
    config = TrainConfig(
        tower=tower,
        emb_dim=emb_dim,
        hidden_dim=hidden if tower == "mlp" else None,
        out_dim=out_width,
        batch_size=_resolved(args, "batch_size", preset, 1000),
        epochs=_resolved(args, "epochs", preset, 5),
        learning_rate=_resolved(args, "lr", preset, 0.5),
        logit_scale=_resolved(args, "logit_scale", preset, 1.0),
        seed=_resolved(args, "seed", preset, 0),
    )
    config.validate()  # reject bad configs before touching any input or output
    if min_count < 1 or num_buckets < 1:
        raise ConfigError("min-count and buckets must be >= 1")
    if tower == "mlp" and not args.features:
        raise ConfigError("mlp tower requires --features")

    triples = load_triples(args.triples)
    if apply_filter:
        before = len(triples)
        triples = filter_multilingual(triples)
        print(f"multilingual filter: kept {len(triples)} of {before} triples")
    features = load_features(args.features) if tower == "mlp" else None
    vocab = build_vocab(
        (token for t in triples for token in tokenize(t.query, t.lang, lang_mode)),
        min_count=min_count,
        num_buckets=num_buckets,
        mode=lang_mode,
    )
    prepared = prepare_examples(triples, vocab, tower=tower, features=features)
    if len(prepared.examples) < 2:
        raise DataError(
            f"{len(prepared.examples)} usable training examples, the in-batch softmax needs at least 2 "
            "(every query tokenized to nothing?)"
        )
    result = train(
        prepared.examples,
        config,
        num_embedding_rows=vocab.total_ids,
        num_images=prepared.num_images,
    )

    out = Path(args.out_dir)
    vocab.save(out / "vocab.txt")
    save_word2vec(out / "embeddings.vec", vocab, result.params.embeddings)
    save_checkpoint(
        out / "checkpoint.npz",
        result.params,
        result.optimizer,
        config,
        vocab_hash=vocab.content_hash(),
        epoch=config.epochs,
    )
    save_loss_curve(out / "loss.csv", result.epoch_losses)
    print(f"vocabulary: {vocab.vocab_size} tokens + {vocab.num_buckets} buckets")
    print(f"examples: {len(prepared.examples)} (dropped {prepared.dropped} empty queries)")
    final = f"{result.epoch_losses[-1]:.6f}" if result.epoch_losses else "n/a (0 epochs)"
    print(f"final epoch mean loss: {final}")
    print(f"wrote {out / 'embeddings.vec'}")
    return 0


def cmd_eval(args) -> int:
    if (args.classify_train is None) != (args.classify_test is None):
        raise UsageError("--classify-train and --classify-test go together")
    vectors = load_word2vec(args.embeddings)
    mode = LangMode.from_string(args.lang_mode)
    rows: list[ReportRow] = []
    errored = False

    if args.similarity:
        tasks = [load_sim_task(path) for path in args.similarity]
        cells = []
        for task in tasks:
            try:
                cells.append((task.name, eval_similarity(vectors, task, mode)))
            except EvalError as exc:
                print(f"similarity task {task.name}: {exc}", file=sys.stderr)
                errored = True
        if args.aggregate:
            try:
                cells.append(("all", eval_similarity_aggregate(vectors, tasks, mode)))
            except EvalError as exc:
                print(f"aggregate: {exc}", file=sys.stderr)
                errored = True
        if cells:
            rows.append(ReportRow(name="similarity", cells=cells))

    if args.classify_train:
        task = load_class_task(args.classify_train, args.classify_test)
        try:
            rows.append(ReportRow(name="classification", cells=[(task.name, eval_classification(vectors, task, mode))]))
        except EvalError as exc:
            print(f"classification: {exc}", file=sys.stderr)
            errored = True

    if rows:
        report = emit_report(rows)
        print(report.text, end="")
        if args.out_dir:
            out = Path(args.out_dir)
            atomic_write_text(out / "report.txt", report.text)
            atomic_write_text(out / "report.csv", report.csv)
            print(f"wrote {out / 'report.txt'} and {out / 'report.csv'}")
    elif not errored:
        raise UsageError("nothing to evaluate: pass --similarity and/or --classify-train/--classify-test")
    return 3 if errored else 0


def cmd_gradcheck(args) -> int:
    failed = False
    for tower in ("mlp", "lookup"):
        report = grad_check(tower=tower, seed=args.seed)
        ok = report.max_rel_err < GRADCHECK_THRESHOLD
        failed |= not ok
        status = "PASS" if ok else "FAIL"
        print(
            f"tower={tower}: max rel err {report.max_rel_err:.3e} over "
            f"{report.num_checked} params (worst {report.worst_param}): {status}"
        )
    return 3 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EvalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
