"""Command-line entry point.

Subcommands:
  gensynth   write a synthetic multilingual corpus (triples/features/lexicon)
  filter     keep only triples whose image spans >= 2 languages
  train      build a vocabulary, train embeddings, export artifacts
  eval       score an embedding export on similarity/classification tasks
             and on a ground-truth lexicon (translation retrieval), in the
             language mode its tokens show: aware if each has a ':'
  gradcheck  compare analytic gradients against finite differences

train resolves its settings in one merge: TRAIN_DEFAULTS, then the --preset,
then every flag given explicitly. Each train flag's dest is the setting's
name, the TrainConfig field where there is one (--m sets hidden_dim, --lr
learning_rate), and TrainConfig receives only the fields that are set, so
its own defaults apply otherwise. The MLP output width is --emb-dim.

gensynth resolves the same way: each flag's dest is a SyntheticSpec field
(--concepts sets num_concepts, --sigma noise_sigma), SyntheticSpec receives
only the flags given, and its defaults are the only ones.

Exit codes: 0 success, 1 usage/config error or diverged training, 2 data
error, 3 failed check or degenerate evaluation. All outputs are written
atomically, so a failed run leaves no partial files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from imglex.data import (
    SyntheticSpec,
    filter_multilingual,
    gen_synthetic,
    load_features,
    load_triples,
    prepare_corpus,
    save_triples,
)
from imglex.errors import ConfigError, DataError, EvalError, ImglexError, TrainingDiverged
from imglex.evaluation import (
    ReportRow,
    SimTask,
    emit_report,
    eval_classification,
    eval_similarity,
    lexicon_retrieval,
    load_class_task,
    load_lexicon,
    load_sim_task,
)
from imglex.fileio import file_digest, write_lines
from imglex.model import TOWER_KINDS, load_word2vec, save_word2vec
from imglex.textproc import LangMode, mode_of_tokens
from imglex.training import TrainConfig, grad_check, save_checkpoint, save_loss_curve, train

GRADCHECK_THRESHOLD = 1e-4

# Named configurations, keyed by train flag dests; flags given explicitly
# override preset values.
PRESETS: dict[str, dict] = {
    "mlp-100": {"tower": "mlp", "lang_mode": "aware", "emb_dim": 100, "hidden_dim": 200},
    "mlp-300": {"tower": "mlp", "lang_mode": "aware", "emb_dim": 300, "hidden_dim": 300},
    "baseline": {"tower": "lookup", "lang_mode": "aware", "emb_dim": 100},
    "baseline-2lang": {"tower": "lookup", "lang_mode": "aware", "emb_dim": 100, "filter_multilingual": True},
    "unaware-100": {"tower": "mlp", "lang_mode": "unaware", "emb_dim": 100, "hidden_dim": 200},
}

# Defaults of the train settings TrainConfig has no default for (the mlp-100 model), and of those only the CLI reads.
TRAIN_DEFAULTS = {**PRESETS["mlp-100"], "filter_multilingual": False, "min_count": 6, "buckets": 1_000_000}


class UsageError(ImglexError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imglex", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gensynth", help="generate a synthetic multilingual corpus")
    p_gen.add_argument("--concepts", dest="num_concepts", type=int)
    p_gen.add_argument("--languages", dest="num_languages", type=int)
    p_gen.add_argument("--words-per-concept", type=int)
    p_gen.add_argument("--feature-dim", type=int)
    p_gen.add_argument("--sigma", dest="noise_sigma", type=float)
    p_gen.add_argument("--num-examples", type=int)
    p_gen.add_argument("--images-per-concept", type=int)
    p_gen.add_argument("--isolated-fraction", dest="isolated_image_fraction", type=float)
    p_gen.add_argument("--seed", type=int)
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
    p_train.add_argument("--tower", choices=TOWER_KINDS)
    p_train.add_argument("--lang-mode", choices=["aware", "unaware"])
    p_train.add_argument("--emb-dim", type=int)
    p_train.add_argument("--m", dest="hidden_dim", type=int, help="MLP hidden width (the output width is --emb-dim)")
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", dest="learning_rate", type=float)
    p_train.add_argument("--logit-scale", type=float)
    p_train.add_argument("--min-count", type=int)
    p_train.add_argument("--buckets", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--filter-multilingual", action="store_true", default=None)
    p_train.add_argument("--out-dir", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate an embedding export")
    p_eval.add_argument("--embeddings", required=True, help="word2vec text export")
    p_eval.add_argument("--similarity", action="append", default=[], help="similarity task TSV (repeatable)")
    p_eval.add_argument("--aggregate", action="store_true", help="add a pooled 'all' column over the similarity tasks")
    p_eval.add_argument("--classify-train")
    p_eval.add_argument("--classify-test")
    p_eval.add_argument("--lexicon", help="lexicon TSV: report translation precision@1 and concept cosines")
    p_eval.add_argument("--out-dir")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("gradcheck", help="finite-difference gradient check for both towers")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_gradcheck)

    return parser


def cmd_gensynth(args) -> int:
    given = vars(args)
    spec = SyntheticSpec(**{f.name: given[f.name] for f in fields(SyntheticSpec) if given[f.name] is not None})
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


def cmd_train(args) -> int:
    given = {name: value for name, value in vars(args).items() if value is not None}
    settings = {**TRAIN_DEFAULTS, **PRESETS.get(args.preset, {}), **given}
    tower = settings["tower"]
    if tower != "mlp":
        del settings["hidden_dim"]  # a lookup config keeps hidden_dim=None
    config = TrainConfig(**{f.name: settings[f.name] for f in fields(TrainConfig) if f.name in settings})
    config.validate()  # reject bad configs before touching any input or output
    if settings["min_count"] < 1 or settings["buckets"] < 1:
        raise ConfigError("min-count and buckets must be >= 1")
    if tower == "mlp" and not args.features:
        raise ConfigError("mlp tower requires --features")

    triples = load_triples(args.triples)
    if settings["filter_multilingual"]:
        before = len(triples)
        triples = filter_multilingual(triples)
        print(f"multilingual filter: kept {len(triples)} of {before} triples")
    features = load_features(args.features) if tower == "mlp" else None
    vocab, prepared = prepare_corpus(
        triples,
        tower=tower,
        features=features,
        mode=LangMode(settings["lang_mode"]),
        min_count=settings["min_count"],
        num_buckets=settings["buckets"],
        triples_path=args.triples,
    )
    result = train(prepared.examples, config, num_embedding_rows=vocab.total_ids)

    out = Path(args.out_dir)
    vocab.save(out / "vocab.txt")
    save_word2vec(out / "embeddings.vec", vocab, result.params.embeddings)
    save_checkpoint(
        out / "checkpoint.npz",
        result.params,
        result.optimizer,
        config,
        vocab_hash=file_digest(out / "vocab.txt"),
        epoch=config.epochs,
    )
    save_loss_curve(out / "loss.csv", result.epoch_losses)
    print(f"vocabulary: {vocab.vocab_size} tokens + {vocab.num_buckets} buckets")
    print(f"examples: {prepared.examples.size} (dropped {prepared.dropped} empty queries)")
    final = f"{result.epoch_losses[-1]:.6f}" if result.epoch_losses else "n/a (0 epochs)"
    print(f"final epoch mean loss: {final}")
    print(f"wrote {out / 'embeddings.vec'}")
    return 0


def cmd_eval(args) -> int:
    if (args.classify_train is None) != (args.classify_test is None):
        raise UsageError("--classify-train and --classify-test go together")
    if args.out_dir and not (args.similarity or args.classify_train):
        raise UsageError("--out-dir writes the similarity/classification report: pass --similarity or --classify-train/--classify-test")
    if args.aggregate and not args.similarity:
        raise UsageError("--aggregate pools the similarity tasks: pass --similarity")
    if not (args.similarity or args.classify_train or args.lexicon):
        raise UsageError("nothing to evaluate: pass --similarity, --classify-train/--classify-test and/or --lexicon")
    columns = [(Path(path).stem, path) for path in args.similarity]  # load_sim_task names a task by its file stem
    if args.aggregate:
        columns.append(("all", "--aggregate"))
    sources: dict[str, str] = {}  # similarity column -> the flag value that reports it
    for column, source in columns:
        if column in sources:
            raise UsageError(f"similarity column {column!r} comes from both {sources[column]} and {source}")
        sources[column] = source
    vectors = load_word2vec(args.embeddings)
    mode = mode_of_tokens(vectors)
    errored = False

    def score(label: str, evaluate, task):
        """evaluate(vectors, task, mode), or None once its EvalError is on stderr as '<label>: <message>'."""
        nonlocal errored
        try:
            return evaluate(vectors, task, mode)
        except EvalError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            errored = True
            return None

    rows: list[ReportRow] = []
    if args.similarity:
        tasks = [load_sim_task(path) for path in args.similarity]
        scored = [(task.name, f"similarity task {task.name}", task) for task in tasks]
        if args.aggregate:
            scored.append(("all", "aggregate", SimTask(name="all", pairs=[pair for task in tasks for pair in task.pairs])))
        cells = [(name, result) for name, label, task in scored if (result := score(label, eval_similarity, task)) is not None]
        if cells:
            rows.append(ReportRow(name="similarity", cells=cells))

    if args.classify_train:
        task = load_class_task(args.classify_train, args.classify_test)
        result = score("classification", eval_classification, task)
        if result is not None:
            rows.append(ReportRow(name="classification", cells=[(task.name, result)]))

    lexicon_line = None
    if args.lexicon:
        r = score("lexicon", lexicon_retrieval, load_lexicon(args.lexicon))
        if r is not None:
            lexicon_line = (
                f"lexicon: precision@1 {r.precision_at_1:.4f}, same-concept cosine {r.same_concept_mean:.4f}, "
                f"different-concept cosine {r.diff_concept_mean:.4f} ({r.n_words} words, {r.n_pairs} pairs)"
            )

    if rows:
        text_lines, csv_lines = emit_report(rows)
        print("\n".join(text_lines))
        if args.out_dir:
            out = Path(args.out_dir)
            write_lines(out / "report.txt", text_lines)
            write_lines(out / "report.csv", csv_lines)
            print(f"wrote {out / 'report.txt'} and {out / 'report.csv'}")
    if lexicon_line:
        print(lexicon_line)
    return 3 if errored else 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    failed = False
    for tower in TOWER_KINDS:
        report = grad_check(tower, args.seed)
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
