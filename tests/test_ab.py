"""tools/ab.py's artifact verdict on canned output trees; no script is run."""

import importlib.util
from pathlib import Path

from imglex.cli import PRESETS, build_parser

SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)


def make_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {"syn/.features.tsv.imglex-cache.npz": b"cache", "run-a/loss.csv": b"0.5\n", "steps/train-a.exit": b"0\n"}


def test_identical_trees(tmp_path):
    before = make_tree(tmp_path / "before", FILES)
    after = make_tree(tmp_path / "after", FILES)
    assert ab.verdict(before, after, []) == (["identical"], 0)


def test_every_changed_missing_or_extra_file_is_named(tmp_path):
    before = make_tree(tmp_path / "before", FILES)
    changed = {**FILES, "run-a/loss.csv": b"0.6\n", "eval-a/report.csv": b"row\n"}
    del changed["syn/.features.tsv.imglex-cache.npz"]
    after = make_tree(tmp_path / "after", changed)
    assert ab.verdict(before, after, []) == (
        [
            "differs: eval-a/report.csv (only in after)",
            "differs: run-a/loss.csv",
            "differs: syn/.features.tsv.imglex-cache.npz (only in before)",
            "not identical",
        ],
        1,
    )
    lines, code = ab.verdict(before, after, ["eval-*/report.csv", "syn/*"])
    assert lines == [
        "allowed: eval-a/report.csv (only in after)",
        "differs: run-a/loss.csv",
        "allowed: syn/.features.tsv.imglex-cache.npz (only in before)",
        "not identical",
    ]
    assert code == 1
    assert ab.verdict(before, after, ["eval-*", "run-a/*", "syn/*"]) == (
        [
            "allowed: eval-a/report.csv (only in after)",
            "allowed: run-a/loss.csv",
            "allowed: syn/.features.tsv.imglex-cache.npz (only in before)",
            "identical outside --allow",
        ],
        0,
    )


def test_the_artifact_script_is_valid_imglex_usage():
    steps = ab.script()
    parser = build_parser()
    for _, args in steps:
        parser.parse_args(args)
    names = [name for name, _ in steps]
    assert len(set(names)) == len(names) and names[0] == "gensynth" and names[-1] == "gradcheck"
    presets = {args[args.index("--preset") + 1] for _, args in steps if args[0] == "train"}
    assert presets == set(PRESETS)
    assert [args[args.index("--out-dir") + 1] for _, args in steps if args[0] == "eval"] == [f"eval-{name}" for name in ab.RUNS]
