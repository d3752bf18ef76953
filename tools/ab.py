"""Artifact verdict: run one fixed script of imglex commands with this
checkout's ``src/`` and with a git revision's, and compare every output byte
for byte.

    python3 tools/ab.py --against REV [--allow GLOB]...

REV is exported with ``git archive`` into the ignored ``.bench_build/<sha>/``,
which leaves no worktree metadata; this checkout runs as its files are,
uncommitted edits included. Each tree runs its own ``src/`` as
``python -m imglex.cli`` at OPENBLAS_NUM_THREADS=1, in a fresh directory
under ``.bench_build/artifacts/``:

- ``gensynth --num-examples 600 --seed 1``;
- ``train`` with each of the five presets at ``--buckets 1000 --epochs 1``
  (``--min-count 1`` for baseline-2lang), and ``run-hashed``: mlp-100 at
  ``--min-count 14 --buckets 100000000000``, so most tokens hash;
- ``eval --similarity syn/lexicon.tsv --aggregate --lexicon syn/lexicon.tsv
  --out-dir eval-<run>`` on each export;
- ``gradcheck``.

Every file the script leaves is compared by SHA-256: the corpus, each run's
artifacts, the feature cache, each report, and each command's stdout, stderr
and exit code, kept as ``steps/<step>.out``, ``.err`` and ``.exit``. The tool
prints one line per output that differs or exists in one tree only, then the
verdict: ``identical``, ``identical outside --allow`` when only outputs that
an ``--allow`` glob matches differ (fnmatch, on the path relative to the
output directory, such as ``eval-*/report.csv``), or ``not identical``. It
exits 0 unless an output outside ``--allow`` differs.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"

LEXICON = "syn/lexicon.tsv"
TRAIN = ["--triples", "syn/triples.tsv", "--epochs", "1"]
MLP = ["--features", "syn/features.tsv"]
B1000 = ["--buckets", "1000"]
# Run name -> train arguments; each run exports to run-<name>/.
RUNS = {
    "mlp-100": ["--preset", "mlp-100", *TRAIN, *MLP, *B1000],
    "mlp-300": ["--preset", "mlp-300", *TRAIN, *MLP, *B1000],
    "baseline": ["--preset", "baseline", *TRAIN, *B1000],
    "baseline-2lang": ["--preset", "baseline-2lang", *TRAIN, *B1000, "--min-count", "1"],
    "unaware-100": ["--preset", "unaware-100", *TRAIN, *MLP, *B1000],
    "hashed": ["--preset", "mlp-100", *TRAIN, *MLP, "--min-count", "14", "--buckets", "100000000000"],
}


def script() -> list[tuple[str, list[str]]]:
    """The artifact script: (step name, imglex arguments), in run order."""
    steps = [("gensynth", ["gensynth", "--num-examples", "600", "--seed", "1", "--out-dir", "syn"])]
    steps += [(f"train-{name}", ["train", *args, "--out-dir", f"run-{name}"]) for name, args in RUNS.items()]
    steps += [
        (f"eval-{name}", ["eval", "--embeddings", f"run-{name}/embeddings.vec", "--similarity", LEXICON, "--aggregate",
                          "--lexicon", LEXICON, "--out-dir", f"eval-{name}"])
        for name in RUNS
    ]
    steps.append(("gradcheck", ["gradcheck"]))
    return steps


def export(sha: str, tree: Path) -> None:
    """Write the files of commit ``sha`` to the fresh directory ``tree``."""
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run_script(tree: Path, out: Path) -> None:
    """Run the artifact script with ``tree``'s src/ in the fresh directory ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    (out / "steps").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    where = subprocess.run([sys.executable, "-c", "import imglex; print(imglex.__file__)"], cwd=out, env=env,
                           capture_output=True, text=True, check=True).stdout.strip()
    if (tree / "src").resolve() not in Path(where).resolve().parents:
        sys.exit(f"error: imglex was imported from {where}, not from {tree / 'src'}")
    for name, args in script():
        done = subprocess.run([sys.executable, "-m", "imglex.cli", *args], cwd=out, env=env, capture_output=True)
        (out / "steps" / f"{name}.out").write_bytes(done.stdout)
        (out / "steps" / f"{name}.err").write_bytes(done.stderr)
        (out / "steps" / f"{name}.exit").write_text(f"{done.returncode}\n")


def digest_tree(root: Path) -> dict[str, str]:
    """The SHA-256 of every file under ``root``, by its path relative to ``root``."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def verdict(before: Path, after: Path, allow: list[str]) -> tuple[list[str], int]:
    """The lines to print and the exit code for the two output trees."""
    a, b = digest_tree(before), digest_tree(after)
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    allowed = [name for name in differ if any(fnmatch.fnmatchcase(name, glob) for glob in allow)]
    lines = []
    for name in differ:
        where = "" if name in a and name in b else f" (only in {(before if name in a else after).name})"
        lines.append(f"{'allowed' if name in allowed else 'differs'}: {name}{where}")
    if len(allowed) < len(differ):
        return lines + ["not identical"], 1
    return lines + ["identical outside --allow" if differ else "identical"], 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, metavar="REV", help="the git revision to compare with")
    parser.add_argument("--allow", action="append", default=[], metavar="GLOB", help="outputs expected to move (repeatable)")
    args = parser.parse_args(argv)
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{args.against}^{{commit}}"],
                           capture_output=True, text=True)
    if found.returncode != 0:
        sys.exit(f"error: {args.against!r} names no commit")
    sha = found.stdout.strip()
    tree = BUILD / sha
    export(sha, tree)
    before, after = BUILD / "artifacts" / sha, BUILD / "artifacts" / "checkout"
    for src_tree, out in ((tree, before), (ROOT, after)):
        print(f"running the artifact script with {src_tree / 'src'}", file=sys.stderr)
        run_script(src_tree, out)
    lines, code = verdict(before, after, args.allow)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
