"""Seeded input generator for the benchmark: writes the TSV files a user
would hand to `imglex train`, plus the traffic statistics the generator
expects the library to find in them.

The concept/image model follows `imglex gensynth`: unit-norm concept
prototypes, ``words_per_concept`` words per concept and language, queries of
1-3 words of one concept, and image features that are noisy copies of the
concept prototype (a share of them "isolated", seen by one query only). It is
re-implemented here, vectorized, so that the benchmark's inputs stay fixed
when the library's generator changes.

The heavy-tail mixer appends Poisson(``tail_tokens_per_query``) tokens
``t<r>`` to each query, with ranks r drawn from a Zipf law bounded at
``tail_vocab``. Most of the tail occurs fewer than ``min_count`` times and is
hashed into buckets.

Run as a script so the generator's memory stays out of the measured
process's peak RSS:

    python3 bench/gen.py --workload heavytail-200k --seed 3 --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload


def _noisy(protos: np.ndarray, concepts: np.ndarray, sigma: float, rng) -> np.ndarray:
    vecs = protos[concepts] + sigma * rng.standard_normal((concepts.size, protos.shape[1]))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / np.where(norms > 0, norms, 1.0)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(w: Workload, seed: int, out_dir: Path) -> dict:
    """Write triples.tsv, features.tsv and lexicon.tsv; return stats."""
    rng = np.random.default_rng(seed)
    n, c, langs, wpc = w.examples, w.concepts, w.languages, w.words_per_concept
    protos = rng.standard_normal((c, w.feature_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    concept = rng.integers(c, size=n)
    lang = rng.integers(langs, size=n)
    n_words = np.minimum(rng.integers(1, 4, size=n), wpc)
    slots = np.argsort(rng.random((n, wpc)), axis=1)  # a random permutation per query
    isolated = rng.random(n) < w.isolated_fraction
    pool_pick = rng.integers(w.images_per_concept, size=n)
    if w.tail_tokens_per_query > 0:
        n_tail = rng.poisson(w.tail_tokens_per_query, size=n)
        cdf = np.cumsum(np.arange(1, w.tail_vocab + 1, dtype=np.float64) ** -w.tail_zipf_a)
        ranks = np.searchsorted(cdf, rng.random(int(n_tail.sum())) * cdf[-1]) + 1
    else:
        n_tail = np.zeros(n, dtype=np.int64)
        ranks = np.zeros(0, dtype=np.int64)
    tail_starts = np.concatenate(([0], np.cumsum(n_tail)))

    token_counts: Counter[str] = Counter()
    triple_lines = []
    image_ids = []
    for i in range(n):
        li, ci = int(lang[i]), int(concept[i])
        surfaces = [f"l{li}w{ci}k{int(k)}" for k in slots[i, : n_words[i]]]
        surfaces += [f"t{int(r)}" for r in ranks[tail_starts[i] : tail_starts[i + 1]]]
        token_counts.update(f"l{li}:{s}" for s in surfaces)
        image_id = f"x{i}" if isolated[i] else f"c{ci}i{int(pool_pick[i])}"
        image_ids.append(image_id)
        triple_lines.append(f"1.0\tl{li}\t{' '.join(surfaces)}\t{image_id}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "triples.tsv", triple_lines)

    pool_concepts = np.repeat(np.arange(c), w.images_per_concept)
    pool = _noisy(protos, pool_concepts, w.noise_sigma, rng)
    iso_index = np.flatnonzero(isolated)
    iso = _noisy(protos, concept[iso_index], w.noise_sigma, rng)
    ids = [f"c{cc}i{j}" for cc in range(c) for j in range(w.images_per_concept)]
    ids += [f"x{i}" for i in iso_index.tolist()]
    rows = np.vstack([pool, iso]).tolist()
    lines = [f"{image_id}\t{','.join(map(repr, row))}" for image_id, row in zip(ids, rows)]
    _write_lines(out_dir / "features.tsv", lines)
    feature_rows = len(lines)

    lexicon = [
        f"l{l1}:l{l1}w{cc}k{k1}\tl{l2}:l{l2}w{cc}k{k2}\t{cc}"
        for cc in range(c)
        for l1 in range(langs)
        for l2 in range(l1 + 1, langs)
        for k1 in range(wpc)
        for k2 in range(wpc)
    ]
    _write_lines(out_dir / "lexicon.tsv", lexicon)

    occurrences = sum(token_counts.values())
    oov = sum(k for k in token_counts.values() if k < w.min_count)
    stats = {
        "triples": n,
        "token_occurrences": occurrences,
        "oov_occurrences": oov,
        "oov_token_share": oov / occurrences,
        "vocab_size": sum(1 for k in token_counts.values() if k >= w.min_count),
        "distinct_images": len(set(image_ids)),
        "feature_rows": feature_rows,
        "lexicon_pairs": len(lexicon),
    }
    (out_dir / "stats.json").write_text(json.dumps(stats, indent=1) + "\n", encoding="utf-8")
    return stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--out-dir", required=True, type=Path)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    generate(w.tiny() if args.size == "tiny" else w, args.seed, args.out_dir)


if __name__ == "__main__":
    main()
