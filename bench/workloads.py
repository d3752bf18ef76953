"""The benchmark's workloads: corpus shape, training configuration, gates.

Both use the synthetic concept/image model (concept prototypes, a few words
per concept and language, image features that are noisy copies of the
prototype), language-aware tokens, logit scale 10 and the MLP image tower at
the `mlp-100` dims (features 64, hidden 200, output = embedding 100). Sizes
are chosen so that one pipeline pass takes a few seconds on a 2-core
machine, which lets a run of ``BENCHMARK.json``'s ``run_seconds`` repeat the
pass several times and report medians.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_SEED = 0  # the seed whose final epoch loss is stored in reference.json


@dataclass(frozen=True)
class Workload:
    name: str  # BENCHMARK.json says why each workload is there
    concepts: int
    words_per_concept: int  # per language
    examples: int  # triples
    tail_tokens_per_query: float  # mean Zipf-tail tokens appended to a query; 0 = none
    buckets: int  # OOV hash buckets
    p1_floor: float  # the gate's lower limit for lexicon precision@1
    # Corpus (see gen.py).
    languages: int = 3
    images_per_concept: int = 50  # shared image pool per concept
    isolated_fraction: float = 0.6  # share of queries with an image of their own
    feature_dim: int = 64
    noise_sigma: float = 0.1
    tail_zipf_a: float = 1.0  # tail ranks r in 1..tail_vocab drawn with P(r) ~ r^-a
    tail_vocab: int = 1_000_000
    # Training, as `imglex train --preset mlp-100` would configure it.
    batch_size: int = 1000
    epochs: int = 1
    emb_dim: int = 100
    hidden_dim: int = 200
    min_count: int = 6
    learning_rate: float = 0.5
    logit_scale: float = 10.0
    size: str = "full"

    def tiny(self) -> "Workload":
        """Same shape at smoke-test size (seconds, tens of MB)."""
        return replace(
            self,
            concepts=12,
            examples=3000,
            images_per_concept=20,
            batch_size=min(self.batch_size, 128),
            epochs=2,
            buckets=min(self.buckets, 2000),
            p1_floor=min(self.p1_floor, 0.3),
            size="tiny",
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp100-b1000",
            concepts=200,
            words_per_concept=2,
            examples=30_000,
            tail_tokens_per_query=0.0,
            buckets=100_000,
            p1_floor=0.85,
        ),
        Workload(
            name="heavytail-200k",
            concepts=150,
            words_per_concept=4,
            examples=20_000,
            tail_tokens_per_query=2.0,
            buckets=200_000,  # not the default 1M: its 1.6 GB checkpoint and 3.2 GB peak RSS per run do not fit twice in an 8 GB machine
            p1_floor=0.8,
        ),
    )
}
