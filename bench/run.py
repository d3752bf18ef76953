#!/usr/bin/env python3
"""Benchmark of the imglex training pipeline, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload mlp100-b1000 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20       # every workload
    python3 bench/run.py --workload all --size tiny        # smoke size

One run writes the workload's inputs from ``--seed`` (untimed, in a child
process), then repeats the pipeline pass that `imglex train` + lexicon
evaluation make until ``--seconds`` are used, and reports medians over the
passes. Every pass goes through the correctness gate; a pass that fails it
counts as failed. ``--trace 0`` reports the end-to-end metrics with tracing
off. ``--trace 1`` alternates untraced and traced passes, then replays the
workload's batches through the training layer's public functions, and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the environment record. The full record, with every sample and span, goes to
``.bench_work/results/``. BLAS runs on one thread: on a 2-core machine two
BLAS threads make the per-step p90 about three times worse.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must be set before numpy is imported

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3  # per run, so every stage time has several samples
PROBE_BATCHES = 100  # step samples per traced run; p90 then has 10 beyond it
PROBE_COST = 1.5  # a probe step also runs batch_loss: about 1.5 train() steps
GEN_TIMEOUT_S = 120

# Spans whose run_mean() duration over the traced passes is reported as "<span>_s".
TIMED_SPANS = (
    "data.load_triples",
    "data.load_features",
    "data.prepare_examples",
    "textproc.build_vocab",
    "training.save_checkpoint",
    "model.save_word2vec",
    "model.load_word2vec",
    "evaluation.lexicon_retrieval",
)


def import_library() -> None:
    """Put the checkout's own `src` first on the path, and insist on it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import imglex
    except ImportError as exc:
        sys.exit(f"error: cannot import imglex from {src}: {exc}")
    if src.resolve() not in Path(imglex.__file__).resolve().parents:
        sys.exit(f"error: imglex was imported from {imglex.__file__}, not from {src}")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def generate_inputs(workload: str, size: str, seed: int, out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--size", size, "--out-dir", str(out)],
        check=True,
        timeout=GEN_TIMEOUT_S,
    )
    return json.loads((out / "stats.json").read_text(encoding="utf-8"))


def reference_loss(w) -> float | None:
    stored = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    return stored["final_epoch_loss"].get(f"{w.name}/{w.size}")


def measure(w, seed: int, seconds: float, trace: bool, inputs: Path, stats: dict, out: Path) -> dict:
    from pipeline import Gate, run_pass, step_probe, traffic
    from tracing import Tracer

    gate = Gate(w, seed, stats, reference_loss(w))
    tracer = Tracer(enabled=False)
    passes: list[dict] = []
    failures: list[str] = []
    kept = None  # (vocab, prepared) of the last good pass, for the step probe
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        tracer.enabled, tracer.trace = traced, attempted
        attempted += 1
        gc.collect()  # every pass starts with the same collector state
        t0 = time.perf_counter()
        try:
            res = run_pass(w, seed, inputs, out, tracer)
        except Exception:
            failures.append(f"pass {attempted}: {traceback.format_exc()}")
            break  # an operation failed; further passes would measure nothing
        wall = time.perf_counter() - t0
        seen = traffic(res)
        problems = gate.check(res, seen)
        if problems:
            failures.append(f"pass {attempted}: " + "; ".join(problems))
        else:
            passes.append(
                {
                    "traced": traced,
                    "wall_s": wall,
                    "setup_s": res.setup_s,
                    "train_s": res.train_s,
                    "steps": w.epochs * -(-res.examples // w.batch_size),
                    "examples_trained": res.examples * w.epochs,
                    "export_s": res.export_s,
                    "eval_s": res.eval_s,
                    "final_epoch_loss": res.result.epoch_losses[-1],
                    "bytes_written": res.bytes_written,
                    "lexicon_words": res.retrieval.n_words,
                    "precision_at_1": res.retrieval.precision_at_1,
                    "traffic": seen,
                    "spans": tracer.durations(attempted - 1) if traced else {},
                    "self_s": tracer.self_times(attempted - 1) if traced else {},
                }
            )
            if trace:
                kept = (res.vocab, res.prepared)
        del res
        for artifact in out.iterdir():  # drops their unwritten pages instead of flushing them in the next pass
            artifact.unlink()
        elapsed = time.perf_counter() - start
        pass_s = statistics.median(p["wall_s"] for p in passes) if passes else elapsed / attempted
        reserve = 0.0  # leave time for the step probe inside --seconds
        if trace and passes:
            reserve = PROBE_BATCHES * PROBE_COST * statistics.median(p["train_s"] / p["steps"] for p in passes)
        if attempted >= MIN_PASSES and elapsed + pass_s + reserve > seconds:
            break

    probe = None
    if trace and kept is not None and not failures:
        attempted += 1
        try:
            probe = step_probe(w, seed, kept[0], kept[1], PROBE_BATCHES)
        except Exception:
            failures.append(f"step probe: {traceback.format_exc()}")
        else:
            if probe.problems:
                failures.append("step probe: " + "; ".join(probe.problems))
    return {
        "attempted": attempted,
        "failures": failures,
        "passes": passes,
        "probe": asdict(probe) if probe is not None else None,
        "spans": [asdict(s) for s in tracer.spans],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run_mean(values) -> float:
    """Mean of a run's samples of one stage.

    Not the median or the fastest sample: on a shared 2-core VM, neighbours
    slow pure-Python stages by up to 1.9x for tens of seconds at a time, so
    a run's samples fall into a fast and a slow group. The median then flips
    with whichever group covers more of the run, and the fastest sample with
    whether the run caught a fast moment; the mean moves only with the share
    of slowed time. Over two sets of ten 60 s runs per workload, the worst
    quartile spread across runs of train_s, export_s and eval_s was 0.18 of
    its median as a per-run mean, 0.25 as a per-run median and 0.27 as a
    per-run minimum.
    """
    return float(statistics.fmean(values))


def end_to_end_metrics(m: dict) -> dict:
    plain = [p for p in m["passes"] if not p["traced"]]
    return {
        "setup_s": _median(p["setup_s"] for p in plain),  # the median pass: set-up is reported as its typical cost
        "train_examples_per_s": plain[0]["examples_trained"] / run_mean(p["train_s"] for p in plain),
        "export_s": run_mean(p["export_s"] for p in plain),
        "eval_s": run_mean(t for p in plain for t in p["eval_s"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer_metrics(m: dict) -> dict:
    traced = [p for p in m["passes"] if p["traced"]]
    plain = [p for p in m["passes"] if not p["traced"]]
    probe = m["probe"]
    values = {f"{span}_s": run_mean(t for p in traced for t in p["spans"][span]) for span in TIMED_SPANS}
    t = traced[-1]["traffic"]
    values["textproc.oov_token_share"] = t["oov_occurrences"] / t["token_occurrences"]
    values["textproc.vocab_size"] = t["vocab_size"]
    values["data.distinct_images"] = t["distinct_images"]
    values["fileio.bytes_written"] = _median(p["bytes_written"] for p in traced)
    values["evaluation.lexicon_words"] = _median(p["lexicon_words"] for p in traced)
    values["tracing_overhead_s"] = run_mean(p["wall_s"] for p in traced) - run_mean(p["wall_s"] for p in plain)
    steps = probe["step_ms"]
    backward = [g - f for g, f in zip(probe["gradients_ms"], probe["forward_ms"])]
    values.update(
        {
            "training.init_s": probe["init_s"],
            "training.step_ms_p50": _median(steps),
            "training.step_ms_p90": statistics.quantiles(steps, n=10)[8],
            "training.forward_ms": _median(probe["forward_ms"]),
            "training.backward_ms": _median(backward),
            "training.batch_build_ms": _median(probe["batch_build_ms"]),
            "training.sgd_step_ms": _median(probe["sgd_step_ms"]),
            "training.touched_emb_rows": _median(probe["touched_emb_rows"]),
            "training.touched_image_rows": _median(probe["touched_image_rows"]),
            "training.flops_per_step": probe["flops_per_step"],
            "training.bxb_bytes_per_step": probe["bxb_bytes_per_step"],
            "model.param_bytes": probe["param_bytes"],
        }
    )
    return values


def run_one(workload: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    from environment import environment_record
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    w = w.tiny() if size == "tiny" else w
    run_dir = WORK / f"{w.name}-{size}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    try:
        stats = generate_inputs(workload, size, seed, run_dir / "inputs")
        m = measure(w, seed, seconds, trace, run_dir / "inputs", stats, run_dir / "out")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(m["failures"])
    correct = failed == 0 and bool(m["passes"]) and (not trace or m["probe"] is not None)
    units = metric_units("per_layer" if trace else "end_to_end")
    values = {}
    if trace and m["probe"] is not None and any(p["traced"] for p in m["passes"]):
        values = per_layer_metrics(m)
    elif not trace and m["passes"]:
        values = end_to_end_metrics(m)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()} if values else {}
    record = {
        "workload": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment_record(ROOT),
        "generator_stats": stats,
        "correct": correct,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "passes": len(m["passes"]),
            "untraced_passes": sum(not p["traced"] for p in m["passes"]),
            "probe_steps": len(m["probe"]["step_ms"]) if m["probe"] else 0,
        },
        "failures": m["failures"],
        "passes": m["passes"],
        "probe": m["probe"],
        "spans": m["spans"],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{w.name}_{size}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for failure in m["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return record


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if done.returncode != 0 or not lines:
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from bench/workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        result = run_all(args)
    else:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        record = run_one(args.workload, args.size, args.seed, args.seconds, bool(args.trace))
        for name, metric in record["metrics"].items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print("env " + json.dumps(record["environment"], sort_keys=True))
        result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
