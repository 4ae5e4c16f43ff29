"""Benchmark of the latent-graph pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload agent-pipeline --seed 1 --seconds 10 --trace 0

Run it from the root of the repository.  Workloads (closed loop, one pass at
a time, 10k posts / 60k comments from ``synthetic.make_synthetic_dump``,
k_agents 12):

* ``agent-pipeline``: ``cli.run_all`` at agent level.  Chains, preprocess,
  stage writes and profiles do most of the work; the 12-node graph bypasses
  community detection.
* ``user-pipeline``: ``cli.run_all`` at user level.  The same path plus
  ``metrics.communities`` on a graph of about a thousand users.
* ``agent-sweep``: re-analysis of a stored agent-level run read back from
  disk: a 90-cell ``temporal.sweep``, ``snapshot_series`` at 24 monthly
  cutoffs and ``triad_series``.  Inference and small-graph community
  detection, with no chains, profiles or stage writes.

Set-up generates and writes the corpus ``SETUP_REPEATS`` times (agent-sweep
also stores its agent-level run); every timed pass then runs in a fresh
process, so its peak RSS is its own.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs an untraced, a traced and another untraced
pass, and reports the per-layer metrics and the tracing overhead: the traced
wall time minus the mean of the two untraced ones.  The outputs of every pass
are checked: stage counts and removals against the planted ones, census
rows against the thread count, sweep cells against the grid, and the
byte-stable artifacts against the digests in ``digests.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the seed,
the input digests and the environment, goes to
``.perfbench-out/results/{workload}-seed{seed}-trace{trace}.json``; compare
two sets with ``compare.py``.  A later run with the same workload, seed and
trace mode overwrites that file, so move the directory aside before
measuring a second set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    N_COMMENTS,
    N_POSTS,
    WORKLOADS,
    Ops,
    check_reference_digests,
    corpus_seed,
    load_reference,
    timing_summary,
)
from tracer import SPAN_FIELDS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = REPO / ".perfbench-out"
CHILD_TIMEOUT_S = 170
MIB = 1024 * 1024

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "records_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "artifact_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
TIMINGS = ("wall_s", "cpu_s", "setup_s")


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = ("count", "lower")
        for field in SPAN_FIELDS[1:]:
            metrics[f"{name}.{field}"] = ("s", "lower")
    metrics.update({
        "ingest.load_dump.skipped_ratio": ("ratio", "lower"),
        "ingest.run_pipeline.kept_ratio": ("ratio", "higher"),
        "ingest.write_stages.bytes": ("B", "lower"),
        "inference.extract_events.orphan_ratio": ("ratio", "lower"),
        "inference.extract_events.self_reply_ratio": ("ratio", "lower"),
        "inference.infer_all.pairs": ("count", "lower"),
        "inference.infer_all.follow_ratio": ("ratio", "higher"),
        "graph.apply_coverage.weight_kept_ratio": ("ratio", "higher"),
        "metrics.communities.max_nodes": ("count", "lower"),
        "temporal.sweep.cells": ("count", "higher"),
        "chains.extract_chains.peak_rss_growth_mb": ("MiB", "lower"),
        "chains.connect.comparisons": ("count", "lower"),
        "chains.connect.edge_ratio": ("ratio", "higher"),
        "chains.kept_ratio": ("ratio", "higher"),
        "pass.self_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    return metrics


PER_LAYER = _per_layer()


def environment(setup: dict | None) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    if setup:
        env.update(setup["env"])
    env["corpus"] = {"posts": N_POSTS, "comments": N_COMMENTS,
                     "records": setup["records"] if setup else None}
    return env


def run_worker(mode: str, args: list[str], result: Path) -> dict | None:
    """Run one worker process to completion; None when it failed."""
    cmd = [sys.executable, str(WORKER), mode, *args, "--out", str(result)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker {mode} timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"worker {mode} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cseed = corpus_seed(seed)
    reference = load_reference()["seeds"].get(str(cseed))
    work = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    # Pin the BLAS pool to the CPUs this process may use.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(nproc)
    ops = Ops()
    common_args = ["--workload", workload, "--seed", str(cseed), "--work", str(work)]
    try:
        work.mkdir(parents=True)
        setup = run_worker("setup", common_args, work / "setup.json")
        if setup is None:
            ops.check("set-up worker", ["worker failed"])
            return {"ops": ops}
        ops.merge(Ops(setup["ops"]))
        if reference is None or setup["input_digests"] != reference["inputs"]:
            ops.check("synthetic.SyntheticDump.write_dumps",
                      ["generated corpus differs from the recorded input digests"])
        check_reference_digests(ops, setup["digests"], reference)

        passes = []
        started = time.perf_counter()
        while True:
            traced = trace and len(passes) == 1
            pass_dir = work / f"pass{len(passes)}"
            args = [*common_args, "--pass-dir", str(pass_dir)]
            if traced:
                args += ["--trace", "--spans", str(results_dir / f"{workload}-seed{seed}.spans.jsonl")]
            res = run_worker("pass", args, work / f"pass{len(passes)}.json")
            shutil.rmtree(pass_dir, ignore_errors=True)
            if res is None:
                ops.check("pass worker", ["worker failed"])
                break
            ops.merge(Ops(res["ops"]))
            check_reference_digests(ops, res["digests"], reference)
            res["traced"] = traced
            passes.append(res)
            if trace:
                if len(passes) == 3:
                    break
            elif time.perf_counter() - started >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"ops": ops, "setup": setup, "passes": passes, "corpus_seed": cseed}


def end_to_end(setup: dict, passes: list[dict]) -> tuple[dict, dict]:
    timed = [p for p in passes if not p["traced"]]
    samples = {
        "wall_s": [p["wall_s"] for p in timed],
        "cpu_s": [p["cpu_s"] for p in timed],
        "records_per_s": [setup["records"] / p["wall_s"] for p in timed],
        "peak_rss_mb": [p["peak_rss_mb"] for p in timed],
        "artifact_mb": [p["artifact_bytes"] / MIB for p in timed],
        "setup_s": [c + setup["stored_s"] for c in setup["corpus_s"]],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    summaries = {name: timing_summary(samples[name]) for name in TIMINGS}
    return values, summaries


def per_layer(passes: list[dict]) -> tuple[dict, list[float]]:
    """Per-layer metrics of the traced pass, and the untraced wall times its
    overhead is measured against."""
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = next(p for p in passes if p["traced"])
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - statistics.mean(untraced)
    return values, untraced


def report(workload: str, seed: int, run: dict, values: dict, summaries: dict,
           env: dict) -> None:
    setup = run["setup"]
    ops = run["ops"]
    print(f"workload {workload}  seed {seed}  corpus seed {run['corpus_seed']}  "
          f"corpus {N_POSTS} posts + {N_COMMENTS} comments = {setup['records']} records")
    for name, sha in setup["input_digests"].items():
        print(f"  input {name} sha256 {sha}")
    print(f"  env nproc {env['nproc']}, python {env['python']}, numpy {env.get('numpy')}, "
          f"openblas threads {env.get('openblas_threads')}")
    for name, value in values.items():
        unit = (END_TO_END.get(name) or PER_LAYER[name])[0]
        line = f"  {name:<48} {value:>14.6g} {unit}"
        if name in summaries:
            s = summaries[name]
            tail = {k: v for k, v in s.items() if k not in ("n", "median")}
            extra = ", ".join(f"{k} {v:.6g}" for k, v in tail.items())
            line += f"   (median, {extra}; n={s['n']})"
        print(line)
    error_rate = ops.failed / ops.attempted if ops.attempted else 1.0
    print(f"  {'error_rate':<48} {error_rate:>14.6g}   ({ops.failed} failed / {ops.attempted} attempted)")
    for problem in ops.problems():
        print(f"  FAILED {problem}")


def trace_report(values: dict, untraced: list[float]) -> None:
    own = {name: values[f"{name}.self_s"] for name in (*SPAN_NAMES, "pass")}
    wall = values["trace.wall_s"]
    overhead = values["trace.overhead_s"]
    noise = max(untraced) - min(untraced)
    print(f"  traced wall {wall:.4f} s, tracing overhead {overhead:.4f} s against untraced "
          f"passes of {' and '.join(f'{u:.4f}' for u in untraced)} s"
          + (", unresolved: inside their difference" if abs(overhead) <= noise else ""))
    print(f"  span self times sum to {sum(own.values()):.4f} s")
    print("  top self time:")
    for name, secs in sorted(own.items(), key=lambda kv: -kv[1])[:8]:
        print(f"    {name:<32} {secs:9.4f} s  {100 * secs / wall:5.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="latent-graph pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "latentgraph").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'latentgraph'} is missing",
              file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    ops = run["ops"]
    setup = run.get("setup")
    passes = run.get("passes", [])
    env = environment(setup)
    if setup is None or not passes or (args.trace and len(passes) < 3):
        for problem in ops.problems():
            print(f"FAILED {problem}", file=sys.stderr)
        return 1

    if args.trace:
        (values, untraced), summaries = per_layer(passes), {}
    else:
        values, summaries = end_to_end(setup, passes)
    report(args.workload, args.seed, run, values, summaries, env)
    if args.trace:
        trace_report(values, untraced)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": run["corpus_seed"],
        "trace": args.trace,
        "seconds": args.seconds,
        "input_digests": setup["input_digests"],
        "env": env,
        "metrics": values,
        "timings": summaries,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": ops.failed / ops.attempted,
        "problems": ops.problems(),
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "artifact_bytes", "traced")}
                   for p in passes],
        "setup": {k: setup[k] for k in ("corpus_s", "stored_s")},
    }
    out = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    units = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
