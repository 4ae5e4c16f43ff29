"""One set-up or one timed pass of a workload, each in a fresh process.

    python3 perfbench/worker.py setup --workload W --seed S --work DIR --out FILE
    python3 perfbench/worker.py pass  --workload W --seed S --work DIR --out FILE \\
        --pass-dir DIR [--trace] [--spans FILE]

``--seed`` is the generator seed of the corpus.  The result, a JSON object,
goes to ``--out``: times, peak RSS, the operations attempted with the
problems found in their outputs, and the digests of the byte-stable
artifacts.  The caller compares those digests with the recorded ones.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402

from latentgraph import cli, inference, ingest, profiles, synthetic, temporal  # noqa: E402
from latentgraph.config import default_config  # noqa: E402

from common import (  # noqa: E402
    K_AGENTS,
    N_COMMENTS,
    N_POSTS,
    RUN_ARTIFACTS,
    RUN_LEVEL,
    SETUP_REPEATS,
    SNAPSHOT_CUTOFFS,
    SNAPSHOT_STEP_DAYS,
    SWEEP_CELLS,
    SWEEP_GRID,
    WORKLOADS,
    Ops,
    sha256_file,
)
from tracer import ROOT, Tracer, layer_metrics  # noqa: E402

DAY = 86400


class CallFailed(Exception):
    """An operation raised; the pass stops there."""


def call(ops: Ops, name: str, fn, *args, **kwargs):
    ops.attempt(name)
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any failure of the program is counted
        ops.check(name, [f"raised {type(exc).__name__}: {exc}"])
        raise CallFailed from exc


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it can be read."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def corpus_paths(work: Path) -> tuple[Path, Path]:
    return work / "corpus" / "posts.jsonl", work / "corpus" / "comments.jsonl"


def run_config(level: str, seed: int, work: Path, out: Path):
    posts, comments = corpus_paths(work)
    return replace(default_config(), k_agents=K_AGENTS, seed=seed, level=level,
                   posts_path=str(posts), comments_path=str(comments), out_dir=str(out))


def artifact_digests(out: Path, names) -> dict[str, str | None]:
    return {name: sha256_file(out / name) if (out / name).is_file() else None for name in names}


# ---------------------------------------------------------------------------
# Pipeline workloads: one cli.run_all call
# ---------------------------------------------------------------------------

def pipeline_body(level: str, seed: int, work: Path, out: Path, ops: Ops):
    return call(ops, "cli.run_all", cli.run_all, run_config(level, seed, work, out))


def check_run(rc: int, level: str, out: Path, expected: dict, ops: Ops) -> list[dict]:
    """Stage ledger, census and exit-code checks of one run_all call."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        counts = [[s["posts"], s["comments"]] for s in manifest["stage_counts"]]
        if counts != expected["counts"]:
            problems.append(f"stage counts {counts} != planted {expected['counts']}")
        for stage, removed in expected["removed"].items():
            found = json.loads(ingest.manifest_path(out, int(stage)).read_text(encoding="utf-8"))
            if found["removed"] != removed:
                problems.append(f"stage {stage} removed {found['removed']} != planted {removed}")
        threads = manifest["chains"]["threads"]
        with open(out / "census.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                total = int(row["no_chain"]) + int(row["len_eq_1"]) + int(row["len_gt_1"])
                if total != threads:
                    problems.append(f"census row {row['threshold']} sums to {total}, "
                                    f"not the {threads} threads")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    ops.check("cli.run_all", problems)
    return [{"op": "cli.run_all", "ref": level, "files": artifact_digests(out, RUN_ARTIFACTS)}]


# ---------------------------------------------------------------------------
# agent-sweep: robustness re-analysis of a stored agent-level run
# ---------------------------------------------------------------------------

def sweep_body(seed: int, work: Path, out: Path, ops: Ops) -> dict:
    stored = work / "stored"
    stage_id, records = call(ops, "ingest.latest_stage_records",
                             ingest.latest_stage_records, stored)
    agents = call(ops, "profiles.load_profiles", profiles.load_profiles, stored / "agents.json")
    id_map = call(ops, "profiles.build_member_index", profiles.build_member_index, agents)
    posts = [r for r in records if r.kind is ingest.RecordKind.POST]
    comments = [r for r in records if r.kind is ingest.RecordKind.COMMENT]
    events, stats = call(ops, "inference.extract_events", inference.extract_events,
                         posts, comments, id_map)
    report = call(ops, "temporal.sweep", temporal.sweep, events, **SWEEP_GRID)
    out.mkdir(parents=True, exist_ok=True)
    call(ops, "temporal.write_sweep_csv", temporal.write_sweep_csv, report, out / "sweep.csv")

    config = default_config()
    grid = call(ops, "inference.WindowGrid.from_events", inference.WindowGrid.from_events,
                events, config.window_days * DAY)
    first = min(e.time for e in events)
    cutoffs = [first + (i + 1) * SNAPSHOT_STEP_DAYS * DAY for i in range(SNAPSHOT_CUTOFFS)]
    snap_config = temporal.SnapshotConfig(
        maybe_min=config.maybe_min, forsure_min=config.forsure_min, seed=seed,
        known_agents=tuple(p.agent_id for p in agents))
    snapshots = call(ops, "temporal.snapshot_series", temporal.snapshot_series,
                     events, grid, snap_config, cutoffs)
    with open(out / "snapshots.jsonl", "w", encoding="utf-8") as fh:
        for snap in snapshots:
            fh.write(json.dumps(snap.to_dict(), sort_keys=True) + "\n")

    edges = call(ops, "inference.load_edges_csv", inference.load_edges_csv, stored / "edges.csv")
    series = call(ops, "temporal.triad_series", temporal.triad_series,
                  edges, config.interval_days * DAY)
    call(ops, "temporal.write_triads_csv", temporal.write_triads_csv, series, out / "triads.csv")
    return {
        "stage_id": stage_id,
        "counts": [len(posts), len(comments)],
        "agents": len(agents),
        "extraction": stats.to_dict(),
        "cells": len(report.cells),
        "snapshot_edges": [s.edges for s in snapshots],
        "edges": len(edges),
    }


def check_sweep(state: dict, work: Path, out: Path, expected: dict, ops: Ops) -> list[dict]:
    stored = work / "stored"
    manifest = json.loads((stored / "run_manifest.json").read_text(encoding="utf-8"))
    final = expected["counts"][-1]
    if state["stage_id"] != len(expected["counts"]) - 1 or state["counts"] != final:
        ops.check("ingest.latest_stage_records",
                  [f"stage {state['stage_id']} with {state['counts']} records, "
                   f"expected the last stage with {final}"])
    if state["agents"] != K_AGENTS:
        ops.check("profiles.load_profiles", [f"{state['agents']} agents, expected {K_AGENTS}"])
    if state["extraction"] != manifest["extraction"]:
        ops.check("inference.extract_events",
                  [f"{state['extraction']} != stored run {manifest['extraction']}"])
    if state["cells"] != SWEEP_CELLS:
        ops.check("temporal.sweep", [f"{state['cells']} cells, grid has {SWEEP_CELLS}"])
    snap_edges = state["snapshot_edges"]
    if len(snap_edges) != SNAPSHOT_CUTOFFS or snap_edges != sorted(snap_edges):
        ops.check("temporal.snapshot_series",
                  [f"edge counts {snap_edges} are not {SNAPSHOT_CUTOFFS} non-decreasing values"])
    with open(stored / "edges.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if state["edges"] != rows:
        ops.check("inference.load_edges_csv", [f"{state['edges']} edges, edges.csv has {rows}"])
    return [
        {"op": "temporal.sweep", "ref": "sweep",
         "files": artifact_digests(out, ["sweep.csv"])},
        {"op": "temporal.snapshot_series", "ref": "sweep",
         "files": artifact_digests(out, ["snapshots.jsonl"])},
        {"op": "temporal.triad_series", "ref": "sweep",
         "files": artifact_digests(out, ["triads.csv"])},
    ]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(workload: str, seed: int, work: Path) -> dict:
    """Generate and write the corpus SETUP_REPEATS times; agent-sweep also
    stores the agent-level run that its passes read back."""
    ops = Ops()
    corpus_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dump = call(ops, "synthetic.make_synthetic_dump", synthetic.make_synthetic_dump,
                    N_POSTS, N_COMMENTS, seed=seed)
        call(ops, "synthetic.SyntheticDump.write_dumps", dump.write_dumps, work / "corpus")
        corpus_s.append(time.perf_counter() - t0)
    expected = {
        "counts": [list(c) for c in dump.expected_counts],
        "removed": {str(k): v for k, v in dump.expected_removed.items()},
    }
    (work / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    posts, comments = corpus_paths(work)
    result = {
        "corpus_s": corpus_s,
        "stored_s": 0.0,
        "records": len(dump.posts) + len(dump.comments),
        "input_digests": {"posts.jsonl": sha256_file(posts),
                          "comments.jsonl": sha256_file(comments)},
        "env": {"numpy": numpy.__version__, "openblas_threads": openblas_threads()},
        "digests": [],
    }
    if workload == "agent-sweep":
        stored = work / "stored"
        t0 = time.perf_counter()
        try:
            rc = pipeline_body("agent", seed, work, stored, ops)
        except CallFailed:
            rc = None
        result["stored_s"] = time.perf_counter() - t0
        if rc is not None:
            result["digests"] = check_run(rc, "agent", stored, expected, ops)
    result["ops"] = ops.items
    return result


def run_pass(workload: str, seed: int, work: Path, out: Path, trace: bool,
             spans_path: Path | None) -> dict:
    """One timed pass; the checks of its outputs run after the clock stops."""
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    ops = Ops()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        root = tracer.begin(ROOT)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    state = None
    try:
        if workload == "agent-sweep":
            state = sweep_body(seed, work, out, ops)
        else:
            state = pipeline_body(RUN_LEVEL[workload], seed, work, out, ops)
    except CallFailed:
        pass
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak = _peak_rss_mb()
    result = {"cpu_s": cpu, "peak_rss_mb": peak, "digests": []}
    if tracer:
        tracer.end(root)
        tracer.uninstall()
        wall = root.duration
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
        if spans_path is not None:
            tracer.write(spans_path)
    result["wall_s"] = wall
    result["artifact_bytes"] = _tree_bytes(out) if out.exists() else 0
    if state is not None:
        if workload == "agent-sweep":
            result["digests"] = check_sweep(state, work, out, expected, ops)
        else:
            result["digests"] = check_run(state, RUN_LEVEL[workload], out, expected, ops)
    result["ops"] = ops.items
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pass-dir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        result = setup(args.workload, args.seed, args.work)
    else:
        result = run_pass(args.workload, args.seed, args.work, args.pass_dir, args.trace,
                          args.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
