"""The benchmark's tracer wraps program functions by name; they must exist.

A rename in ``latentgraph`` would otherwise leave ``perfbench/run.py --trace 1``
failing only when the benchmark runs.
"""

import csv
import importlib
import importlib.util
import json
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.LAYER_FUNCTIONS
    missing = [
        f"{mod}.{fn}"
        for mod, fn in tracer.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"latentgraph.{mod}"), fn, None))
    ]
    assert missing == []


# The layers a traced agent-level run_all reaches.
RUN_ALL_LAYERS = {
    "ingest.load_dump", "ingest.run_pipeline", "ingest.write_stages",
    "profiles.build_user_vectors", "profiles.cluster_users", "profiles.enrich",
    "inference.extract_events", "inference.infer_all",
    "graph.build", "graph.apply_coverage", "graph.write_graphml",
    "metrics.full_report", "metrics.communities", "temporal.triad_series",
    "chains.extract_chains", "chains.connect", "chains.linearize", "cli.run_all",
}


def traced_run_all(monkeypatch, tmp_path, level="agent", corpus=(30, 180, 5)):
    """The tracer module, the layer metrics of a traced run_all at ``level``
    over the synthetic ``corpus`` (posts, comments, seed) and its output
    directory."""
    from dataclasses import replace

    from latentgraph.config import default_config
    from latentgraph.synthetic import make_synthetic_dump

    tracer_module = load_tracer(monkeypatch)
    n_posts, n_comments, seed = corpus
    posts, comments = make_synthetic_dump(n_posts, n_comments, seed=seed).write_dumps(tmp_path)
    out = tmp_path / "out"
    config = replace(default_config(), k_agents=3, level=level, posts_path=str(posts),
                     comments_path=str(comments), out_dir=str(out))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert importlib.import_module("latentgraph.cli").run_all(config) == 0
    finally:
        tracer.uninstall()
    return tracer_module, tracer_module.layer_metrics(tracer.spans, tracer.counters), out


def test_traced_run_all_reaches_every_layer(monkeypatch, tmp_path):
    """The tracer swaps module attributes, so a stage that held a traced
    function in a table of its own would drop out of the traced run."""
    tracer_module, calls, _ = traced_run_all(monkeypatch, tmp_path)
    reached = {name for name in tracer_module.SPAN_NAMES if calls[f"{name}.calls"] > 0}
    assert reached == RUN_ALL_LAYERS


def test_traced_run_all_stage_counters_match_the_written_stages(monkeypatch, tmp_path):
    """The tracer reads run_pipeline's result and write_stages' argument; its
    kept ratio and stage bytes must agree with what run_all wrote."""
    _, layers, out = traced_run_all(monkeypatch, tmp_path)
    counts = json.loads((out / "run_manifest.json").read_text())["stage_counts"]
    totals = [c["posts"] + c["comments"] for c in counts]
    assert layers["ingest.run_pipeline.kept_ratio"] == totals[-1] / totals[0]
    stage_bytes = sum(path.stat().st_size for path in out.glob("stage*"))
    assert layers["ingest.write_stages.bytes"] == stage_bytes > 0


def test_traced_user_level_inference_counters_match_the_edges_csv(monkeypatch, tmp_path):
    """``infer_all`` returns a view that classifies its pairs a block at a
    time; the tracer counts pairs and follows off that view, and both must
    agree with the rows of edges.csv."""
    _, layers, out = traced_run_all(monkeypatch, tmp_path, level="user", corpus=(200, 1200, 1))
    with open(out / "edges.csv", encoding="utf-8", newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    follows = sum(status != "none" for status in statuses)
    assert 0 < follows < len(statuses)
    assert layers["inference.infer_all.pairs"] == len(statuses)
    assert layers["inference.infer_all.follow_ratio"] == follows / len(statuses)


def test_traced_extraction_compares_each_thread_pair_once(monkeypatch):
    """The batched similarity pass still hands every thread to ``connect``,
    so the tracer's comparison count is the sum of n(n-1)/2 over threads;
    the census thresholds ride on the same pass."""
    from latentgraph import chains
    from latentgraph.synthetic import make_synthetic_dump

    tracer_module = load_tracer(monkeypatch)
    records = make_synthetic_dump(40, 240, seed=3).records
    threads = chains.group_threads(records)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        chains.extract_chains(records, census_thresholds=[0.1, 0.3])
    finally:
        tracer.uninstall()
    layers = tracer_module.layer_metrics(tracer.spans, tracer.counters)
    assert layers["chains.extract_chains.calls"] == 1
    assert layers["chains.connect.calls"] == len(threads)
    assert layers["chains.chain_census.calls"] == 0
    assert layers["chains.connect.comparisons"] == sum(
        len(t.records) * (len(t.records) - 1) // 2 for t in threads)
