"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import worker
from common import Ops, check_reference_digests, comparable, timing_summary
from run import END_TO_END, PER_LAYER
from tracer import Span, Tracer, layer_metrics, self_times

REPO = Path(__file__).resolve().parent.parent


def span(id, name, parent, start, end):
    return Span(id, name, parent, start, end)


def test_self_time_nested_and_sibling_spans():
    spans = [
        span(0, "pass", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "a.child", 1, 2.0, 3.0),
        span(3, "b", 0, 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "p", None, 0.0, 10.0), span(1, "x", 0, 1.0, 4.0),
             span(2, "y", 0, 3.0, 5.0), span(3, "z", 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_patches_every_namespace_and_restores():
    from latentgraph import inference, temporal

    original = inference.infer_all
    tracer = Tracer()
    tracer.install()
    try:
        assert inference.infer_all is not original
        assert temporal.infer_all is inference.infer_all
    finally:
        tracer.uninstall()
    assert inference.infer_all is original and temporal.infer_all is original


def test_traced_calls_add_up_to_the_root(tmp_path):
    from latentgraph import temporal
    from latentgraph.inference import InteractionEvent

    events = [InteractionEvent("u1", "u2", t * 86400, "p1", f"c{t}") for t in range(6)]
    tracer = Tracer()
    tracer.install()
    root = tracer.begin("pass")
    try:
        temporal.sweep(events, [7.0, 30.0], coverage_list=[0.0, 0.5])
    finally:
        tracer.end(root)
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, tracer.counters)
    assert layers["inference.infer_all.calls"] == 2
    assert layers["graph.build.calls"] == 4
    assert layers["temporal.sweep.cells"] == 4
    parts = sum(layers[f"{n}.self_s"] for n in {s.name for s in tracer.spans} - {"pass"})
    assert parts + layers["pass.self_s"] == pytest.approx(root.duration)


def test_connect_comparisons_count_extraction_only():
    from latentgraph import chains, synthetic

    records = synthetic.make_synthetic_dump(40, 240, seed=3).records
    threads = chains.group_threads(records)
    tracer = Tracer()
    tracer.install()
    root = tracer.begin("pass")
    try:
        chains.extract_chains(records)
        chains.chain_census(threads, [0.1, 0.3])
    finally:
        tracer.end(root)
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, tracer.counters)
    assert layers["chains.connect.calls"] == 3 * len(threads)
    n = [len(t.records) for t in threads]
    assert layers["chains.connect.comparisons"] == sum(k * (k - 1) // 2 for k in n)


def tiny_run(tmp_path: Path):
    from latentgraph import synthetic

    dump = synthetic.make_synthetic_dump(400, 2400, seed=3)
    dump.write_dumps(tmp_path / "corpus")
    expected = {"counts": [list(c) for c in dump.expected_counts],
                "removed": {str(k): v for k, v in dump.expected_removed.items()}}
    ops = Ops()
    out = tmp_path / "out"
    rc = worker.pipeline_body("agent", 3, tmp_path, out, ops)
    return rc, out, expected, ops


def test_altered_artifact_is_a_failed_operation(tmp_path):
    rc, out, expected, ops = tiny_run(tmp_path)
    groups = worker.check_run(rc, "agent", out, expected, ops)
    reference = {"agent": dict(groups[0]["files"])}
    check_reference_digests(ops, groups, reference)
    assert (ops.attempted, ops.failed) == (1, 0)

    edges = out / "edges.csv"
    edges.write_bytes(edges.read_bytes() + b"\n")
    altered = Ops([["cli.run_all", []]])
    groups = worker.check_run(rc, "agent", out, expected, altered)
    check_reference_digests(altered, groups, reference)
    assert (altered.attempted, altered.failed) == (1, 1)
    assert any("edges.csv" in p for p in altered.problems())


def test_planted_count_mismatch_is_a_failed_operation(tmp_path):
    rc, out, expected, ops = tiny_run(tmp_path)
    expected["removed"]["3"] = {"deleted_removal": 0}
    worker.check_run(rc, "agent", out, expected, ops)
    assert ops.failed == 1


def result(seed=1, posts="aa", env_cpu="x"):
    return {"workload": "agent-sweep", "seed": seed, "corpus_seed": seed, "trace": 0,
            "input_digests": {"posts.jsonl": posts, "comments.jsonl": "bb"},
            "env": {"cpu": env_cpu}, "metrics": {"wall_s": 1.0}}


def test_mismatched_input_digests_are_refused(tmp_path):
    assert comparable(result(), result()) == []
    assert comparable(result(), result(posts="cc"))
    for side, posts in (("base", "aa"), ("new", "cc")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "agent-sweep-seed1-trace0.json").write_text(
            json.dumps(result(posts=posts)))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2


def test_environment_difference_is_reported():
    base = {("agent-sweep", 1, 0): result(env_cpu="x")}
    new = {("agent-sweep", 1, 0): result(env_cpu="y")}
    assert compare.refusals(base, new) == []
    assert compare.env_warnings(base, new)


def test_timing_summary_percentile_needs_ten_samples_beyond():
    assert set(timing_summary([3.0, 1.0, 2.0])) == {"n", "median", "max"}
    assert "p90" in timing_summary([float(i) for i in range(100)])


def test_benchmark_json_matches_the_metrics_reported():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert len(PER_LAYER) <= 128


def test_verdict_is_unresolved_when_the_base_spreads_beyond_the_bound():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    noisy = [7.0, 13.0, 10.0, 8.0, 12.0]
    assert compare.verdict(steady, [10.2] * 5, 0.05, "lower") == "within bound"
    assert compare.verdict(steady, [11.0] * 5, 0.05, "lower") == "regression"
    assert compare.verdict(steady, [9.0] * 5, 0.05, "higher") == "regression"
    assert compare.verdict(noisy, [11.0] * 5, 0.25, "lower") == "unresolved"
    assert compare.verdict(noisy, [6.0] * 5, 0.25, "lower") == "better in every run"
    assert compare.verdict([10.0], [10.0], 0.25, "lower") == "unresolved"


def test_a_set_is_not_compared_with_itself(tmp_path):
    (tmp_path / "agent-sweep-seed1-trace0.json").write_text(json.dumps(result()))
    assert compare.main([str(tmp_path), str(tmp_path)]) == 2
