"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them all).
"""

import itertools
import json
import random
import time
from dataclasses import replace

import numpy as np

from latentgraph import chains as chainsmod
from latentgraph.chains import extract_chains, linearize
from latentgraph.cli import run_all
from latentgraph.config import default_config
from latentgraph.inference import (
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    WindowGrid,
    classify,
)
from latentgraph.metrics import (
    assortativity,
    avg_path_length,
    clustering,
    communities,
    density,
    reciprocity,
)
from latentgraph.errors import UndefinedMetricError
from latentgraph.ingest import N_STAGES, run_pipeline
from latentgraph.synthetic import make_synthetic_dump
from latentgraph.temporal import triad_series, triangle_closures
from oracles import (
    make_graph,
    oracle_assortativity,
    oracle_avg_path_length,
    oracle_best_partition,
    oracle_classify,
    oracle_clustering,
    oracle_density,
    oracle_maximal_paths,
    oracle_reciprocity,
    oracle_term_vector,
    oracle_triangle_count,
    random_digraph,
)

DAY = 86400


class Criterion:
    def __init__(self, number, name, limit_seconds):
        self.number = number
        self.name = name
        self.limit = limit_seconds
        self.t0 = time.perf_counter()

    def finish(self, ok=True):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(
            f"ACCEPTANCE {self.number} [{self.name}]: {verdict} "
            f"({elapsed:.2f}s / limit {self.limit:.0f}s)"
        )
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.limit, (
            f"criterion {self.number} exceeded runtime limit: {elapsed:.2f}s"
        )


def test_criterion_1_density_consistency():
    crit = Criterion(1, "density consistency", 1.0)
    cases = [((14, 35), 0.192), ((7, 7), 0.167), ((33, 40), 0.038)]
    ok = True
    for (n, e), expected in cases:
        nodes = [f"x{i:02d}" for i in range(n)]
        pairs = list(itertools.permutations(nodes, 2))[:e]
        g = make_graph(pairs, nodes=nodes)
        ok &= round(density(g), 3) == expected
    crit.finish(ok)


def test_criterion_2_classification_oracle_equivalence():
    crit = Criterion(2, "window-classification oracle equivalence", 10.0)
    rng = random.Random(98_2020)
    mismatches = 0
    streams = 0
    while streams < 1000:
        n_ids = rng.randint(2, 10)
        ids = [f"u{i}" for i in range(n_ids)]
        window_len = rng.choice([17, 100, 3600, DAY, 7 * DAY, 30 * DAY])
        span = window_len * rng.randint(1, 60)
        events = [
            InteractionEvent(*rng.sample(ids, 2), rng.randint(0, span), "p", f"c{i:04d}")
            for i in range(rng.randint(1, 200))
        ]
        grid = WindowGrid.from_events(events, window_len)
        maybe_min = rng.randint(1, 4)
        forsure_min = maybe_min + rng.randint(0, 3)
        pairs = {}
        for event in events:
            pairs.setdefault((event.source, event.target), []).append(event)
        for pair_events in pairs.values():
            got = classify(pair_events, grid, maybe_min, forsure_min)
            want = oracle_classify(pair_events, grid, maybe_min, forsure_min)
            if got != want:
                mismatches += 1
        streams += 1
    crit.finish(mismatches == 0)


def test_criterion_3_metric_oracle_suite():
    crit = Criterion(3, "metric oracle suite", 60.0)
    rng = random.Random(3_141_592)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 60)
        g = random_digraph(rng, n, rng.uniform(0.01, 0.12))

        if g.edge_count:
            ok &= abs(density(g) - oracle_density(g)) < 1e-9
            ok &= abs(reciprocity(g) - oracle_reciprocity(g)) < 1e-9

        ok &= abs(clustering(g) - oracle_clustering(g)) < 1e-9

        want_apl = oracle_avg_path_length(g)
        if want_apl is None:
            try:
                avg_path_length(g)
                ok = False
            except UndefinedMetricError:
                pass
        else:
            ok &= abs(avg_path_length(g) - want_apl) < 1e-9

        pair_times = {}
        for e in g.edges:
            key = (e.source, e.target) if e.source <= e.target else (e.target, e.source)
            pair_times[key] = 0
        ok &= len(triangle_closures(pair_times)) == oracle_triangle_count(g)

        want_assort = oracle_assortativity(g)
        if want_assort is None:
            try:
                assortativity(g)
                ok = False
            except UndefinedMetricError:
                pass
        else:
            ok &= abs(assortativity(g) - want_assort) < 1e-9
        if not ok:
            break
    crit.finish(ok)


def test_criterion_4_modularity_quality():
    crit = Criterion(4, "modularity near-optimality", 120.0)
    rng = random.Random(271_828)
    ok = True
    for _ in range(50):
        g = random_digraph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.6))
        _, q = communities(g, seed=0)
        _, best_q = oracle_best_partition(g)
        # Absolute fuzz absorbs float noise in the oracle's matrix-form Q.
        ok &= q >= 0.95 * best_q - 1e-9

    left = ["a0", "a1", "a2", "a3"]
    right = ["b0", "b1", "b2", "b3"]
    pairs = list(itertools.combinations(left, 2))
    pairs += list(itertools.combinations(right, 2))
    pairs.append(("a0", "b0"))
    partition, _ = communities(make_graph(pairs), seed=0)
    groups = sorted(sorted(group) for group in partition)
    ok &= groups == [left, right]
    crit.finish(ok)


def test_criterion_5_triad_series_properties():
    crit = Criterion(5, "triad series structure", 10.0)
    rng = random.Random(1_618)
    ok = True
    for _ in range(100):
        n = rng.randint(3, 12)
        edges = []
        for _ in range(rng.randint(1, 40)):
            u, v = rng.sample(range(n), 2)
            edges.append(
                FollowEdge(
                    source=f"n{u}", target=f"n{v}", windows_hit=2, total_comments=2,
                    status=rng.choice([FollowStatus.MAYBE, FollowStatus.FORSURE]),
                    first_seen=rng.randint(0, 900) * DAY,
                    last_seen=rng.randint(900, 1000) * DAY,
                    status_time=rng.randint(0, 1000) * DAY,
                )
            )
        series = triad_series(edges, 182 * DAY)
        running = 0
        for cum, new in zip(series.cumulative_all, series.new_all):
            ok &= cum >= running
            ok &= new == cum - running
            running = cum
        running = 0
        for cum, new in zip(series.cumulative_forsure, series.new_forsure):
            ok &= cum >= running
            ok &= new == cum - running
            running = cum
        for cum_fs, cum_all in zip(series.cumulative_forsure, series.cumulative_all):
            ok &= cum_fs <= cum_all
        if not ok:
            break
    crit.finish(ok)


def test_criterion_6_preprocessing_ledger():
    crit = Criterion(6, "preprocessing ledger", 5.0)
    dump = make_synthetic_dump(100, 600, seed=2026)
    stages = run_pipeline(dump.records)
    ok = len(stages) == N_STAGES
    ok &= [snap.stage_id for snap in stages] == sorted(dump.expected_removed)
    for snap in stages:
        ok &= snap.manifest == dump.expected_removed[snap.stage_id]
        ok &= (snap.post_count, snap.comment_count) == dump.expected_counts[snap.stage_id]
    for prev, cur in zip(stages, stages[1:]):
        ok &= cur.post_count <= prev.post_count
        ok &= cur.comment_count <= prev.comment_count
    crit.finish(ok)


def test_criterion_7_chain_extraction_equivalence():
    crit = Criterion(7, "chain extraction equivalence", 10.0)
    rng = random.Random(577_215)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 12)
        edges = {
            (i, j)
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        }
        nodes = tuple(
            chainsmod.ChainNode(record_id=f"r{i:02d}", author_agent="a",
                                time=100 + i)
            for i in range(n)
        )
        children = tuple(
            tuple(sorted((j for (x, j) in edges if x == i)))
            for i in range(n)
        )
        dag = chainsmod.SemanticGraph(post_id="p", nodes=nodes, children=children)
        chains = linearize(dag, max_chains=10**9, max_depth=10**9)
        got = {tuple(int(node.record_id[1:]) for node in c.nodes) for c in chains}
        ok &= got == oracle_maximal_paths(n, edges)
        if not ok:
            break

    # Strict inequality at the similarity threshold: a cosine of exactly 0.1
    # (one shared token out of a hundred) must not create an edge.
    tokens = [f"tok{i:03d}" for i in range(100)]
    v_wide = oracle_term_vector([" ".join(tokens)], 4096)
    v_narrow = oracle_term_vector([tokens[0]], 4096)
    cosine = float(v_wide @ v_narrow)
    ok &= cosine == 0.1
    from latentgraph.ingest import RawRecord, RecordKind

    posts = RawRecord(id="p1", kind=RecordKind.POST, author="op", created_utc=100,
                      text=" ".join(tokens), subreddit="s")
    reply = RawRecord(id="c1", kind=RecordKind.COMMENT, author="rep", created_utc=200,
                      text=tokens[0], subreddit="s", link_id="p1", parent_id="p1")
    # The batched pass links the pair just below 0.1, and not at 0.1.
    for threshold, linked in ((0.1, 0), (float(np.nextafter(0.1, 0)), 1)):
        _, manifest = extract_chains([posts, reply], threshold)
        ok &= manifest["census"] == {"no_chain": 1 - linked, "len_eq_1": linked, "len_gt_1": 0}
    crit.finish(ok)


def test_criterion_8_end_to_end_determinism_and_scale(tmp_path):
    crit = Criterion(8, "end-to-end determinism at 10k/60k", 140.0)
    dump = make_synthetic_dump(10_000, 60_000, seed=88)
    posts, comments = dump.write_dumps(tmp_path)
    run_seconds = []
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = replace(
            default_config(),
            k_agents=12,
            seed=88,
            posts_path=str(posts),
            comments_path=str(comments),
            out_dir=str(out),
        )
        t0 = time.perf_counter()
        rc = run_all(config)
        run_seconds.append(time.perf_counter() - t0)
        assert rc == 0
        outputs.append(out)

    ok = all(t < 60.0 for t in run_seconds)
    a, b = outputs
    names = sorted(p.name for p in a.iterdir())
    ok &= names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "run_manifest.json":
            doc_a = json.loads((a / name).read_text())
            doc_b = json.loads((b / name).read_text())
            for doc in (doc_a, doc_b):
                doc.pop("timings_seconds")
                doc["config"].pop("out_dir")
            ok &= doc_a == doc_b
        else:
            ok &= (a / name).read_bytes() == (b / name).read_bytes()
    print(f"  run times: {run_seconds[0]:.1f}s and {run_seconds[1]:.1f}s (limit 60s each)")
    crit.finish(ok)


def test_criterion_9_replication_mode_exists(tmp_path):
    crit = Criterion(9, "replication comparison mode", 30.0)
    dump = make_synthetic_dump(60, 360, seed=9)
    posts, comments = dump.write_dumps(tmp_path)
    config = replace(
        default_config("climate"),
        k_agents=4,
        posts_path=str(posts),
        comments_path=str(comments),
        out_dir=str(tmp_path / "out"),
    )
    rc = run_all(config, replicate=True)
    report = json.loads((tmp_path / "out" / "replication_report.json").read_text())
    ok = rc == 0
    ok &= report["reference_available"] is True
    # Side-by-side rows carry computed, reference, and delta; the published
    # numbers are comparison targets, not pass criteria.
    for row in report["metrics"].values():
        ok &= set(row) == {"computed", "reference", "delta"}
    crit.finish(ok)
