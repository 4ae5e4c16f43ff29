#!/usr/bin/env python3
"""Build the directed weighted agent graph, apply a coverage threshold,
and compute the full structural metric report."""

import json

from latentgraph.graph import EdgeClass, apply_coverage, build
from latentgraph.inference import SECONDS_PER_DAY, WindowGrid, extract_events, infer_all
from latentgraph.ingest import RecordKind, run_pipeline
from latentgraph.metrics import full_report
from latentgraph.profiles import build_member_index, build_user_vectors, cluster_users, term_table
from latentgraph.synthetic import make_synthetic_dump

dump = make_synthetic_dump(300, 1800, seed=11)
clean = run_pipeline(dump.records)[-1].records

table, _, _ = term_table(clean)
vectors = build_user_vectors(table)
profiles = cluster_users(vectors, k=6, seed=11)
index = build_member_index(profiles)

posts = [r for r in clean if r.kind is RecordKind.POST]
comments = [r for r in clean if r.kind is RecordKind.COMMENT]
events, _ = extract_events(posts, comments, index)
grid = WindowGrid.from_events(events, 30 * SECONDS_PER_DAY)
edges = infer_all(events, grid)

graph = build(edges.follows(), EdgeClass.ALL, known_agents=[p.agent_id for p in profiles])
print(f"graph: {graph.node_count} agents, {graph.edge_count} edges, "
      f"total weight {graph.total_weight()}")

covered = apply_coverage(graph, 0.0001)
print(f"after 0.01% coverage threshold: {covered.edge_count} edges")

report = full_report(covered, seed=11)
doc = report.to_dict()
for key in ("density", "clustering", "reciprocity", "avg_path_length",
            "assortativity", "modularity", "filter_bubble", "largest_community"):
    print(f"  {key}: {doc[key]}")
print("  in-degree top 3:", doc["in_degree_top"][:3])
print("\nfull JSON report keys:", ", ".join(sorted(doc)))
print(json.dumps(doc["communities"], indent=2)[:200], "...")
