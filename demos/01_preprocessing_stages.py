#!/usr/bin/env python3
"""Walk a synthetic dump through the staged preprocessing filters.

The generator plants bots, noise, over-long threads, one-off authors, and
deleted records with known counts, so the per-stage manifests can be read
against the ground truth.
"""

from latentgraph.ingest import run_pipeline
from latentgraph.synthetic import make_synthetic_dump

dump = make_synthetic_dump(n_posts=200, n_comments=1200, seed=7)
print(f"raw corpus: {len(dump.posts)} posts, {len(dump.comments)} comments")
print(f"planted: {dump.planted}\n")

stages = run_pipeline(dump.records)

print(f"{'stage':>5} {'posts':>7} {'comments':>9}  removed")
for snap in stages:
    removed = ", ".join(f"{k}={v}" for k, v in snap.manifest.items()) or "-"
    print(f"{snap.stage_id:>5} {snap.post_count:>7} {snap.comment_count:>9}  {removed}")

expected = dump.expected_removed
match = all(s.manifest == expected[s.stage_id] for s in stages)
print(f"\nmanifests match the planted ground truth: {match}")
