#!/usr/bin/env python3
"""Infer directed follow relations from temporally consistent replying.

A pair's distinct active observation windows decide its status: two
windows is a tentative 'maybe' follow, three or more a confirmed
'forsure' follow.  The timeline rows are the data behind follow-event
scatter plots (grey maybe dots, green forsure dots).
"""

from collections import Counter

from latentgraph.inference import (
    SECONDS_PER_DAY,
    WindowGrid,
    event_timeline,
    extract_events,
    infer_all,
)
from latentgraph.ingest import RecordKind, run_pipeline
from latentgraph.synthetic import make_synthetic_dump

dump = make_synthetic_dump(200, 1200, seed=7)
clean = run_pipeline(dump.records)[-1].records
posts = [r for r in clean if r.kind is RecordKind.POST]
comments = [r for r in clean if r.kind is RecordKind.COMMENT]

# User-level inference here; run-all maps authors to agents first.
events, stats = extract_events(posts, comments)
print(f"events: {stats.events} (self-replies dropped: {stats.self_replies}, "
      f"orphans: {stats.orphans})")

grid = WindowGrid.from_events(events, 30 * SECONDS_PER_DAY)
print(f"window grid: origin={grid.origin}, {grid.n} windows of 30 days")

# infer_all returns a view that classifies pairs as it is read; follows()
# builds the maybe and forsure edges alone, which are all the timeline and
# the graph need.
edges = infer_all(events, grid, maybe_min=2, forsure_min=3)
print("status counts:", dict(Counter(e.status.value for e in edges)))

rows = event_timeline(edges.follows())
print(f"\nfirst follow events on the timeline ({len(rows)} total):")
for row in rows[:8]:
    print(f"  t={row.time}  {row.source} -> {row.target}  [{row.status.value}]")
