#!/usr/bin/env python3
"""Time-resolved views: triadic-closure series in six-month intervals and
a robustness sweep over window lengths and confirmation thresholds."""

from latentgraph.inference import SECONDS_PER_DAY, WindowGrid, extract_events, infer_all
from latentgraph.ingest import RecordKind, run_pipeline
from latentgraph.synthetic import make_synthetic_dump
from latentgraph.temporal import sweep, triad_series

dump = make_synthetic_dump(300, 1800, seed=11)
clean = run_pipeline(dump.records)[-1].records
posts = [r for r in clean if r.kind is RecordKind.POST]
comments = [r for r in clean if r.kind is RecordKind.COMMENT]
events, _ = extract_events(posts, comments)
grid = WindowGrid.from_events(events, 30 * SECONDS_PER_DAY)
edges = infer_all(events, grid)

series = triad_series(edges.follows(), interval_len=182 * SECONDS_PER_DAY)
print("triadic closures per six-month interval")
print(f"{'interval':>8} {'cum_all':>8} {'new_all':>8} {'cum_forsure':>12}")
for i in range(series.n_intervals):
    print(f"{i:>8} {series.cumulative_all[i]:>8} {series.new_all[i]:>8} "
          f"{series.cumulative_forsure[i]:>12}")

print("\nsweep over (window_days x forsure_min), edge counts:")
report = sweep(events, [7, 30, 90], [2], [2, 3, 4], [0.0])
print(f"{'window':>7} {'forsure_min':>12} {'nodes':>6} {'edges':>6} {'reciprocity':>12}")
for cell in report.cells:
    rec = f"{cell.reciprocity:.3f}" if cell.reciprocity is not None else "-"
    print(f"{cell.window_days:>7} {cell.forsure_min:>12} {cell.nodes:>6} "
          f"{cell.edges:>6} {rec:>12}")
