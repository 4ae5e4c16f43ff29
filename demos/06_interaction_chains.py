#!/usr/bin/env python3
"""Extract linear interaction chains from threads.

Within each thread, records whose term-vector cosine exceeds 0.1 are
linked earlier-to-later; branching link structures are unrolled into all
maximal source-to-sink paths, and the longest chains are kept.  The census
groups posts by chain complexity across a threshold ladder; one similarity
pass serves the chains and every census threshold.
"""

from latentgraph.chains import extract_chains
from latentgraph.ingest import run_pipeline
from latentgraph.synthetic import make_synthetic_dump

dump = make_synthetic_dump(300, 1800, seed=11)
clean = run_pipeline(dump.records)[-1].records

selected, manifest = extract_chains(clean, sim_threshold=0.1, top_k=35,
                                    census_thresholds=[0.1, 0.2, 0.3, 0.4, 0.5])
print(f"threads: {manifest['threads']}, chains found: {manifest['chains_total']}, "
      f"kept top {len(selected)}")

print("\nlongest chains:")
for chain in selected[:5]:
    route = " -> ".join(n.record_id for n in chain.nodes)
    print(f"  length {chain.length}: {route}")

print("\nchain-complexity census across thresholds:")
rows = manifest["census_rows"]
print(f"{'threshold':>10} {'no_chain':>9} {'len_eq_1':>9} {'len_gt_1':>9}")
for row in rows:
    print(f"{row['threshold']:>10} {row['no_chain']:>9} {row['len_eq_1']:>9} "
          f"{row['len_gt_1']:>9}")
