#!/usr/bin/env python3
"""Aggregate users into agents: hashed term vectors, seeded spherical
k-means, then keyword/emotion/style enrichment."""

from latentgraph.ingest import run_pipeline
from latentgraph.profiles import build_user_vectors, cluster_users, enrich, term_table
from latentgraph.synthetic import DEMO_LEXICON, make_synthetic_dump

dump = make_synthetic_dump(200, 1200, seed=7)
clean = run_pipeline(dump.records)[-1].records

# One pass over the text tokenizes each record once and gives the term
# table, the keyword vocabulary and each user's counts; the user vectors sum
# the table's rows, and enrichment only sums its members' counts.
table, vocab, counts = term_table(clean, lexicon=DEMO_LEXICON)
print(f"{len(table.users)} surviving users")
vectors = build_user_vectors(table)
profiles = cluster_users(vectors, k=4, seed=42)
profiles = [
    enrich(p, [counts[u] for u in p.members], DEMO_LEXICON, vocab, vectors) for p in profiles
]

for p in profiles:
    top_emotions = sorted(p.emotion.items(), key=lambda kv: -kv[1])[:2]
    print(f"\n{p.agent_id}  {p.label}")
    print(f"  members:  {len(p.members)}")
    print(f"  keywords: {', '.join(p.keywords[:6])}")
    print(f"  emotions: {', '.join(f'{e}={v:.3f}' for e, v in top_emotions)}")
    print(f"  style:    {p.style}")
