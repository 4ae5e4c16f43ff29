"""Linear interaction-chain extraction from post/comment threads.

Within one thread every pair of records is compared by cosine similarity of
their hashed term vectors; a similarity strictly above the threshold links
the earlier record to the later one (the default threshold is 0.1, and a
similarity of exactly 0.1 does not connect).  The resulting DAG is unrolled
into all maximal source-to-sink paths, so branching conversations duplicate
into separate linear chains, each node having one predecessor and one
successor inside its chain.  The census sorts threads by the DAG's shape:
no edge, only single-edge paths, or a node with both a predecessor and a
successor; it needs no path enumeration and no cap applies to it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .ingest import RawRecord, RecordKind, atomic_write, compact_json, write_csv
from .profiles import vectorize_user

DEFAULT_SIM_THRESHOLD = 0.1
DEFAULT_TOP_K = 35
DEFAULT_MAX_CHAINS_PER_POST = 200
DEFAULT_MAX_DEPTH = 64

CENSUS_CATEGORIES = ("no_chain", "len_eq_1", "len_gt_1")
CENSUS_CSV_FIELDS = ["threshold", *CENSUS_CATEGORIES]


@dataclass(frozen=True)
class Thread:
    post: RawRecord
    comments: tuple[RawRecord, ...]

    @property
    def records(self) -> tuple[RawRecord, ...]:
        return (self.post, *self.comments)


def group_threads(records: Sequence[RawRecord]) -> list[Thread]:
    """Group records into (post, its comments) threads, ordered by post id.

    Comments whose post is absent from the record set are skipped; chains
    are a within-thread construct.
    """
    posts = {r.id: r for r in records if r.kind is RecordKind.POST}
    comments: dict[str, list[RawRecord]] = defaultdict(list)
    for rec in records:
        if rec.kind is RecordKind.COMMENT and rec.link_id in posts:
            comments[rec.link_id].append(rec)
    threads = []
    for post_id in sorted(posts):
        replies = sorted(comments.get(post_id, []), key=lambda r: (r.created_utc, r.id))
        threads.append(Thread(post=posts[post_id], comments=tuple(replies)))
    return threads


@dataclass(frozen=True)
class ChainNode:
    record_id: str
    author_agent: str
    time: int


@dataclass(frozen=True)
class SemanticGraph:
    """Similarity DAG of one thread; edges run earlier -> later."""

    post_id: str
    nodes: tuple[ChainNode, ...]
    children: tuple[tuple[int, ...], ...]  # successor indices per node

    @property
    def edge_count(self) -> int:
        return sum(len(c) for c in self.children)


@dataclass(frozen=True)
class InteractionChain:
    post_id: str
    nodes: tuple[ChainNode, ...]

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def start_time(self) -> int:
        return self.nodes[0].time


def _similarities(thread: Thread) -> tuple[list[RawRecord], np.ndarray]:
    """Records ordered by (time, id) and their pairwise cosines.

    Entry (i, j) with i < j is ``float(v_i @ v_j)``; every other entry is
    -inf, so no threshold links it.  Each pair takes its own dot product,
    because a matrix product can round the last bit differently and flip
    the strict threshold test.  The vectors are dropped on return.
    """
    ordered = sorted(thread.records, key=lambda r: (r.created_utc, r.id))
    vectors = [vectorize_user([rec.text]) for rec in ordered]
    sims = np.full((len(ordered), len(ordered)), -np.inf)
    for i, v_i in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            sims[i, j] = float(v_i @ vectors[j])
    return ordered, sims


def _children(
    ordered: Sequence[RawRecord], sims: np.ndarray, threshold: float
) -> tuple[tuple[int, ...], ...]:
    # Children are visited in record-id order during linearization.
    return tuple(
        tuple(sorted(np.flatnonzero(row > threshold).tolist(), key=lambda j: ordered[j].id))
        for row in sims
    )


def _category(children: Sequence[Sequence[int]]) -> str:
    """Census category of one DAG, read from its structure.

    A node with both a predecessor and a successor lies on a maximal path
    of at least two edges; without one, every maximal path is one edge.
    """
    has_parent = {j for succ in children for j in succ}
    if not has_parent:
        return "no_chain"
    if any(succ and i in has_parent for i, succ in enumerate(children)):
        return "len_gt_1"
    return "len_eq_1"


def connect(
    thread: Thread,
    sim_threshold: float = DEFAULT_SIM_THRESHOLD,
    agent_of: Mapping[str, str] | None = None,
) -> SemanticGraph:
    """Build the semantic DAG of one thread.

    Records are ordered by (time, id); i links to j when i precedes j and
    cosine(v_i, v_j) exceeds the threshold (strictly).
    """
    ordered, sims = _similarities(thread)
    agent_of = agent_of or {}
    nodes = tuple(
        ChainNode(rec.id, agent_of.get(rec.author, rec.author), rec.created_utc)
        for rec in ordered
    )
    return SemanticGraph(
        post_id=thread.post.id, nodes=nodes, children=_children(ordered, sims, sim_threshold)
    )


@dataclass
class LinearizeStats:
    chains: int = 0
    truncated_chains: bool = False
    truncated_depth: bool = False


def linearize(
    graph: SemanticGraph,
    max_chains: int = DEFAULT_MAX_CHAINS_PER_POST,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[list[InteractionChain], LinearizeStats]:
    """Enumerate maximal source-to-sink paths as linear chains.

    A chain needs at least one edge; isolated records produce nothing.
    Enumeration is depth-first with children in id order, bounded by the
    caps; hitting a cap marks the stats rather than failing.
    """
    n = len(graph.nodes)
    indegree = [0] * n
    for succ in graph.children:
        for j in succ:
            indegree[j] += 1
    sources = [i for i in range(n) if indegree[i] == 0 and graph.children[i]]

    stats = LinearizeStats()
    chains: list[InteractionChain] = []
    path: list[int] = []

    def visit(node: int) -> None:
        if stats.truncated_chains:
            return
        path.append(node)
        try:
            if len(path) - 1 >= max_depth and graph.children[node]:
                stats.truncated_depth = True
                return
            if not graph.children[node]:
                if len(path) > 1:
                    if len(chains) >= max_chains:
                        stats.truncated_chains = True
                        return
                    chains.append(
                        InteractionChain(
                            post_id=graph.post_id,
                            nodes=tuple(graph.nodes[i] for i in path),
                        )
                    )
                return
            for child in graph.children[node]:
                visit(child)
        finally:
            path.pop()

    for source in sources:
        visit(source)
    stats.chains = len(chains)
    return chains, stats


def rank_and_select(
    chains: Sequence[InteractionChain], k: int = DEFAULT_TOP_K
) -> list[InteractionChain]:
    """Longest chains first; ties go to the earlier chain, then first id."""
    ordered = sorted(
        chains,
        key=lambda c: (-c.length, c.start_time, c.nodes[0].record_id),
    )
    return ordered[:k]


def extract_chains(
    records: Sequence[RawRecord],
    sim_threshold: float = DEFAULT_SIM_THRESHOLD,
    top_k: int = DEFAULT_TOP_K,
    agent_of: Mapping[str, str] | None = None,
) -> tuple[list[InteractionChain], dict]:
    """Full pass: thread grouping, semantic DAGs, linearization, ranking.

    The manifest carries the census counts of the threads at
    ``sim_threshold``.
    """
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    all_chains: list[InteractionChain] = []
    truncated_posts = 0
    census = dict.fromkeys(CENSUS_CATEGORIES, 0)
    threads = group_threads(records)
    for thread in threads:
        dag = connect(thread, sim_threshold, agent_of)
        chains, stats = linearize(dag)
        if stats.truncated_chains or stats.truncated_depth:
            truncated_posts += 1
        census[_category(dag.children)] += 1
        all_chains.extend(chains)
    manifest = {
        "threads": len(threads),
        "chains_total": len(all_chains),
        "truncated_posts": truncated_posts,
        "sim_threshold": sim_threshold,
        "top_k": top_k,
        "census": census,
    }
    return rank_and_select(all_chains, top_k), manifest


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def chain_census(threads: Sequence[Thread], thresholds: Sequence[float]) -> list[dict]:
    """Post counts per chain-complexity category at each threshold.

    Categories: no edge at all, only single-edge maximal paths, or at least
    one longer path.  Each thread's similarities are computed once and
    serve every threshold.  Counts per threshold always sum to the thread
    count.
    """
    for threshold in thresholds:
        if not 0.0 < threshold < 1.0:
            raise ConfigError(f"census thresholds must lie in (0, 1), got {threshold}")
    counts = [dict.fromkeys(CENSUS_CATEGORIES, 0) for _ in thresholds]
    for thread in threads:
        ordered, sims = _similarities(thread)
        for row, threshold in zip(counts, thresholds):
            row[_category(_children(ordered, sims, threshold))] += 1
    return [{"threshold": t, **row} for t, row in zip(thresholds, counts)]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_chains_jsonl(chains: Sequence[InteractionChain], path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.writelines(
            compact_json({
                "post_id": chain.post_id,
                "length": chain.length,
                "nodes": [
                    {"record_id": node.record_id, "agent": node.author_agent, "time": node.time}
                    for node in chain.nodes
                ],
            }) + "\n"
            for chain in chains
        )


def write_census_csv(rows: Sequence[dict], path: str | Path) -> None:
    write_csv(path, CENSUS_CSV_FIELDS, ([row[field] for field in CENSUS_CSV_FIELDS] for row in rows))
