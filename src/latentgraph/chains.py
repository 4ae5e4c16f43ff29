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

Similarities come from the records' integer term counts in one
``profiles.TermTable``: the agents stage's table in ``run-all``, else one
``term_table`` call here.  ``extract_chains`` is the only scorer.  It takes a
block of threads at a time: a self-join on (thread, bucket) gives every pair
that shares a bucket with its exact dot product, and a pair sharing none has
cosine 0.  A cosine within ``SIM_BAND`` of a threshold is recomputed as
``float(v_i @ v_j)`` of the normalized vectors (``TermTable.vector``), so
every decision is the one that per-pair float would make.  ``connect`` only
assembles a thread's DAG from the successor lists the pass computed.

Only the chains that can reach the top K are enumerated.  One reverse pass
over a DAG (``_reach``) gives each node's path count, longest and shortest
distance to a sink, and whether it is a source; ``count_paths`` reads each
DAG's chain count and longest chain off it, and ``linearize`` enters only
nodes with a sink within the depth left.  The manifest's
``chains_total`` and ``truncated_posts`` come from those counts, and
``linearize`` runs only for a thread that hits a cap or whose longest chain
reaches the K-th longest length among the chains kept so far.  Chains below
that length are dropped as it rises, so the top K, ranked by
``rank_and_select``, is the one ranked from every thread's chains.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .ingest import RawRecord, RecordKind, sort_records, write_csv, write_jsonl
from .profiles import TermTable, term_table

DEFAULT_SIM_THRESHOLD = 0.1
DEFAULT_TOP_K = 35
DEFAULT_MAX_CHAINS_PER_POST = 200
DEFAULT_MAX_DEPTH = 64
# A cosine this close to a threshold is decided by the per-pair float.
SIM_BAND = 1e-9
# Threads scored per pass; bounds the size of the self-join's arrays.
BLOCK_THREADS = 250

CENSUS_CATEGORIES = ("no_chain", "len_eq_1", "len_gt_1")
CENSUS_CSV_FIELDS = ["threshold", *CENSUS_CATEGORIES]


@dataclass(frozen=True, slots=True)
class Thread:
    """A post and its records: the post and its comments in (created_utc, id)
    order, the post first on a tie."""

    post: RawRecord
    records: tuple[RawRecord, ...]


def group_threads(records: Sequence[RawRecord]) -> list[Thread]:
    """Group records into threads, ordered by post id, each sorted once by
    ``sort_records``.

    Comments whose post is absent from the record set are skipped; chains
    are a within-thread construct.
    """
    members = {r.id: [r] for r in records if r.kind is RecordKind.POST}
    for rec in records:
        if rec.kind is RecordKind.COMMENT and rec.link_id in members:
            members[rec.link_id].append(rec)
    # The sort is stable and each post leads its list, so it wins a tie.
    return [Thread(members[post_id][0], tuple(sort_records(members[post_id])))
            for post_id in sorted(members)]


@dataclass(frozen=True, slots=True)
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


def _shared_bucket_dots(group: np.ndarray, pos: np.ndarray, count: np.ndarray,
                        n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self-join of the terms on ``group``, their (thread, bucket): every pair
    of positions ``left < right`` that shares a group, with the exact dot
    product of their counts summed over the groups they share."""
    order = np.argsort(group, kind="stable")  # positions ascend within a group
    group, pos, count = group[order], pos[order], count[order]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(group)) + 1, [len(group)]))
    partners = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(len(group)) - 1
    left = np.repeat(np.arange(len(group)), partners)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(partners) - partners, partners)
    pair, slot = np.unique(pos[left] * n + pos[right], return_inverse=True)
    dots = np.bincount(slot, weights=count[left] * count[right], minlength=len(pair))
    return *np.divmod(pair, n), dots


class _Block:
    """Pairwise cosines of a run of threads, from integer term counts.

    Records sit at block positions, thread after thread, each thread in its
    ``Thread.records`` order.  ``left < right`` are the positions of every
    within-thread pair that shares a bucket, and ``sims`` their cosines;
    every other pair has cosine 0.
    """

    def __init__(self, threads: Sequence[Thread], table: TermTable,
                 row_of: tuple[np.ndarray, np.ndarray], thresholds: Sequence[float]) -> None:
        sizes = np.fromiter((len(t.records) for t in threads), np.int64, len(threads))
        self.threads = threads
        self.start = np.concatenate(([0], np.cumsum(sizes)))
        n = int(self.start[-1])
        self.thread_of = np.repeat(np.arange(len(threads)), sizes)
        ids = [rec.id for t in threads for rec in t.records]
        # Rank of each record id; equal ids keep their time order.
        self.id_rank = np.empty(n, dtype=np.int64)
        self.id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)

        addresses = np.fromiter((id(rec) for t in threads for rec in t.records), np.int64, n)
        rows = row_of[1][np.searchsorted(row_of[0], addresses)]
        pos, bucket, count = table.counts(rows, np.arange(n))
        squares = np.bincount(pos, weights=count * count, minlength=n)
        self.left, self.right, dots = _shared_bucket_dots(
            self.thread_of[pos] * table.dim + bucket, pos, count, n)
        # Integer sums are exact, so off the band the float test is decided.
        self.sims = dots / np.sqrt(squares[self.left] * squares[self.right])
        near = np.zeros(len(self.sims), dtype=bool)
        for threshold in thresholds:
            near |= np.abs(self.sims - threshold) <= SIM_BAND
        for k in np.flatnonzero(near).tolist():
            v_i, v_j = (table.vector(int(rows[p])) for p in (self.left[k], self.right[k]))
            self.sims[k] = float(v_i @ v_j)

    def categories(self, threshold: float) -> np.ndarray:
        """Census category of each thread, as an index into ``CENSUS_CATEGORIES``.

        A node with both a predecessor and a successor lies on a maximal
        path of at least two edges; without one, every maximal path is one
        edge.
        """
        linked = self.sims > threshold
        left, right = self.left[linked], self.right[linked]
        n = len(self.thread_of)
        inner = np.zeros(n, dtype=bool)
        inner[left] = True
        has_parent = np.zeros(n, dtype=bool)
        has_parent[right] = True
        inner &= has_parent
        edges = np.bincount(self.thread_of[left], minlength=len(self.threads))
        longer = np.bincount(self.thread_of[inner], minlength=len(self.threads))
        return np.where(edges == 0, 0, np.where(longer > 0, 2, 1))

    def children(self, threshold: float) -> list[tuple[tuple[int, ...], ...]]:
        """Successor lists of each thread's DAG, children in record-id order."""
        linked = self.sims > threshold
        left, right = self.left[linked], self.right[linked]
        order = np.lexsort((self.id_rank[right], left))
        local = (right - self.start[self.thread_of[right]])[order].tolist()
        cuts = [0, *np.cumsum(np.bincount(left, minlength=len(self.thread_of))).tolist()]
        per_node = [tuple(local[a:b]) for a, b in zip(cuts, cuts[1:])]
        bounds = self.start.tolist()
        return [tuple(per_node[a:b]) for a, b in zip(bounds, bounds[1:])]


def connect(
    thread: Thread,
    children: Sequence[Sequence[int]],
    agent_of: Mapping[str, str] | None = None,
) -> SemanticGraph:
    """The semantic DAG of one thread, from the successor lists its block
    computed: ``thread.records``, i linked to each j in
    ``children[i]``, its nodes labelled by ``agent_of``."""
    agent_of = agent_of or {}
    nodes = tuple(
        ChainNode(rec.id, agent_of.get(rec.author, rec.author), rec.created_utc)
        for rec in thread.records
    )
    return SemanticGraph(post_id=thread.post.id, nodes=nodes, children=tuple(children))


def _reach(graph: SemanticGraph) -> tuple[list[int], list[int], list[int], list[bool]]:
    """One reverse pass over the nodes in a topological order (``connect``'s
    time order): per node, its number of paths to a sink, its longest and its
    shortest distance in edges to a sink, and whether it is a source."""
    n = len(graph.nodes)
    paths, longest, shortest, is_source = [1] * n, [0] * n, [0] * n, [True] * n
    for i in range(n - 1, -1, -1):
        succ = graph.children[i]
        if succ:
            paths[i] = sum(map(paths.__getitem__, succ))
            longest[i] = 1 + max(map(longest.__getitem__, succ))
            shortest[i] = 1 + min(map(shortest.__getitem__, succ))
            for j in succ:
                is_source[j] = False
    return paths, longest, shortest, is_source


def linearize(
    graph: SemanticGraph,
    max_chains: int = DEFAULT_MAX_CHAINS_PER_POST,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[InteractionChain]:
    """Enumerate maximal source-to-sink paths as linear chains.

    A chain needs at least one edge; isolated records produce nothing.
    Enumeration is depth-first with children in id order: the first
    ``max_chains`` chains of at most ``max_depth`` edges.  The walk enters
    only a node from which some sink lies within the depth left, so every
    node it enters ends a chain it emits, and its work is bounded by chains
    times depth.  Whether a cap dropped any chain is ``count_paths``' to tell.
    """
    _, _, shortest, is_source = _reach(graph)
    children, nodes = graph.children, graph.nodes
    chains: list[InteractionChain] = []
    for source, nearest in enumerate(shortest):
        if not (is_source[source] and 0 < nearest <= max_depth and len(chains) < max_chains):
            continue
        # An explicit stack, so a path may be longer than the recursion limit:
        # ``pending[k]`` holds the children of ``path[k]`` not yet entered.
        path, pending = [source], [iter(children[source])]
        while pending:
            for child in pending[-1]:
                if len(chains) < max_chains and len(path) + shortest[child] <= max_depth:
                    path.append(child)
                    if children[child]:
                        pending.append(iter(children[child]))
                        break
                    chains.append(InteractionChain(graph.post_id,
                                                   tuple(map(nodes.__getitem__, path))))
                    path.pop()
            else:
                pending.pop()
                path.pop()
    return chains


def count_paths(graph: SemanticGraph) -> tuple[int, int]:
    """(chains, longest): the number of maximal paths of at least one edge
    and the edge count of the longest, read off ``_reach``.  ``linearize``
    emits exactly these chains unless ``chains > max_chains`` or
    ``longest > max_depth``, and then fewer.
    """
    paths, longest, _, is_source = _reach(graph)
    chains = sum(p for p, src, depth in zip(paths, is_source, longest) if src and depth)
    return chains, max(longest, default=0)


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
    table: TermTable | None = None,
    census_thresholds: Sequence[float] | None = None,
) -> tuple[list[InteractionChain], dict]:
    """Full pass: thread grouping, semantic DAGs, linearization, ranking.

    ``table`` is the term table of ``records``; without it one is built over
    all of them.  The manifest carries the census counts of the threads at
    ``sim_threshold`` under ``census``, and the census rows at each of
    ``census_thresholds`` (``[sim_threshold]`` when None) under
    ``census_rows``; one similarity pass serves all, and each distinct
    threshold is scored once.
    """
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    if census_thresholds is None:
        census_thresholds = [sim_threshold]
    thresholds = list(dict.fromkeys([sim_threshold, *census_thresholds]))
    # A pair that shares no bucket has cosine 0; only a threshold in (0, 1)
    # keeps it unlinked without scoring it.
    for threshold in thresholds:
        if not 0.0 < threshold < 1.0:
            raise ConfigError(f"similarity thresholds must lie in (0, 1), got {threshold}")
    kept: list[InteractionChain] = []
    bar = 1 if top_k else math.inf  # the length a chain needs to stay in the running
    chains_total = truncated_posts = 0
    counts = np.zeros((len(thresholds), len(CENSUS_CATEGORIES)), dtype=np.int64)
    threads = group_threads(records)
    if table is None:
        table, _, _ = term_table(records)
    if len(records) != len(table.offsets) - 1:
        raise ValueError("the term table does not hold one row per record")
    # Threads hold the records themselves, so a record's row is found by
    # identity: the records' sorted id()s, and the row of each.
    addresses = np.fromiter(map(id, records), np.int64, len(records))
    rows = np.argsort(addresses)
    addresses = addresses[rows]
    row_of = (addresses, rows)
    for first in range(0, len(threads), BLOCK_THREADS):
        block = _Block(threads[first:first + BLOCK_THREADS], table, row_of, thresholds)
        for row, threshold in zip(counts, thresholds):
            row += np.bincount(block.categories(threshold), minlength=len(CENSUS_CATEGORIES))
        for thread, children in zip(block.threads, block.children(sim_threshold)):
            dag = connect(thread, children, agent_of)
            paths, longest = count_paths(dag)
            truncated = paths > DEFAULT_MAX_CHAINS_PER_POST or longest > DEFAULT_MAX_DEPTH
            truncated_posts += truncated
            # Which paths a truncated thread emits depends on the DFS order.
            if truncated or longest >= bar:
                chains = linearize(dag)
                paths = len(chains)
                kept += [c for c in chains if c.length >= bar]
                if top_k and len(kept) >= top_k:
                    bar = heapq.nlargest(top_k, (c.length for c in kept))[-1]
                    kept = [c for c in kept if c.length >= bar]
            chains_total += paths
    census = {t: dict(zip(CENSUS_CATEGORIES, row)) for t, row in zip(thresholds, counts.tolist())}
    manifest = {
        "threads": len(threads),
        "chains_total": chains_total,
        "truncated_posts": truncated_posts,
        "sim_threshold": sim_threshold,
        "top_k": top_k,
        "census": census[sim_threshold],
        "census_rows": [{"threshold": t, **census[t]} for t in census_thresholds],
    }
    return rank_and_select(kept, top_k), manifest


def chain_census(threads: Sequence[Thread], thresholds: Sequence[float]) -> list[dict]:
    """Post counts per chain-complexity category at each threshold: the
    ``census_rows`` of one ``extract_chains`` over the threads' records."""
    records = [rec for thread in threads for rec in thread.records]
    return extract_chains(records, census_thresholds=thresholds)[1]["census_rows"]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_chains_jsonl(chains: Sequence[InteractionChain], path: str | Path) -> None:
    write_jsonl(path, ({
        "post_id": chain.post_id,
        "length": chain.length,
        "nodes": [
            {"record_id": node.record_id, "agent": node.author_agent, "time": node.time}
            for node in chain.nodes
        ],
    } for chain in chains))


def write_census_csv(rows: Sequence[dict], path: str | Path) -> None:
    write_csv(path, CENSUS_CSV_FIELDS, ([row[field] for field in CENSUS_CSV_FIELDS] for row in rows))
