"""Structural metrics of the interaction graph.

Conventions (also echoed into every metrics.json):

* density and reciprocity are computed on the directed graph;
* clustering, path lengths, triangles, assortativity, and communities use
  the undirected projection (an undirected edge exists when either directed
  edge does; its weight is the sum of both directions).  Every one of them
  reads the graph's one cached ``InteractionGraph.projection``, or, for
  path lengths, its ``csr`` arrays, and every triangle comes from
  ``triangles``;
* average path length is the mean over ordered reachable node pairs,
  excluding self-pairs; unreachable pairs are ignored, not penalized;
* undefined metrics surface as ``UndefinedMetricError`` and are serialized
  as null plus a ``<name>_reason`` string.

Community detection is greedy agglomerative modularity maximization with a
fixed tie rule (the largest gain wins, then the pair whose sorted community
ids are smallest), so results are identical across runs and platforms.
Each merge phase builds one community-pair table and one sorted list of the
improving pairs; a merge folds one row into another and rescores only the
merged community's pairs (Clauset, Newman & Moore, 2004), instead of
rescanning every edge.  Integer edge weights keep every sum exact, so the
merge order matches a full rebuild after each merge.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from .errors import UndefinedMetricError
from .graph import InteractionGraph
from .ingest import json_document, row_dict, write_json

DEFAULT_DEGREE_TOP_K = 10

CONVENTIONS = {
    "density": "directed",
    "reciprocity": "directed",
    "clustering": "undirected projection, degree<2 contributes 0",
    "avg_path_length": "undirected projection, mean over reachable ordered pairs",
    "assortativity": "degree Pearson over undirected projection edges, both orientations",
    "communities": "greedy agglomerative modularity maximization, weighted undirected projection",
    "fb_definition": "internal-minus-expected",
}


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def directed_edge_set(graph: InteractionGraph) -> set[tuple[str, str]]:
    return {(e.source, e.target) for e in graph.edges}


def triangles(adj: Mapping[str, Collection[str]]) -> Iterator[tuple[str, str, str]]:
    """Every triangle ``(u, v, w)``, ``u < v < w``, of an undirected
    adjacency, in sorted order."""
    for u in sorted(adj):
        higher = sorted(v for v in adj[u] if v > u)
        for i, v in enumerate(higher):
            for w in higher[i + 1:]:
                if w in adj[v]:
                    yield u, v, w


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def density(graph: InteractionGraph) -> float:
    n = graph.node_count
    if n < 2:
        raise UndefinedMetricError(f"density needs >= 2 nodes, graph has {n}")
    return graph.edge_count / (n * (n - 1))


def reciprocity(graph: InteractionGraph) -> float:
    if graph.edge_count == 0:
        raise UndefinedMetricError("reciprocity is undefined without edges")
    edges = directed_edge_set(graph)
    mutual = sum(1 for (u, v) in edges if (v, u) in edges)
    return mutual / len(edges)


def clustering(graph: InteractionGraph) -> float:
    """Mean local clustering: a node of degree d in t triangles has t links
    among its neighbours and scores 2t / (d(d - 1)); a node in none scores 0."""
    if graph.node_count == 0:
        raise UndefinedMetricError("clustering is undefined on an empty graph")
    adj = graph.projection
    links = Counter(node for triangle in triangles(adj) for node in triangle)
    return sum(
        2.0 * links[node] / (len(adj[node]) * (len(adj[node]) - 1))
        for node in graph.nodes if node in links
    ) / graph.node_count


# Bytes of the neighbours' frontier rows ``avg_path_length`` gathers in one
# BFS step; the sources of one chunk get as many 64-bit words as fit.
PATH_BLOCK_BYTES = 1 << 20


def avg_path_length(graph: InteractionGraph) -> float:
    """The integer sum of the distances over every ordered reachable pair,
    divided by the integer pair count.

    A bit-parallel multi-source BFS over ``graph.csr`` (Then et al., "The
    More the Merrier", PVLDB 8(4), 2014): bit ``j`` of a node's row of
    ``uint64`` words says whether source ``j`` of the chunk has reached it.
    One level takes the OR of the neighbours' frontier rows
    (``np.bitwise_or.reduceat``) and keeps the bits not yet seen, so a chunk
    of sources costs one gather of ``2m x words`` per level.  Nodes without a
    neighbour reach no one: they are neither sources nor reduceat segments
    (reduceat gives an empty segment an element, not zero).
    """
    indptr, neighbours = graph.csr
    linked = np.flatnonzero(np.diff(indptr))
    starts = indptr[linked]
    words = max(1, PATH_BLOCK_BYTES // (8 * max(len(neighbours), 1)))
    total = pairs = 0
    for first in range(0, len(linked), 64 * words):
        sources = linked[first:first + 64 * words]
        bit = np.arange(len(sources))
        frontier = np.zeros((graph.node_count, -(-len(sources) // 64)), dtype=np.uint64)
        frontier[sources, bit // 64] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
        seen = frontier[linked]
        # A shortest path has fewer edges than there are linked nodes.
        for level in range(1, len(linked)):
            reached = np.bitwise_or.reduceat(frontier[neighbours], starts, axis=0)
            reached &= ~seen
            found = int(np.bitwise_count(reached).sum())
            if not found:
                break
            total += level * found
            pairs += found
            seen |= reached
            frontier[linked] = reached
    if pairs == 0:
        raise UndefinedMetricError("no connected node pairs")
    return total / pairs


def degree_ranking(
    graph: InteractionGraph, direction: str, k: int
) -> list[tuple[str, int]]:
    """Top-k nodes by unique-neighbor in- or out-degree, ties by id."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    counts = {node: 0 for node in graph.nodes}
    for edge in graph.edges:
        key = edge.target if direction == "in" else edge.source
        counts[key] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def assortativity(graph: InteractionGraph) -> float:
    """Degree correlation across undirected-projection edges.

    Every edge contributes both endpoint orderings.  Raises when degree
    variance is zero (the correlation is undefined, not zero).
    """
    adj = graph.projection
    xs: list[float] = []
    ys: list[float] = []
    for u in sorted(adj):
        for v in sorted(w for w in adj[u] if w > u):
            xs.extend((len(adj[u]), len(adj[v])))
            ys.extend((len(adj[v]), len(adj[u])))
    if not xs:
        raise UndefinedMetricError("assortativity needs at least one edge")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0.0 or var_y <= 0.0:
        raise UndefinedMetricError("assortativity is undefined with zero degree variance")
    return cov / (var_x * var_y) ** 0.5


# ---------------------------------------------------------------------------
# Communities
# ---------------------------------------------------------------------------

def modularity(graph: InteractionGraph, partition: Sequence[set[str]]) -> float:
    """Newman modularity Q of a node partition on the weighted projection."""
    adj = graph.projection
    m = float(graph.total_weight())  # each directed edge's weight lands on one projection edge
    if m == 0.0:
        return 0.0
    community_of = {node: idx for idx, group in enumerate(partition) for node in group}
    internal = [0.0] * len(partition)
    degree_sum = [0.0] * len(partition)
    for u, nbrs in adj.items():
        c = community_of[u]
        for v, w in nbrs.items():
            degree_sum[c] += w
            if u < v and community_of[v] == c:
                internal[c] += w
    return sum(
        internal[c] / m - (degree_sum[c] / (2.0 * m)) ** 2
        for c in range(len(partition))
    )


_GAIN_EPS = 1e-12
# Seeded restarts escape local maxima on small graphs; large graphs get few.
SMALL_GRAPH_MAX_NODES = 256
SMALL_GRAPH_RESTARTS = 24
LARGE_GRAPH_RESTARTS = 4


class _CommunityState:
    """Partition bookkeeping for the greedy optimizer.

    Communities are keyed by their smallest member id, which is also the
    deterministic tie-break order for merges and moves.  ``adj`` is the
    graph's projection itself, read and never changed.
    """

    def __init__(self, graph: InteractionGraph):
        self.adj = graph.projection
        self.k = {node: sum(nbrs.values(), 0.0) for node, nbrs in self.adj.items()}
        self.com_of: dict[str, str] = {node: node for node in graph.nodes}
        self.members: dict[str, set[str]] = {node: {node} for node in graph.nodes}
        self.deg = dict(self.k)

    def pair_table(self) -> dict[str, dict[str, float]]:
        """Projection weight between distinct communities, one row each.

        ``table[c][d] == table[d][c]`` is the weight joining ``c`` and ``d``;
        communities without an outside edge get an empty row.
        """
        table: dict[str, dict[str, float]] = {c: {} for c in self.members}
        for u, nbrs in self.adj.items():
            cu = self.com_of[u]
            for v, w in nbrs.items():
                if u >= v:
                    continue
                cv = self.com_of[v]
                if cu == cv:
                    continue
                table[cu][cv] = table[cu].get(cv, 0.0) + w
                table[cv][cu] = table[cv].get(cu, 0.0) + w
        return table

    def merge(self, a: str, b: str) -> None:
        keep, gone = (a, b) if a <= b else (b, a)
        for node in self.members[gone]:
            self.com_of[node] = keep
        self.members[keep] |= self.members.pop(gone)
        self.deg[keep] += self.deg.pop(gone)

    def move(self, node: str, dest: str) -> None:
        src = self.com_of[node]
        self.members[src].discard(node)
        self.deg[src] -= self.k[node]
        if not self.members[src]:
            del self.members[src], self.deg[src]
        elif src == node:
            new_key = min(self.members[src])
            self.members[new_key] = self.members.pop(src)
            self.deg[new_key] = self.deg.pop(src)
            for other in self.members[new_key]:
                self.com_of[other] = new_key
        self.com_of[node] = dest
        self.members[dest].add(node)
        self.deg[dest] += self.k[node]
        if node < dest:
            self.members[node] = self.members.pop(dest)
            self.deg[node] = self.deg.pop(dest)
            for other in self.members[node]:
                self.com_of[other] = node


def _merge_phase(
    state: _CommunityState, m: float, rng: random.Random | None, greedy_width: int
) -> bool:
    """Merge community pairs until no merge raises modularity.

    The pair table is built once per phase.  A merge folds the row of the
    community that disappears into the row of the one that stays and
    rescores only the merged community's pairs (Clauset, Newman & Moore,
    2004); no other gain changes.  ``scored`` holds ``(-gain, a, b)`` for
    every improving pair ``a < b`` in sorted order, so ``scored[0]`` is the
    best gain with ties to the smallest pair.
    """
    table = state.pair_table()
    entry: dict[tuple[str, str], tuple[float, str, str]] = {}

    def score(a: str, b: str) -> tuple[float, str, str] | None:
        gain = table[a][b] / m - (state.deg[a] * state.deg[b]) / (2.0 * m * m)
        if gain <= _GAIN_EPS:
            return None
        entry[(a, b)] = item = (-gain, a, b)
        return item

    scored = sorted(filter(None, (score(a, b) for a, row in table.items() for b in row if a < b)))
    changed = False
    while scored:
        if rng is None:
            _, a, b = scored[0]
        elif greedy_width == 0:
            _, a, b = rng.choice(scored)
        else:
            _, a, b = rng.choice(scored[:greedy_width])
        for x in (a, b):
            for c in table[x]:
                item = entry.pop((x, c) if x < c else (c, x), None)
                if item is not None:
                    del scored[bisect.bisect_left(scored, item)]
        row_a, row_b = table[a], table.pop(b)
        del row_a[b], row_b[a]
        for c, w in row_b.items():
            del table[c][b]
            row_a[c] = table[c][a] = row_a.get(c, 0.0) + w
        state.merge(a, b)
        for c in row_a:
            item = score(a, c) if a < c else score(c, a)
            if item is not None:
                bisect.insort(scored, item)
        changed = True
    return changed


def _move_phase(state: _CommunityState, m: float) -> bool:
    """Relocate single nodes, in id order, while a move raises modularity.

    A node moves only into a neighbouring community, never to a fresh
    singleton: that needs a gain above 0 and above each neighbour D's, i.e.
    k(d_C - k) > 2ma and k d_D > 2m t_D, where k is the node's degree, a and
    t_D its weight into the rest of its community C and into D, and d a
    community's degree sum.  As a + sum t_D = k, these add up to
    d_C + sum d_D > 2m + k, more than the 2m all communities' degrees sum to.
    """
    changed = False
    while True:
        moved = False
        for node in sorted(state.com_of):
            src = state.com_of[node]
            w_to: dict[str, float] = {}
            for neighbor, w in state.adj[node].items():
                c = state.com_of[neighbor]
                w_to[c] = w_to.get(c, 0.0) + w
            w_src = w_to.get(src, 0.0)
            d_src = state.deg[src]
            k_node = state.k[node]
            best_dq = _GAIN_EPS
            best_dest: str | None = None
            for dest in sorted(c for c in w_to if c != src):
                dq = (w_to[dest] - w_src) / m - k_node * (
                    state.deg[dest] - d_src + k_node
                ) / (2.0 * m * m)
                if dq > best_dq:
                    best_dq = dq
                    best_dest = dest
            if best_dest is not None:
                state.move(node, best_dest)
                moved = True
                changed = True
        if not moved:
            return changed


def _optimize_partition(
    graph: InteractionGraph,
    m: float,
    rng: random.Random | None,
    greedy_width: int = 3,
) -> list[set[str]]:
    """One greedy run: agglomerative merges plus node-move refinement.

    With ``rng`` set, merge choices are perturbed (picked among the top
    ``greedy_width`` gains, or uniformly over all improving pairs when the
    width is 0) to diversify restarts; without it the single best pair
    wins, ties toward the smallest id pair.
    """
    state = _CommunityState(graph)
    while True:
        any_change = _merge_phase(state, m, rng, greedy_width)
        any_change |= _move_phase(state, m)
        if not any_change:
            break
    return [state.members[key] for key in sorted(state.members)]


def community_restarts(n: int) -> int:
    """Greedy runs ``communities`` makes on an n-node graph, the deterministic one included."""
    return SMALL_GRAPH_RESTARTS if n <= SMALL_GRAPH_MAX_NODES else LARGE_GRAPH_RESTARTS


def communities(
    graph: InteractionGraph, seed: int = 0
) -> tuple[list[set[str]], float]:
    """Greedy agglomerative modularity maximization, seeded restarts.

    The first run is fully deterministic greedy (best merge gain, ties to
    the smallest id pair) followed by single-node relocation until no move
    helps.  Further seeded restarts perturb the merge order to escape local
    maxima on small graphs; the best-Q partition wins, so results are
    reproducible for a fixed (graph, seed).
    """
    m = float(graph.total_weight())
    if m == 0.0:
        return [{node} for node in sorted(graph.nodes)], 0.0

    best = _optimize_partition(graph, m, rng=None)
    best_q = modularity(graph, best)
    for r in range(1, community_restarts(graph.node_count)):
        rng = random.Random(seed * 1_000_003 + r)
        width = 3 if r % 2 else 0
        candidate = _optimize_partition(graph, m, rng, greedy_width=width)
        q = modularity(graph, candidate)
        if q > best_q + _GAIN_EPS:
            best, best_q = candidate, q
    return best, best_q


def filter_bubble(graph: InteractionGraph, partition: Sequence[set[str]]) -> float:
    """Within-community interaction concentration minus its random baseline.

    Internal directed edge weight fraction, minus the sum of squared
    community size fractions.  Zero for the one-community partition; near
    zero when interactions mix freely across communities.
    """
    total = graph.total_weight()
    if total == 0:
        raise UndefinedMetricError("filter bubble needs at least one weighted edge")
    community_of: dict[str, int] = {}
    for idx, group in enumerate(partition):
        for node in group:
            community_of[node] = idx
    missing = [node for node in graph.nodes if node not in community_of]
    if missing:
        raise ValueError(f"partition does not cover nodes: {missing[:5]}")
    internal = 0
    for edge in graph.edges:
        if community_of[edge.source] == community_of[edge.target]:
            internal += edge.weight
    n = graph.node_count
    expected = sum((len(group) / n) ** 2 for group in partition)
    return internal / total - expected


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    nodes: int
    edges: int
    density: float | None = None
    clustering: float | None = None
    reciprocity: float | None = None
    avg_path_length: float | None = None
    in_degree_top: list[tuple[str, int]] = field(default_factory=list)
    out_degree_top: list[tuple[str, int]] = field(default_factory=list)
    assortativity: float | None = None
    modularity: float | None = None
    communities: list[list[str]] = field(default_factory=list)
    largest_community: int = 0
    filter_bubble: float | None = None
    reasons: dict[str, str] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The metric fields in field order, a ``<name>_reason`` per undefined
        metric, then the conventions and the config."""
        out = row_dict(self)
        reasons, config = out.pop("reasons"), out.pop("config")
        out.update((f"{name}_reason", reasons[name]) for name in sorted(reasons))
        out["conventions"] = dict(CONVENTIONS)
        out["config"] = dict(config)
        return out

    def to_json(self) -> str:
        return "".join(json_document(self.to_dict()))


def full_report(
    graph: InteractionGraph,
    seed: int = 0,
    degree_top_k: int = DEFAULT_DEGREE_TOP_K,
    config: dict | None = None,
) -> MetricsReport:
    """Run every metric, null-ing the undefined ones with a reason string."""
    report = MetricsReport(
        nodes=graph.node_count,
        edges=graph.edge_count,
        config=dict(config or {}),
    )

    def attempt(name: str, fn):
        try:
            return fn()
        except UndefinedMetricError as exc:
            report.reasons[name] = str(exc)
            return None

    report.density = attempt("density", lambda: density(graph))
    report.clustering = attempt("clustering", lambda: clustering(graph))
    report.reciprocity = attempt("reciprocity", lambda: reciprocity(graph))
    report.avg_path_length = attempt("avg_path_length", lambda: avg_path_length(graph))
    if graph.node_count:
        report.in_degree_top = degree_ranking(graph, "in", degree_top_k)
        report.out_degree_top = degree_ranking(graph, "out", degree_top_k)
    report.assortativity = attempt("assortativity", lambda: assortativity(graph))
    if graph.node_count:
        partition, q = communities(graph, seed)
        report.communities = [sorted(group) for group in partition]
        report.modularity = q
        report.largest_community = max(len(group) for group in partition)
        report.filter_bubble = attempt(
            "filter_bubble", lambda: filter_bubble(graph, partition)
        )
    else:
        report.reasons["modularity"] = "empty graph"
        report.reasons["filter_bubble"] = "empty graph"
    return report


def write_report(report: MetricsReport, path: str | Path) -> None:
    write_json(path, report.to_dict())
