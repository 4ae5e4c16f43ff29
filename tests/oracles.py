"""Independent brute-force reference implementations used by the tests.

Each oracle deliberately takes a different computational route than the
library: window materialization instead of index arithmetic, Floyd-Warshall
instead of a bit-parallel BFS, triple loops instead of adjacency
intersection, exhaustive partition search instead of greedy merging, a greedy
modularity run that rebuilds its community-pair table after every merge
instead of updating it, path collection by dynamic programming instead of DFS
enumeration, a chain walk that enters every child instead of only those with
a sink in reach, term vectors from per-token counters instead of a bucket
table, the term table read one text at a time instead of in joined blocks,
CSV fields spelled one by one instead of by the csv encoder, edges.csv rows
read off each built edge instead of off the pair table's columns, k-means
centroids as the mean of each cluster's copied rows instead of sums of the
nonzeros, the record order as one key tuple per record instead of two stable
sorts, the record decoder that sends every field through its rule reader
instead of taking canonical lines at once, and stage files as ``json.dumps``
of each row's dict instead of a row template.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from latentgraph.chains import (
    DEFAULT_MAX_CHAINS_PER_POST,
    DEFAULT_MAX_DEPTH,
    InteractionChain,
    SemanticGraph,
)
from latentgraph.graph import InteractionGraph
from latentgraph.inference import (
    EDGES_CSV_FIELDS,
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    WindowGrid,
)
from latentgraph.ingest import (
    DELETED_AUTHOR,
    DELETION_MARKERS,
    FILTERS,
    RawRecord,
    RecordKind,
    StageSnapshot,
    _read_text,
    read_id,
    row_dict,
    write_csv,
)
from latentgraph.profiles import DEFAULT_DIM, TermTable, TextCounts


# ---------------------------------------------------------------------------
# Record order
# ---------------------------------------------------------------------------

def record_sort_key(rec: RawRecord) -> tuple[int, str]:
    """A record's place in the one order of records: (created_utc, id)
    ascending, ties left to a stable sort."""
    return (rec.created_utc, rec.id)


# ---------------------------------------------------------------------------
# Follow-relation classification
# ---------------------------------------------------------------------------

def oracle_classify(
    events: Sequence[InteractionEvent],
    grid: WindowGrid,
    maybe_min: int = 2,
    forsure_min: int = 3,
) -> FollowEdge:
    """Materialize every window as an explicit interval and count into it."""
    if not events:
        return FollowEdge(source="", target="", windows_hit=0, total_comments=0,
                          status=FollowStatus.NONE)
    counts = [0] * grid.n
    window_min_time: dict[int, int] = {}
    for event in events:
        for i in range(grid.n):
            lo = grid.origin + i * grid.window_len
            hi = lo + grid.window_len
            if lo <= event.time < hi:
                counts[i] += 1
                if i not in window_min_time or event.time < window_min_time[i]:
                    window_min_time[i] = event.time
                break
    windows_hit = sum(1 for c in counts if c > 0)
    if windows_hit >= forsure_min:
        status = FollowStatus.FORSURE
    elif windows_hit >= maybe_min:
        status = FollowStatus.MAYBE
    else:
        status = FollowStatus.NONE
    activation_times = sorted(window_min_time.values())
    maybe_time = activation_times[maybe_min - 1] if windows_hit >= maybe_min else None
    forsure_time = activation_times[forsure_min - 1] if windows_hit >= forsure_min else None
    times = [e.time for e in events]
    first_seen, last_seen = min(times), max(times)
    if status is FollowStatus.FORSURE:
        status_time = forsure_time
    elif status is FollowStatus.MAYBE:
        status_time = maybe_time
    else:
        status_time = first_seen
    return FollowEdge(
        source=events[0].source,
        target=events[0].target,
        windows_hit=windows_hit,
        total_comments=len(events),
        status=status,
        first_seen=first_seen,
        last_seen=last_seen,
        status_time=status_time,
        maybe_time=maybe_time,
        forsure_time=forsure_time,
    )


# ---------------------------------------------------------------------------
# Graph metric oracles
# ---------------------------------------------------------------------------

def _undirected_matrix(graph: InteractionGraph) -> tuple[list[str], np.ndarray]:
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for edge in graph.edges:
        a[index[edge.source], index[edge.target]] = 1.0
        a[index[edge.target], index[edge.source]] = 1.0
    return nodes, a


def oracle_density(graph: InteractionGraph) -> float:
    n = graph.node_count
    return graph.edge_count / (n * (n - 1))


def oracle_reciprocity(graph: InteractionGraph) -> float:
    pairs = [(e.source, e.target) for e in graph.edges]
    mutual = 0
    for u, v in pairs:
        for x, y in pairs:
            if (x, y) == (v, u):
                mutual += 1
                break
    return mutual / len(pairs)


def oracle_clustering(graph: InteractionGraph) -> float:
    nodes, a = _undirected_matrix(graph)
    n = len(nodes)
    total = 0.0
    for i in range(n):
        neighbors = [j for j in range(n) if a[i, j] > 0]
        d = len(neighbors)
        if d < 2:
            continue
        links = 0
        for x in range(n):
            for y in range(n):
                if x < y and a[i, x] > 0 and a[i, y] > 0 and a[x, y] > 0:
                    links += 1
        total += 2.0 * links / (d * (d - 1))
    return total / n


def oracle_path_sums(graph: InteractionGraph) -> tuple[int, int]:
    """(sum of the distances, count) over the ordered reachable pairs of
    distinct nodes: Floyd-Warshall all-pairs distances on the undirected
    projection."""
    _, a = _undirected_matrix(graph)
    n = a.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[a > 0] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    mask = np.isfinite(dist) & ~np.eye(n, dtype=bool)
    return int(dist[mask].sum()), int(mask.sum())


def oracle_avg_path_length(graph: InteractionGraph) -> float | None:
    """The mean distance over ordered reachable pairs; None without one."""
    total, pairs = oracle_path_sums(graph)
    return total / pairs if pairs else None


def oracle_triangle_count(graph: InteractionGraph) -> int:
    nodes, a = _undirected_matrix(graph)
    n = len(nodes)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if a[i, j] > 0 and a[i, k] > 0 and a[j, k] > 0:
                    count += 1
    return count


def oracle_assortativity(graph: InteractionGraph) -> float | None:
    nodes, a = _undirected_matrix(graph)
    degree = a.sum(axis=1)
    xs, ys = [], []
    n = len(nodes)
    for i in range(n):
        for j in range(n):
            if i < j and a[i, j] > 0:
                xs.extend([degree[i], degree[j]])
                ys.extend([degree[j], degree[i]])
    if not xs or np.var(xs) == 0 or np.var(ys) == 0:
        return None
    return float(np.corrcoef(xs, ys)[0, 1])


# ---------------------------------------------------------------------------
# Modularity by exhaustive search
# ---------------------------------------------------------------------------

def oracle_pair_weights(graph: InteractionGraph) -> dict[tuple[str, str], float]:
    """Projection weight per sorted node pair: the float sum of both directions."""
    weights: dict[tuple[str, str], float] = {}
    for edge in graph.edges:
        pair = tuple(sorted((edge.source, edge.target)))
        weights[pair] = weights.get(pair, 0.0) + float(edge.weight)
    return weights


def oracle_projection(graph: InteractionGraph) -> dict[str, dict[str, float]]:
    """The undirected projection as nested dicts, from ``oracle_pair_weights``."""
    adj: dict[str, dict[str, float]] = {node: {} for node in graph.nodes}
    for (u, v), w in oracle_pair_weights(graph).items():
        adj[u][v] = adj[v][u] = w
    return adj


def oracle_modularity(graph: InteractionGraph, partition: Sequence[set[str]]) -> float:
    """Q from the matrix definition on the weighted undirected projection."""
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n))
    for edge in graph.edges:
        a[index[edge.source], index[edge.target]] += edge.weight
        a[index[edge.target], index[edge.source]] += edge.weight
    two_m = a.sum()
    if two_m == 0:
        return 0.0
    k = a.sum(axis=1)
    community = np.zeros(n, dtype=int)
    for c, group in enumerate(partition):
        for node in group:
            community[index[node]] = c
    q = 0.0
    for i in range(n):
        for j in range(n):
            if community[i] == community[j]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def set_partitions(items: Sequence[str]):
    """All partitions of a set (restricted-growth strings)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {first}] + smaller[i + 1:]
        yield smaller + [{first}]


def oracle_best_partition(graph: InteractionGraph) -> tuple[list[set[str]], float]:
    best_q = float("-inf")
    best: list[set[str]] = [set(graph.nodes)]
    for partition in set_partitions(list(graph.nodes)):
        q = oracle_modularity(graph, partition)
        if q > best_q:
            best_q = q
            best = partition
    return best, best_q


# ---------------------------------------------------------------------------
# Greedy modularity, rebuilding the community-pair table after every merge
# ---------------------------------------------------------------------------

_GAIN_EPS = 1e-12


class _ReferenceState:
    """Partition bookkeeping, communities keyed by their smallest member."""

    def __init__(self, graph: InteractionGraph, weights: Mapping[tuple[str, str], float]):
        self.adj: dict[str, dict[str, float]] = {node: {} for node in graph.nodes}
        self.k: dict[str, float] = {node: 0.0 for node in graph.nodes}
        for (u, v), w in weights.items():
            self.adj[u][v] = self.adj[u].get(v, 0.0) + w
            self.adj[v][u] = self.adj[v].get(u, 0.0) + w
            self.k[u] += w
            self.k[v] += w
        self.com_of: dict[str, str] = {node: node for node in graph.nodes}
        self.members: dict[str, set[str]] = {node: {node} for node in graph.nodes}
        self.deg: dict[str, float] = {node: self.k[node] for node in graph.nodes}

    def between(self) -> dict[tuple[str, str], float]:
        table: dict[tuple[str, str], float] = {}
        for u, nbrs in self.adj.items():
            cu = self.com_of[u]
            for v, w in nbrs.items():
                if u >= v:
                    continue
                cv = self.com_of[v]
                if cu == cv:
                    continue
                key = (cu, cv) if cu <= cv else (cv, cu)
                table[key] = table.get(key, 0.0) + w
        return table

    def merge(self, a: str, b: str) -> None:
        keep, gone = (a, b) if a <= b else (b, a)
        for node in self.members[gone]:
            self.com_of[node] = keep
        self.members[keep] |= self.members.pop(gone)
        self.deg[keep] += self.deg.pop(gone)

    def move(self, node: str, dest: str | None) -> None:
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
        if dest is None:
            self.com_of[node] = node
            self.members[node] = {node}
            self.deg[node] = self.k[node]
            return
        self.com_of[node] = dest
        self.members[dest].add(node)
        self.deg[dest] += self.k[node]
        if node < dest:
            self.members[node] = self.members.pop(dest)
            self.deg[node] = self.deg.pop(dest)
            for other in self.members[node]:
                self.com_of[other] = node


def oracle_optimize_partition(
    graph: InteractionGraph,
    weights: Mapping[tuple[str, str], float],
    m: float,
    rng: random.Random | None,
    greedy_width: int = 3,
) -> list[set[str]]:
    """One greedy run that rescans every edge and re-sorts every pair per merge."""
    state = _ReferenceState(graph, weights)

    def merge_phase() -> bool:
        changed = False
        while True:
            between = state.between()
            scored = []
            for a, b in sorted(between):
                gain = between[(a, b)] / m - (state.deg[a] * state.deg[b]) / (2.0 * m * m)
                if gain > _GAIN_EPS:
                    scored.append((gain, (a, b)))
            if not scored:
                return changed
            scored.sort(key=lambda item: (-item[0], item[1]))
            if rng is None:
                pair = scored[0][1]
            elif greedy_width == 0:
                pair = rng.choice(scored)[1]
            else:
                pair = rng.choice(scored[: min(greedy_width, len(scored))])[1]
            state.merge(*pair)
            changed = True

    def move_phase() -> bool:
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
                found = False
                candidates: list[str | None] = sorted(c for c in w_to if c != src)
                if len(state.members[src]) > 1:
                    candidates.append(None)
                for dest in candidates:
                    w_dest = w_to.get(dest, 0.0) if dest is not None else 0.0
                    d_dest = state.deg[dest] if dest is not None else 0.0
                    dq = (w_dest - w_src) / m - k_node * (
                        d_dest - d_src + k_node
                    ) / (2.0 * m * m)
                    if dq > best_dq:
                        best_dq = dq
                        best_dest = dest
                        found = True
                if found:
                    state.move(node, best_dest)
                    moved = True
                    changed = True
            if not moved:
                return changed

    while True:
        any_change = merge_phase()
        any_change |= move_phase()
        if not any_change:
            break
    return [state.members[key] for key in sorted(state.members)]


# ---------------------------------------------------------------------------
# Maximal path enumeration
# ---------------------------------------------------------------------------

def oracle_maximal_paths(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, ...]]:
    """All maximal source-to-sink paths of a DAG, via path DP per node."""
    children = {i: sorted(j for (x, j) in edges if x == i) for i in range(n)}
    indegree = {i: sum(1 for (_, y) in edges if y == i) for i in range(n)}
    memo: dict[int, list[tuple[int, ...]]] = {}

    def paths_from(node: int) -> list[tuple[int, ...]]:
        if node in memo:
            return memo[node]
        if not children[node]:
            memo[node] = [(node,)]
        else:
            out = []
            for child in children[node]:
                out.extend((node,) + tail for tail in paths_from(child))
            memo[node] = out
        return memo[node]

    result: set[tuple[int, ...]] = set()
    for node in range(n):
        if indegree[node] == 0:
            for path in paths_from(node):
                if len(path) > 1:
                    result.add(path)
    return result


def oracle_linearize(
    graph: SemanticGraph,
    max_chains: int = DEFAULT_MAX_CHAINS_PER_POST,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[InteractionChain]:
    """The unpruned depth-first walk: it enters every child while the path
    is at most ``max_depth`` edges long, and emits the first ``max_chains``
    maximal chains of at most ``max_depth`` edges, children in id order."""
    indegree = [0] * len(graph.nodes)
    for succ in graph.children:
        for j in succ:
            indegree[j] += 1
    chains: list[InteractionChain] = []
    path: list[int] = []

    def visit(node: int) -> None:
        path.append(node)
        succ = graph.children[node]
        if not succ:
            chains.append(InteractionChain(graph.post_id, tuple(graph.nodes[i] for i in path)))
        elif len(path) <= max_depth:
            for child in succ:
                if len(chains) < max_chains:
                    visit(child)
        path.pop()

    for source, succ in enumerate(graph.children):
        if succ and not indegree[source] and len(chains) < max_chains:
            visit(source)
    return chains


# ---------------------------------------------------------------------------
# Spherical k-means
# ---------------------------------------------------------------------------

def oracle_dot(row: np.ndarray, vec: np.ndarray) -> float:
    """The documented k-means dot product: the row's nonzero entries times
    ``vec``'s, added left to right in bucket order, from 0.0."""
    total = 0.0
    for bucket in np.flatnonzero(row):
        total += float(row[bucket]) * float(vec[bucket])
    return total


def oracle_kmeans(matrix: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(assignment, centroids, revivals) of ``profiles.cluster_users``' k-means
    over the rows of ``matrix`` (all nonzero): k-means++ seeding on squared
    cosine distance, then every similarity an ``oracle_dot`` and each
    centroid update the normalized ``rows.mean(axis=0)`` of a copy of its
    cluster's rows; ``revivals`` counts the empty clusters refilled along
    the way."""
    from latentgraph.profiles import KMEANS_MAX_ITER

    n = len(matrix)
    rng = np.random.default_rng(seed)

    def distances(center: int) -> np.ndarray:
        sims = np.array([oracle_dot(row, matrix[center]) for row in matrix])
        return np.maximum(2.0 - 2.0 * sims, 0.0)

    chosen = [int(rng.integers(n))]
    dist = distances(chosen[0])
    for _ in range(1, k):
        total = float(dist.sum())
        if total <= 0.0:
            nxt = min(set(range(n)) - set(chosen))
        else:
            nxt = int(rng.choice(n, p=dist / total))
        chosen.append(nxt)
        dist = np.minimum(dist, distances(nxt))
    centroids = matrix[chosen].copy()

    assign = np.full(n, -1, dtype=np.int64)
    revivals = 0
    for _ in range(KMEANS_MAX_ITER):
        sims = np.array([[oracle_dot(row, c) for c in centroids] for row in matrix])
        new_assign = np.argmax(sims, axis=1)
        for cluster in range(k):
            if not np.any(new_assign == cluster):
                sizes = Counter(new_assign.tolist())
                loner = min((i for i in range(n) if sizes[int(new_assign[i])] > 1),
                            key=lambda i: sims[i, new_assign[i]])
                new_assign[loner] = cluster
                sims[loner, :] = 2.0
                revivals += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cluster in range(k):
            rows = matrix[assign == cluster]
            if len(rows):
                mean = rows.mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cluster] = mean / norm if norm > 0 else mean
    return assign, centroids, revivals


# ---------------------------------------------------------------------------
# Hashed term vectors
# ---------------------------------------------------------------------------

# Under re.ASCII, [^\W_] is [A-Za-z0-9]; lowercased text holds no A-Z.
_WORD = re.compile(r"[^\W_]+", re.ASCII)


def oracle_fnv1a(data: bytes) -> int:
    """FNV-1a 64-bit, from the published offset basis and prime."""
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % (2**64)
    return h


def oracle_term_vector(texts: Sequence[str], dim: int = 4096) -> np.ndarray:
    """The L2-normalized hashed term frequencies of ``texts``: each distinct
    token's count lands in its FNV-1a bucket; no token gives the zero vector."""
    tokens = Counter(token for text in texts for token in _WORD.findall(text.lower()))
    buckets: Counter = Counter()
    for token, n in tokens.items():
        buckets[oracle_fnv1a(token.encode("utf-8")) % dim] += n
    vec = np.zeros(dim)
    if buckets:
        # The squared norm is an exact integer, so its root is the one rounding.
        norm = math.sqrt(sum(n * n for n in buckets.values()))
        for bucket, n in buckets.items():
            vec[bucket] = n / norm
    return vec


def oracle_term_counts(texts: Sequence[str], rows: Sequence[int], owners: Sequence[int],
                       dim: int) -> list[tuple[int, int, int]]:
    """The sorted (owner, bucket, count) triples: each token of ``texts[row]``
    counted one at a time in its FNV-1a bucket under that row's owner."""
    counts: Counter = Counter()
    for row, owner in zip(rows, owners):
        for token in _WORD.findall(texts[row].lower()):
            counts[owner, oracle_fnv1a(token.encode("utf-8")) % dim] += 1
    return sorted((owner, bucket, n) for (owner, bucket), n in counts.items())


_TOKEN = re.compile(r"[a-z0-9]+")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def oracle_term_table(
    records: Sequence[RawRecord],
    dim: int = DEFAULT_DIM,
    lexicon: Mapping[str, str] | None = None,
) -> tuple[TermTable, dict[int, Counter], dict[str, TextCounts]]:
    """``profiles.term_table`` one record at a time: one ``findall`` per
    text for its tokens, one split per stripped text for its sentences, and
    one running tally per author."""
    lexicon = lexicon or {}
    id_of: dict[str, int] = {}
    token_ids: list[int] = []
    offsets = [0]
    tallies: dict[str, list] = {}  # author -> [tokens, sentences, questions, exclamations, hits]
    for rec in records:
        tokens = _TOKEN.findall(rec.text.lower())
        token_ids.extend(id_of.setdefault(token, len(id_of)) for token in tokens)
        offsets.append(len(token_ids))
        tally = tallies.setdefault(rec.author, [0, 0, 0, 0, Counter()])
        tally[0] += len(tokens)
        for segment in _SENTENCE_SPLIT.split(rec.text.strip()):
            if segment:
                tally[1] += 1
                tally[2] += segment.endswith("?")
                tally[3] += segment.endswith("!")
        tally[4].update(lexicon[t] for t in tokens if t in lexicon)
    bucket_of_id = [oracle_fnv1a(token.encode("utf-8")) % dim for token in id_of]
    totals = Counter(token_ids)
    vocab: dict[int, Counter] = {}
    for token, token_id in id_of.items():
        vocab.setdefault(bucket_of_id[token_id], Counter())[token] = totals[token_id]
    users = tuple(sorted(tallies))
    index = {user: i for i, user in enumerate(users)}
    table = TermTable(dim, np.array([bucket_of_id[i] for i in token_ids], dtype=np.int32),
                      np.array(offsets, dtype=np.int64), users,
                      np.array([index[rec.author] for rec in records], dtype=np.int32))
    return table, vocab, {user: TextCounts(*tallies[user]) for user in users}


# ---------------------------------------------------------------------------
# CSV artifact spelling
# ---------------------------------------------------------------------------

def oracle_csv_field(value: object) -> str:
    """One field as the CSV artifacts spell it: None as "", a float by its
    repr, an int in decimal, a status by its value, a string as itself."""
    if value is None:
        return ""
    if isinstance(value, FollowStatus):
        return value.value
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise TypeError(f"no CSV spelling for {value!r}")


def _oracle_csv_quote(text: str) -> str:
    """A field holding a comma, a quote, "\r" or "\n" is quoted, its quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def oracle_csv_bytes(header: Sequence[str], rows: Sequence[Sequence[object]]) -> bytes:
    """The bytes of a CSV artifact: the header, then each row's fields spelled
    and quoted one by one, with "\n" line ends, in UTF-8."""
    lines = [header, *([oracle_csv_field(value) for value in row] for row in rows)]
    return "".join(",".join(map(_oracle_csv_quote, line)) + "\n" for line in lines).encode("utf-8")


def oracle_write_edges_csv(edges: Iterable[FollowEdge], path: Path) -> None:
    """The per-edge edges.csv writer: every edge built first, then its
    ``EDGES_CSV_FIELDS`` read off by name."""
    write_csv(path, EDGES_CSV_FIELDS, map(attrgetter(*EDGES_CSV_FIELDS), list(edges)))


# ---------------------------------------------------------------------------
# Stage-0 codec
# ---------------------------------------------------------------------------

def _oracle_read_fullname(obj: dict, key: str) -> str:
    value = read_id(obj, key)
    bare = value[3:] if value.startswith(("t1_", "t3_")) else value
    if bare:
        return bare
    raise ValueError(f"{key} {value!r} names no post or comment")


def _oracle_read_time(obj: dict, key: str) -> int:
    """``obj[key]`` as positive whole seconds, read without the package's
    reader: a string of ASCII digits, with an optional leading "-" and an
    optional "." followed by zeros only, or a float with no fraction, reads
    as its int; then only an int that is not a bool and is above 0 passes."""
    value = obj.get(key)
    if isinstance(value, str):
        digits, _, zeros = value.removeprefix("-").partition(".")
        if digits and set(digits) <= set("0123456789") and set(zeros) <= {"0"}:
            value = int(value.partition(".")[0])
    elif isinstance(value, float) and math.isfinite(value) and value == math.floor(value):
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value > 0:
        return value
    raise ValueError(f"{key} must be a positive whole number, got {value!r}")


def oracle_decode_record(obj: object, dump_kind: RecordKind | None = None) -> RawRecord:
    """The record decoder with no guard: every field goes through its rule
    reader, in the rules' order, so every error message is the reader's."""
    if not isinstance(obj, dict) or "author" not in obj:
        raise ValueError(f"not a record with an author: {obj!r:.80}")
    kind = dump_kind or RecordKind(obj.get("kind"))
    if dump_kind is None:
        text = _read_text(obj, "text")
    elif kind is RecordKind.POST:
        selftext = _read_text(obj, "selftext")
        parts = (_read_text(obj, "title"), "" if selftext.strip() in DELETION_MARKERS else selftext)
        text = " ".join(part for part in parts if part)
    else:
        text = _read_text(obj, "body")
    created = _oracle_read_time(obj, "created_utc")
    links = (None, None)
    if kind is RecordKind.COMMENT:
        read_link = read_id if dump_kind is None else _oracle_read_fullname
        links = (sys.intern(read_link(obj, "link_id")), sys.intern(read_link(obj, "parent_id")))
    return RawRecord(
        id=read_id(obj, "id"),
        kind=kind,
        author=DELETED_AUTHOR if obj["author"] is None else sys.intern(read_id(obj, "author")),
        created_utc=created,
        text=text,
        subreddit=sys.intern(_read_text(obj, "subreddit")),
        link_id=links[0],
        parent_id=links[1],
    )


def oracle_stage_text(snap: StageSnapshot) -> str:
    """A stage's record file, each row's dict through ``json.dumps``: for stage
    0 every ledger record, for a later stage a ``{"kind", "id", "reason"}`` row
    per record that a filter of it removed, filter by filter in ledger order."""
    ledger = snap.ledger
    if snap.stage_id == 0:
        rows = [row_dict(rec) for rec in ledger.records]
    else:
        rows = [{"kind": rec.kind, "id": rec.id, "reason": FILTERS[code][1]}
                for code in snap.codes
                for rec, rec_code in zip(ledger.records, ledger.codes.tolist()) if rec_code == code]
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Random fixtures
# ---------------------------------------------------------------------------

def make_graph(
    edge_pairs: Sequence[tuple[str, str]],
    nodes: Sequence[str] = (),
    weights: Sequence[int] | None = None,
    statuses: Sequence[FollowStatus] | None = None,
) -> InteractionGraph:
    """Small literal graph builder for fixtures."""
    edges = []
    for i, (u, v) in enumerate(edge_pairs):
        edges.append(
            FollowEdge(
                source=u,
                target=v,
                windows_hit=0,
                total_comments=weights[i] if weights else 1,
                status=statuses[i] if statuses else FollowStatus.MAYBE,
            )
        )
    edges.sort(key=lambda e: (e.source, e.target))
    all_nodes = set(nodes)
    for edge in edges:
        all_nodes.add(edge.source)
        all_nodes.add(edge.target)
    return InteractionGraph(nodes=tuple(sorted(all_nodes)), edges=tuple(edges))


def random_digraph(rng: random.Random, n: int, p: float) -> InteractionGraph:
    """Random directed graph wrapped as an InteractionGraph."""
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = []
    for u, v in itertools.permutations(nodes, 2):
        if rng.random() < p:
            status = rng.choice([FollowStatus.MAYBE, FollowStatus.FORSURE])
            weight = rng.randint(1, 9)
            edges.append(
                FollowEdge(source=u, target=v, windows_hit=0, total_comments=weight,
                           status=status)
            )
    edges.sort(key=lambda e: (e.source, e.target))
    return InteractionGraph(nodes=tuple(nodes), edges=tuple(edges))
