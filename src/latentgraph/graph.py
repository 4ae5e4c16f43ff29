"""Directed weighted interaction graph over agents.

A graph snapshot is immutable: its nodes and the classified follow edges it
admitted, each weighted by the pair's interaction count
(``FollowEdge.weight``, its ``total_comments``).  Its undirected projection
(``InteractionGraph.projection``) is built once per graph, on first use, and
serves every undirected metric; ``InteractionGraph.csr`` holds the same
adjacency as int arrays, for the array kernels.  Exports are bit-stable:
nodes and edges are always written in sorted order so identical inputs
produce identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable
from xml.etree import ElementTree

import numpy as np

from .errors import DataError
from .inference import GRAPH_EDGES_CSV_FIELDS, FollowEdge, FollowStatus, load_edges_csv
from .ingest import atomic_write, open_input, write_csv


class EdgeClass(str, Enum):
    ALL = "all"
    FORSURE_ONLY = "forsure"
    MAYBE_ONLY = "maybe"

    def admits(self, status: FollowStatus) -> bool:
        if status is FollowStatus.NONE:
            return False
        if self is EdgeClass.ALL:
            return True
        if self is EdgeClass.FORSURE_ONLY:
            return status is FollowStatus.FORSURE
        return status is FollowStatus.MAYBE


def _by_pair(edge: FollowEdge) -> tuple[str, str]:
    return edge.source, edge.target


@dataclass(frozen=True)
class InteractionGraph:
    nodes: tuple[str, ...]
    edges: tuple[FollowEdge, ...]
    # Nodes kept even when no retained edge touches them (known agents).
    extra_nodes: tuple[str, ...] = ()

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)

    @cached_property
    def projection(self) -> dict[str, dict[str, float]]:
        """The undirected projection, built on first use and then shared:
        each node maps to ``{neighbour: weight}``, the float sum of the
        weights of both directed edges.  Readers must not mutate it."""
        adj: dict[str, dict[str, float]] = {node: {} for node in self.nodes}
        for edge in self.edges:
            w = float(edge.weight)
            adj[edge.source][edge.target] = adj[edge.source].get(edge.target, 0.0) + w
            adj[edge.target][edge.source] = adj[edge.target].get(edge.source, 0.0) + w
        return adj

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The projection as arrays over node codes, each node's rank in
        ``nodes``, built on first use: node ``i``'s neighbours, ascending,
        are ``indices[indptr[i]:indptr[i + 1]]``.  Returns ``(indptr,
        indices)``, int64 both."""
        code = {node: i for i, node in enumerate(self.nodes)}
        rows = [sorted(map(code.__getitem__, self.projection[node])) for node in self.nodes]
        indptr = np.fromiter(accumulate(map(len, rows), initial=0), np.int64, len(rows) + 1)
        return indptr, np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])


def _admits(edge: FollowEdge, include: EdgeClass = EdgeClass.ALL) -> bool:
    return include.admits(edge.status) and edge.source != edge.target and edge.weight >= 1


def build(
    edges: Iterable[FollowEdge],
    include: EdgeClass = EdgeClass.ALL,
    known_agents: Iterable[str] = (),
) -> InteractionGraph:
    """The graph of the admitted edges themselves, in (source, target) order.

    Only maybe/forsure edges can be retained; NONE pairs, self-loops and
    pairs without a comment never form edges.  Known agents are kept as
    isolated nodes so node counts line up with the agent roster.  Two
    retained edges of one (source, target) pair are a ValueError.
    """
    retained = sorted((e for e in edges if _admits(e, include)), key=_by_pair)
    for edge, following in zip(retained, retained[1:]):
        if _by_pair(edge) == _by_pair(following):
            raise ValueError(f"repeated edge {edge.source} -> {edge.target}")
    return _with_nodes(tuple(retained), tuple(sorted(set(known_agents))))


def apply_coverage(graph: InteractionGraph, fraction: float = 0.0001) -> InteractionGraph:
    """Keep edges whose weight is at least ``fraction`` of the total weight.

    The node set is recomputed from the surviving edges, preserving the
    isolated known agents the graph was built with.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"coverage fraction must be in [0, 1], got {fraction}")
    if fraction == 0.0:
        return graph
    threshold = fraction * graph.total_weight()
    kept = tuple(e for e in graph.edges if e.weight >= threshold)
    return _with_nodes(kept, graph.extra_nodes)


def _with_nodes(edges: tuple[FollowEdge, ...], extra_nodes: tuple[str, ...]) -> InteractionGraph:
    """The graph of ``edges``; its nodes are their endpoints and ``extra_nodes``."""
    nodes = set(extra_nodes).union(*((e.source, e.target) for e in edges))
    return InteractionGraph(tuple(sorted(nodes)), edges, extra_nodes)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def write_graph_edges_csv(graph: InteractionGraph, path: str | Path) -> None:
    write_csv(path, GRAPH_EDGES_CSV_FIELDS, map(attrgetter(*GRAPH_EDGES_CSV_FIELDS), graph.edges))


def _rebuild(source: str | Path, edges: list[FollowEdge], nodes: Iterable[str] = ()):
    """The graph ``build`` makes of a loaded file, which holds no edge ``build`` drops."""
    for edge in edges:
        if not _admits(edge):
            raise DataError(f"{source}: edge {edge.source!r} -> {edge.target!r} "
                            f"({edge.status.value}, weight {edge.weight}) is not a graph edge: "
                            "graphs hold maybe/forsure edges of weight >= 1 between two nodes")
    try:
        return build(edges, known_agents=nodes)
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from exc


def load_graph_edges_csv(path: str | Path) -> InteractionGraph:
    return _rebuild(path, load_edges_csv(path, weighted=True))


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _quoteattr(text: str) -> str:
    """``text`` as a quoted XML attribute value: escaped, with newline,
    carriage return and tab as character references, in double quotes unless
    it holds a double quote and no single one."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def write_graphml(graph: InteractionGraph, path: str | Path) -> None:
    """Hand-rolled GraphML writer so output stays byte-stable.

    Edges carry ``weight`` and ``status`` attributes.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="long"/>',
        '  <key id="status" for="edge" attr.name="status" attr.type="string"/>',
        '  <graph id="G" edgedefault="directed">',
    ]
    for node in graph.nodes:
        lines.append(f"    <node id={_quoteattr(node)}/>")
    for edge in graph.edges:
        lines.append(
            f"    <edge source={_quoteattr(edge.source)} target={_quoteattr(edge.target)}>"
        )
        lines.append(f'      <data key="weight">{edge.weight}</data>')
        lines.append(f'      <data key="status">{_escape(edge.status.value)}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _required(source: Path, value: str | None, missing: str) -> str:
    if value is None:
        raise DataError(f"{source}: {missing}")
    return value


def load_graphml(path: str | Path) -> InteractionGraph:
    """The graph of a GraphML file as ``write_graphml`` writes it: every node
    has an id, and every edge its source, target, weight and status."""
    source = Path(path)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    try:
        with open_input(source, "graph") as fh:
            tree = ElementTree.parse(fh)
    except ElementTree.ParseError as exc:
        raise DataError(f"{source}: not a readable GraphML file: {exc}") from exc
    graph_el = tree.getroot().find("g:graph", ns)
    if graph_el is None:
        raise DataError(f"{source}: no <graph> element")
    nodes = [_required(source, node_el.get("id"), "a <node> has no id")
             for node_el in graph_el.findall("g:node", ns)]
    edges = []
    for edge_el in graph_el.findall("g:edge", ns):
        ends = [_required(source, edge_el.get(end), f"an <edge> has no {end}")
                for end in ("source", "target")]
        data = {data_el.get("key"): data_el.text for data_el in edge_el.findall("g:data", ns)}
        weight, status = (_required(source, data.get(key), f"edge {ends[0]!r} -> {ends[1]!r} "
                                    f"has no {key} data") for key in ("weight", "status"))
        try:
            edges.append(FollowEdge(*ends, windows_hit=0, total_comments=int(weight),
                                    status=FollowStatus(status)))
        except ValueError as exc:
            raise DataError(f"{source}: bad edge data: {exc}") from exc
    undeclared = sorted({end for e in edges for end in (e.source, e.target)} - set(nodes))
    if undeclared:
        raise DataError(f"{source}: edge endpoints {undeclared} are not declared <node>s")
    return _rebuild(source, edges, nodes)


# Export suffixes ``write_graph`` knows.  ``write_graph`` and ``load_graph``
# call the format's function by its module name when they run, so a wrapped
# module attribute is honoured.
GRAPH_SUFFIXES = (".csv", ".graphml")


def write_graph(graph: InteractionGraph, path: str | Path) -> None:
    """``graph`` written in the format that ``path``'s suffix names: ``.csv``
    is the edge list, ``.graphml`` GraphML."""
    suffix = Path(path).suffix
    if suffix not in GRAPH_SUFFIXES:
        raise ValueError(f"cannot infer graph format from {Path(path).name!r}")
    (write_graph_edges_csv if suffix == ".csv" else write_graphml)(graph, path)


def load_graph(path: str | Path) -> InteractionGraph:
    """The graph of a file ``write_graph`` wrote, plain or ``.gz``: an edge
    list when its inner suffix is ``.csv``, GraphML otherwise."""
    inner = Path(path).with_suffix("") if Path(path).suffix == ".gz" else Path(path)
    return (load_graph_edges_csv if inner.suffix == ".csv" else load_graphml)(path)
