"""Directed weighted interaction graph over agents.

A graph snapshot is immutable: nodes, classified edges with weights (the
total interaction count of the pair), and the edge-class filter it was built
with.  Exports are bit-stable: nodes and edges are always written in sorted
order so identical inputs produce identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .errors import DataError
from .inference import EDGES_CSV_FIELDS, FollowEdge, FollowStatus
from .ingest import atomic_write


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


class ExportFormat(str, Enum):
    EDGES_CSV = "edges_csv"
    GRAPHML = "graphml"
    DOT = "dot"


@dataclass(frozen=True)
class GraphEdge:
    """One directed edge of a built graph; weight is the interaction count."""

    source: str
    target: str
    status: FollowStatus
    weight: int
    windows_hit: int = 0
    total_comments: int = 0
    first_seen: int | None = None
    last_seen: int | None = None
    status_time: int | None = None


@dataclass(frozen=True)
class InteractionGraph:
    nodes: tuple[str, ...]
    edges: tuple[GraphEdge, ...]
    edge_class_filter: EdgeClass
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


def build(
    edges: Iterable[FollowEdge],
    include: EdgeClass = EdgeClass.ALL,
    known_agents: Iterable[str] = (),
) -> InteractionGraph:
    """Materialize the graph from classified edges.

    Only maybe/forsure edges can be retained; NONE pairs never form edges.
    Known agents are kept as isolated nodes so node counts line up with the
    agent roster.
    """
    retained = []
    for edge in edges:
        if not include.admits(edge.status):
            continue
        if edge.source == edge.target:
            continue  # graph snapshots never carry self-loops
        weight = edge.total_comments
        if weight < 1:
            continue
        retained.append(
            GraphEdge(
                source=edge.source,
                target=edge.target,
                status=edge.status,
                weight=weight,
                windows_hit=edge.windows_hit,
                total_comments=edge.total_comments,
                first_seen=edge.first_seen,
                last_seen=edge.last_seen,
                status_time=edge.status_time,
            )
        )
    retained.sort(key=lambda e: (e.source, e.target))
    extra = tuple(sorted(set(known_agents)))
    nodes = set(extra)
    for edge in retained:
        nodes.add(edge.source)
        nodes.add(edge.target)
    return InteractionGraph(
        nodes=tuple(sorted(nodes)),
        edges=tuple(retained),
        edge_class_filter=include,
        extra_nodes=extra,
    )


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
    nodes = set(graph.extra_nodes)
    for edge in kept:
        nodes.add(edge.source)
        nodes.add(edge.target)
    return replace(graph, nodes=tuple(sorted(nodes)), edges=kept)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def _opt(value: int | None) -> str:
    return "" if value is None else str(value)


def write_graph_edges_csv(graph: InteractionGraph, path: str | Path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EDGES_CSV_FIELDS + ["weight"])
        for edge in graph.edges:
            writer.writerow(
                [
                    edge.source,
                    edge.target,
                    edge.status.value,
                    edge.windows_hit,
                    edge.total_comments,
                    _opt(edge.first_seen),
                    _opt(edge.last_seen),
                    _opt(edge.status_time),
                    edge.weight,
                ]
            )


def load_graph_edges_csv(
    path: str | Path, edge_class: EdgeClass = EdgeClass.ALL
) -> InteractionGraph:
    source = Path(path)
    if not source.exists():
        raise DataError(f"graph edges file not found: {source}")
    edges = []
    with open(source, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        needed = set(EDGES_CSV_FIELDS) | {"weight"}
        missing = needed - set(reader.fieldnames or [])
        if missing:
            raise DataError(f"{source}: missing graph edge columns {sorted(missing)}")
        for row in reader:
            edges.append(
                GraphEdge(
                    source=row["source"],
                    target=row["target"],
                    status=FollowStatus(row["status"]),
                    weight=int(row["weight"]),
                    windows_hit=int(row["windows_hit"] or 0),
                    total_comments=int(row["total_comments"] or 0),
                    first_seen=int(row["first_seen"]) if row["first_seen"] else None,
                    last_seen=int(row["last_seen"]) if row["last_seen"] else None,
                    status_time=int(row["status_time"]) if row["status_time"] else None,
                )
            )
    edges.sort(key=lambda e: (e.source, e.target))
    nodes = sorted({e.source for e in edges} | {e.target for e in edges})
    return InteractionGraph(
        nodes=tuple(nodes), edges=tuple(edges), edge_class_filter=edge_class
    )


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
        lines.append(f"    <node id={quoteattr(node)}/>")
    for edge in graph.edges:
        lines.append(
            f"    <edge source={quoteattr(edge.source)} target={quoteattr(edge.target)}>"
        )
        lines.append(f'      <data key="weight">{edge.weight}</data>')
        lines.append(f'      <data key="status">{escape(edge.status.value)}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_graphml(path: str | Path) -> InteractionGraph:
    source = Path(path)
    if not source.exists():
        raise DataError(f"graph file not found: {source}")
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    try:
        tree = ElementTree.parse(source)
    except ElementTree.ParseError as exc:
        raise DataError(f"{source}: not a readable GraphML file: {exc}") from exc
    graph_el = tree.getroot().find("g:graph", ns)
    if graph_el is None:
        raise DataError(f"{source}: no <graph> element")
    nodes = []
    edges = []
    for node_el in graph_el.findall("g:node", ns):
        nodes.append(node_el.get("id") or "")
    for edge_el in graph_el.findall("g:edge", ns):
        weight = 1
        status = FollowStatus.MAYBE
        for data_el in edge_el.findall("g:data", ns):
            if data_el.get("key") == "weight":
                weight = int(data_el.text or "1")
            elif data_el.get("key") == "status":
                status = FollowStatus(data_el.text or "maybe")
        edges.append(
            GraphEdge(
                source=edge_el.get("source") or "",
                target=edge_el.get("target") or "",
                status=status,
                weight=weight,
                total_comments=weight,
            )
        )
    edges.sort(key=lambda e: (e.source, e.target))
    return InteractionGraph(
        nodes=tuple(sorted(nodes)), edges=tuple(edges), edge_class_filter=EdgeClass.ALL
    )


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: InteractionGraph, path: str | Path) -> None:
    lines = ["digraph interactions {"]
    for node in graph.nodes:
        lines.append(f"  {_dot_quote(node)};")
    for edge in graph.edges:
        lines.append(
            f"  {_dot_quote(edge.source)} -> {_dot_quote(edge.target)} "
            f'[weight={edge.weight}, status="{edge.status.value}"];'
        )
    lines.append("}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def export(graph: InteractionGraph, fmt: ExportFormat | str, path: str | Path) -> None:
    """Write the graph in the requested format (sorted, reproducible)."""
    try:
        fmt = ExportFormat(fmt)
    except ValueError:
        raise ValueError(f"unknown export format: {fmt!r}") from None
    if fmt is ExportFormat.EDGES_CSV:
        write_graph_edges_csv(graph, path)
    elif fmt is ExportFormat.GRAPHML:
        write_graphml(graph, path)
    else:
        write_dot(graph, path)
