import gzip
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

from latentgraph import graph as graphmod
from latentgraph.errors import DataError
from latentgraph.graph import (
    EdgeClass,
    InteractionGraph,
    apply_coverage,
    build,
    load_graph,
    load_graph_edges_csv,
    load_graphml,
    write_graph,
    write_graph_edges_csv,
    write_graphml,
)
from latentgraph.inference import FollowEdge, FollowStatus, load_edges_csv
from oracles import oracle_write_edges_csv


def follow_edge(src, tgt, status, total=1, windows=1, first=10):
    return FollowEdge(
        source=src, target=tgt, windows_hit=windows, total_comments=total,
        status=status, first_seen=first, last_seen=first + 100,
        status_time=first + 50,
    )


MAYBE, FORSURE, NONE = FollowStatus.MAYBE, FollowStatus.FORSURE, FollowStatus.NONE

# Node names that need CSV quoting, so round trips cover the quoting too.
NAMES = st.sampled_from(["A", "B", "c d", 'q"x', "e,f", "n\nl"])
OPT_TIME = st.none() | st.integers(min_value=0, max_value=2**40)
EDGE = st.builds(
    FollowEdge,
    source=NAMES,
    target=NAMES,
    windows_hit=st.integers(min_value=0, max_value=50),
    total_comments=st.integers(min_value=0, max_value=50),
    status=st.sampled_from(list(FollowStatus)),
    first_seen=OPT_TIME,
    last_seen=OPT_TIME,
    status_time=OPT_TIME,
)
# What inference writes: one row per (source, target) pair.
PAIR_EDGES = st.lists(EDGE, max_size=25, unique_by=lambda e: (e.source, e.target))


def written_fields(edge):
    """Every field an edge CSV row carries."""
    return (edge.source, edge.target, edge.status, edge.windows_hit, edge.total_comments,
            edge.first_seen, edge.last_seen, edge.status_time)


class TestBuild:
    def test_class_filter(self):
        edges = [follow_edge("A", "B", FORSURE), follow_edge("C", "D", MAYBE)]
        g = build(edges, EdgeClass.FORSURE_ONLY)
        assert g.edge_count == 1
        assert {"A", "B"} <= set(g.nodes)
        assert g.edges[0].source == "A"

    def test_none_status_never_included(self):
        edges = [follow_edge("A", "B", NONE), follow_edge("B", "C", MAYBE)]
        g = build(edges, EdgeClass.ALL)
        assert [(e.source, e.target) for e in g.edges] == [("B", "C")]

    def test_empty(self):
        g = build([], EdgeClass.ALL)
        assert g.node_count == 0 and g.edge_count == 0

    def test_isolated_known_agents_kept(self):
        edges = [follow_edge("A", "B", MAYBE)]
        g = build(edges, EdgeClass.ALL, known_agents=["A", "B", "Z"])
        assert g.nodes == ("A", "B", "Z")
        g2 = build(edges, EdgeClass.ALL)
        assert g2.nodes == ("A", "B")

    def test_weight_is_interaction_count(self):
        g = build([follow_edge("A", "B", MAYBE, total=7)], EdgeClass.ALL)
        assert g.edges[0].weight == 7
        assert g.total_weight() == 7

    def test_filter_nesting(self):
        rng = random.Random(0)
        pairs = rng.sample([(f"n{i}", f"m{j}") for i in range(10) for j in range(10)], 40)
        edges = [follow_edge(source, target, rng.choice([MAYBE, FORSURE, NONE]),
                             total=rng.randint(1, 5)) for source, target in pairs]
        all_set = {(e.source, e.target) for e in build(edges, EdgeClass.ALL).edges}
        forsure_set = {(e.source, e.target) for e in build(edges, EdgeClass.FORSURE_ONLY).edges}
        maybe_set = {(e.source, e.target) for e in build(edges, EdgeClass.MAYBE_ONLY).edges}
        assert forsure_set <= all_set
        assert maybe_set <= all_set
        assert forsure_set | maybe_set == all_set

    def test_repeated_pair_is_refused(self):
        with pytest.raises(ValueError, match="repeated edge A -> B"):
            build([follow_edge("A", "B", MAYBE), follow_edge("C", "D", MAYBE),
                   follow_edge("A", "B", FORSURE)])
        # Only retained edges count: a NONE row beside its pair's edge is dropped.
        g = build([follow_edge("A", "B", NONE), follow_edge("A", "B", MAYBE)])
        assert [e.status for e in g.edges] == [MAYBE]
        assert build([follow_edge("A", "B", MAYBE), follow_edge("A", "B", FORSURE)],
                     EdgeClass.FORSURE_ONLY).edge_count == 1


@settings(max_examples=100, deadline=None)
@given(PAIR_EDGES, st.sampled_from(list(EdgeClass)))
def test_build_keeps_the_admitted_input_edges(edges, include):
    admitted = sorted(
        (e for e in edges
         if include.admits(e.status) and e.source != e.target and e.total_comments >= 1),
        key=lambda e: (e.source, e.target),
    )
    got = build(edges, include).edges
    assert len(got) == len(admitted)
    assert all(g is a for g, a in zip(got, admitted))
    assert all(e.weight == e.total_comments for e in got)


@settings(max_examples=50, deadline=None)
@given(PAIR_EDGES)
def test_edge_csvs_round_trip_every_written_field(tmp_path_factory, edges):
    base = tmp_path_factory.mktemp("round")
    oracle_write_edges_csv(edges, base / "edges.csv")
    assert [written_fields(e) for e in load_edges_csv(base / "edges.csv")] == [
        written_fields(e) for e in edges
    ]
    graph = build(edges, EdgeClass.ALL)
    write_graph_edges_csv(graph, base / "graph.edges.csv")
    loaded = load_graph_edges_csv(base / "graph.edges.csv")
    assert loaded.nodes == graph.nodes
    assert [written_fields(e) for e in loaded.edges] == [written_fields(e) for e in graph.edges]


class TestCoverage:
    def graph_with_weights(self, weights):
        edges = [
            follow_edge("a", f"b{i}", MAYBE, total=w) for i, w in enumerate(weights)
        ]
        return build(edges, EdgeClass.ALL)

    def test_zero_fraction_identity(self):
        g = self.graph_with_weights([5, 3, 2])
        assert apply_coverage(g, 0.0) is g

    def test_full_fraction_keeps_only_total_mass(self):
        g = self.graph_with_weights([5, 3, 2])
        assert apply_coverage(g, 1.0).edge_count == 0
        lone = self.graph_with_weights([4])
        assert apply_coverage(lone, 1.0).edge_count == 1

    def test_arithmetic_fixture(self):
        g = self.graph_with_weights([50, 30, 15, 5])
        covered = apply_coverage(g, 0.1)  # threshold = 10
        assert sorted(e.weight for e in covered.edges) == [15, 30, 50]

    def test_node_set_recomputed(self):
        g = self.graph_with_weights([50, 1])
        covered = apply_coverage(g, 0.5)
        assert covered.edge_count == 1
        assert set(covered.nodes) == {"a", "b0"}

    def test_isolated_agents_survive_coverage(self):
        edges = [follow_edge("A", "B", MAYBE, total=1),
                 follow_edge("C", "D", MAYBE, total=99)]
        g = build(edges, EdgeClass.ALL, known_agents=["A", "B", "C", "D", "E"])
        covered = apply_coverage(g, 0.5)
        assert covered.nodes == ("A", "B", "C", "D", "E")
        assert covered.edge_count == 1

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            apply_coverage(self.graph_with_weights([1]), 1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_fraction(self, weights, f1, f2):
        lo, hi = sorted([f1, f2])
        g = self.graph_with_weights(weights)
        kept_lo = {(e.source, e.target) for e in apply_coverage(g, lo).edges}
        kept_hi = {(e.source, e.target) for e in apply_coverage(g, hi).edges}
        assert kept_hi <= kept_lo


class TestExport:
    def three_node_graph(self):
        edges = [
            follow_edge("A", "B", MAYBE, total=3),
            follow_edge("B", "C", FORSURE, total=1),
        ]
        return build(edges, EdgeClass.ALL)

    def test_csv_single_row(self, tmp_path):
        g = build([follow_edge("A", "B", MAYBE, total=2)], EdgeClass.ALL)
        path = tmp_path / "g.csv"
        write_graph_edges_csv(g, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith(",weight")

    def test_csv_round_trip(self, tmp_path):
        g = self.three_node_graph()
        path = tmp_path / "g.csv"
        write_graph_edges_csv(g, path)
        loaded = load_graph_edges_csv(path)
        assert loaded.nodes == g.nodes
        assert [(e.source, e.target, e.status, e.weight) for e in loaded.edges] == [
            (e.source, e.target, e.status, e.weight) for e in g.edges
        ]

    def test_graphml_round_trip(self, tmp_path):
        g = self.three_node_graph()
        path = tmp_path / "g.graphml"
        write_graphml(g, path)
        loaded = load_graphml(path)
        assert loaded.nodes == g.nodes
        assert [(e.source, e.target, e.status, e.weight) for e in loaded.edges] == [
            (e.source, e.target, e.status, e.weight) for e in g.edges
        ]

    def test_byte_identical_exports(self, tmp_path):
        for write, name in [
            (write_graph_edges_csv, "g.csv"),
            (write_graphml, "g.graphml"),
        ]:
            write(self.three_node_graph(), tmp_path / ("a_" + name))
            write(self.three_node_graph(), tmp_path / ("b_" + name))
            assert (tmp_path / ("a_" + name)).read_bytes() == (
                tmp_path / ("b_" + name)
            ).read_bytes()

    @pytest.mark.parametrize("name, write, load", [
        ("g.csv", write_graph_edges_csv, load_graph_edges_csv),
        ("g.graphml", write_graphml, load_graphml)], ids=["csv", "graphml"])
    def test_the_suffix_picks_the_format(self, tmp_path, name, write, load):
        g = self.three_node_graph()
        write_graph(g, tmp_path / name)
        write(g, tmp_path / ("own_" + name))
        assert (tmp_path / name).read_bytes() == (tmp_path / ("own_" + name)).read_bytes()
        packed = tmp_path / (name + ".gz")
        packed.write_bytes(gzip.compress((tmp_path / name).read_bytes()))
        for path in (tmp_path / name, packed):
            assert load_graph(path) == load(tmp_path / name)
        with pytest.raises(ValueError, match="g.dot"):
            write_graph(g, tmp_path / "g.dot")

    def test_graphml_repeated_node_is_refused(self, tmp_path):
        path = tmp_path / "g.graphml"
        write_graphml(self.three_node_graph(), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('<node id="B"/>', '<node id="B"/><node id="B"/>', 1),
                        encoding="utf-8")
        refusal = re.escape(f"{path}: <node> ids ['B'] are declared more than once")
        with pytest.raises(DataError, match=refusal):
            load_graphml(path)

    def test_graphml_escapes_ids(self, tmp_path):
        edges = [follow_edge('we"ird<&', "ok", MAYBE)]
        g = build(edges, EdgeClass.ALL)
        path = tmp_path / "esc.graphml"
        write_graphml(g, path)
        loaded = load_graphml(path)
        assert 'we"ird<&' in loaded.nodes


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(list("&<>\"'\n\r\t") + ["&amp;", "\u00e9", "\u2028"]),
                          st.characters()), max_size=12).map("".join))
def test_xml_escapes_match_saxutils(text):
    """GraphML escapes with its own two functions; they spell every string as
    ``xml.sax.saxutils`` does."""
    assert graphmod._escape(text) == saxutils.escape(text)
    assert graphmod._quoteattr(text) == saxutils.quoteattr(text)


def test_importing_the_package_loads_no_network_modules():
    """``import latentgraph`` pulls in no URL, HTTP or TLS module."""
    probe = ("import sys, latentgraph; "
             "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(graphmod.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
