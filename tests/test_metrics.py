import itertools
import json
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from latentgraph import metrics as metricsmod
from latentgraph.errors import UndefinedMetricError
from latentgraph.metrics import (
    assortativity,
    avg_path_length,
    clustering,
    communities,
    degree_ranking,
    density,
    filter_bubble,
    full_report,
    modularity,
    reciprocity,
    triangles,
    write_report,
)
from oracles import (
    make_graph,
    oracle_assortativity,
    oracle_avg_path_length,
    oracle_best_partition,
    oracle_clustering,
    oracle_density,
    oracle_modularity,
    oracle_optimize_partition,
    oracle_pair_weights,
    oracle_path_sums,
    oracle_projection,
    oracle_reciprocity,
    oracle_triangle_count,
    random_digraph,
)
from latentgraph.temporal import triangle_closures


def projected_triangle_count(graph):
    pair_times = {}
    for e in graph.edges:
        key = (e.source, e.target) if e.source <= e.target else (e.target, e.source)
        pair_times[key] = 0
    return len(triangle_closures(pair_times))


class TestDensity:
    def test_published_shapes(self):
        # Density must reproduce the released datasets' values from their
        # own node/edge counts alone.
        cases = [((14, 35), 0.192), ((7, 7), 0.167), ((33, 40), 0.038)]
        for (n, e), expected in cases:
            nodes = [f"x{i:02d}" for i in range(n)]
            pairs = list(itertools.permutations(nodes, 2))[:e]
            g = make_graph(pairs, nodes=nodes)
            assert g.node_count == n and g.edge_count == e
            assert round(density(g), 3) == expected

    def test_no_edges(self):
        g = make_graph([], nodes=["a", "b", "c"])
        assert density(g) == 0.0

    def test_single_node_undefined(self):
        with pytest.raises(UndefinedMetricError):
            density(make_graph([], nodes=["a"]))


class TestReciprocity:
    def test_two_of_three(self):
        g = make_graph([("A", "B"), ("B", "A"), ("A", "C")])
        assert reciprocity(g) == pytest.approx(2 / 3)

    def test_dag_zero(self):
        g = make_graph([("a", "b"), ("b", "c"), ("a", "c")])
        assert reciprocity(g) == 0.0

    def test_35_edges_5_mutual_pairs(self):
        # 5 mutual pairs (10 edges) plus 25 one-way edges = 35 edges,
        # reciprocity 10/35, the published climate value at 3 decimals.
        pairs = []
        for i in range(5):
            pairs += [(f"m{i}a", f"m{i}b"), (f"m{i}b", f"m{i}a")]
        for i in range(25):
            pairs.append((f"s{i:02d}", f"t{i:02d}"))
        g = make_graph(pairs)
        assert g.edge_count == 35
        value = reciprocity(g)
        assert value == pytest.approx(10 / 35)
        assert round(value, 3) == 0.286

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            reciprocity(make_graph([], nodes=["a", "b"]))


class TestClustering:
    def test_triangle(self):
        assert clustering(make_graph([("a", "b"), ("b", "c"), ("c", "a")])) == 1.0

    def test_path(self):
        assert clustering(make_graph([("a", "b"), ("b", "c")])) == 0.0

    def test_k4_minus_edge(self):
        pairs = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")]
        g = make_graph(pairs)
        assert clustering(g) == pytest.approx(oracle_clustering(g))
        assert clustering(g) == pytest.approx(5 / 6)


class TestAvgPathLength:
    def test_single_edge(self):
        assert avg_path_length(make_graph([("a", "b")])) == 1.0

    def test_three_node_path(self):
        assert avg_path_length(make_graph([("a", "b"), ("b", "c")])) == pytest.approx(4 / 3)

    def test_star(self):
        g = make_graph([(f"s{i}", "hub") for i in range(4)])
        assert avg_path_length(g) == pytest.approx(1.6)
        assert avg_path_length(g) == pytest.approx(oracle_avg_path_length(g))

    def test_disconnected_pairs_ignored(self):
        g = make_graph([("a", "b"), ("c", "d")])
        assert avg_path_length(g) == 1.0

    def test_edgeless_undefined(self):
        with pytest.raises(UndefinedMetricError):
            avg_path_length(make_graph([], nodes=["a", "b"]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(65, 300), st.integers(1, 5), st.floats(0.0, 0.08),
           st.floats(0.0, 0.3), st.integers(0, 2**32 - 1),
           st.sampled_from([1, metricsmod.PATH_BLOCK_BYTES]))
    def test_integer_sums_over_integer_pairs(self, n, parts, p_extra, p_alone, seed, block):
        """The mean is exactly the oracle's distance sum over its pair count,
        on graphs of 65-300 nodes with isolated nodes and several components,
        so one chunk of sources spans several words, or, with a block of one
        byte, several one-word chunks run."""
        rng = random.Random(seed)
        nodes = [f"n{i:03d}" for i in range(n)]
        part_of = {v: rng.randrange(parts) for v in nodes if rng.random() >= p_alone}
        pairs = set()
        for part in range(parts):
            members = [v for v in nodes if part_of.get(v) == part]
            rng.shuffle(members)
            # A random tree spans each part, so long paths occur.
            pairs.update((members[rng.randrange(i)], v) for i, v in enumerate(members) if i)
            pairs.update((u, v) for u, v in itertools.permutations(members, 2)
                         if rng.random() < p_extra)
        g = make_graph(sorted(pairs), nodes=nodes)
        total, count = oracle_path_sums(g)
        with mock.patch.object(metricsmod, "PATH_BLOCK_BYTES", block):
            if count == 0:
                with pytest.raises(UndefinedMetricError):
                    avg_path_length(g)
            else:
                assert avg_path_length(g) == total / count


class TestDegreeRanking:
    def test_star_in_degree(self):
        g = make_graph([(f"s{i}", "hub") for i in range(4)])
        ranking = degree_ranking(g, "in", 1)
        assert ranking == [("hub", 4)]

    def test_star_out_degree_ties(self):
        g = make_graph([(f"s{i}", "hub") for i in range(4)])
        ranking = degree_ranking(g, "out", 5)
        assert ranking == [("s0", 1), ("s1", 1), ("s2", 1), ("s3", 1), ("hub", 0)]

    def test_two_hub_fixture(self):
        pairs = [(f"a{i}", "hub1") for i in range(5)]
        pairs += [(f"b{i}", "hub2") for i in range(3)]
        g = make_graph(pairs)
        assert degree_ranking(g, "in", 2) == [("hub1", 5), ("hub2", 3)]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            degree_ranking(make_graph([("a", "b")]), "in", 0)


class TestAssortativity:
    def test_cycle_undefined(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(UndefinedMetricError):
            assortativity(g)

    def test_star_negative_one(self):
        g = make_graph([("hub", "s0"), ("hub", "s1"), ("hub", "s2")])
        assert assortativity(g) == pytest.approx(-1.0)

    def test_two_disjoint_edges_undefined(self):
        g = make_graph([("a", "b"), ("c", "d")])
        with pytest.raises(UndefinedMetricError):
            assortativity(g)


class TestCommunities:
    def two_cliques_bridged(self):
        left = ["a0", "a1", "a2", "a3"]
        right = ["b0", "b1", "b2", "b3"]
        pairs = [(u, v) for u, v in itertools.combinations(left, 2)]
        pairs += [(u, v) for u, v in itertools.combinations(right, 2)]
        pairs.append(("a0", "b0"))
        return make_graph(pairs)

    def test_single_community_q_zero(self):
        g = self.two_cliques_bridged()
        assert modularity(g, [set(g.nodes)]) == pytest.approx(0.0)

    def test_two_cliques_exact_recovery(self):
        g = self.two_cliques_bridged()
        partition, q = communities(g, seed=0)
        groups = sorted(sorted(group) for group in partition)
        assert groups == [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]]
        _, best_q = oracle_best_partition(g)
        assert q == pytest.approx(best_q, abs=1e-12)

    def test_edgeless_singletons(self):
        g = make_graph([], nodes=["a", "b", "c"])
        partition, q = communities(g)
        assert sorted(sorted(p) for p in partition) == [["a"], ["b"], ["c"]]
        assert q == 0.0

    def test_matches_matrix_definition(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_digraph(rng, rng.randint(2, 12), 0.3)
            partition, q = communities(g)
            assert q == pytest.approx(oracle_modularity(g, partition), abs=1e-9)

    def test_local_optimality(self):
        rng = random.Random(78)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 10), 0.35)
            partition, q = communities(g)
            for i, j in itertools.combinations(range(len(partition)), 2):
                merged = [p for k, p in enumerate(partition) if k not in (i, j)]
                merged.append(partition[i] | partition[j])
                assert modularity(g, merged) <= q + 1e-12

    def test_greedy_near_optimal_small_n(self):
        rng = random.Random(79)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 8), 0.4)
            _, q = communities(g)
            _, best_q = oracle_best_partition(g)
            # 1e-9 absorbs float noise in the oracle's matrix-form Q.
            assert q >= 0.95 * best_q - 1e-9


# Node count plus (source, target, weight) index triples; self-pairs are
# dropped, so small draws give isolated nodes and several components.  Low
# weights make equal gains, and so the tie rule, common.
graph_specs = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            min_size=1,
            max_size=3 * n,
        ),
    )
)


class TestIncrementalMerges:
    """The per-merge pair-table update against the rebuild-per-merge reference."""

    @staticmethod
    def graph_of(spec):
        n, triples = spec
        # Unpadded ids, so sorted id order differs from index order.
        nodes = [f"n{i}" for i in range(n)]
        weight = {(nodes[i], nodes[j]): w for i, j, w in triples if i != j}
        return make_graph(list(weight), nodes=nodes, weights=list(weight.values()))

    @settings(max_examples=150, deadline=None)
    @given(spec=graph_specs, seed=st.integers(0, 2**32 - 1))
    def test_same_partition_as_reference(self, spec, seed):
        g = self.graph_of(spec)
        weights = oracle_pair_weights(g)
        m = sum(weights.values())
        assume(m > 0)

        def both(rng_seed, width):
            def rng():
                return None if rng_seed is None else random.Random(rng_seed)

            return (
                metricsmod._optimize_partition(g, m, rng(), greedy_width=width),
                oracle_optimize_partition(g, weights, m, rng(), greedy_width=width),
            )

        got, want = both(None, 3)
        assert got == want
        for rng_seed in (seed, seed + 1, seed + 2):
            for width in (3, 0):
                got, want = both(rng_seed, width)
                assert got == want, (rng_seed, width)

    def test_pair_table_built_once_per_merge_phase(self, monkeypatch):
        calls: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        state = metricsmod._CommunityState
        monkeypatch.setattr(state, "pair_table", counted("table", state.pair_table))
        monkeypatch.setattr(state, "merge", counted("merge", state.merge))
        monkeypatch.setattr(metricsmod, "_merge_phase", counted("phase", metricsmod._merge_phase))
        communities(random_digraph(random.Random(5), 60, 0.05))
        assert calls["phase"] > 0
        assert calls["table"] == calls["phase"]
        assert calls["merge"] > 10 * calls["phase"]

    def test_restart_budget(self):
        assert metricsmod.community_restarts(metricsmod.SMALL_GRAPH_MAX_NODES) == 24
        assert metricsmod.community_restarts(metricsmod.SMALL_GRAPH_MAX_NODES + 1) == 4


class TestFilterBubble:
    def test_single_community_zero(self):
        g = make_graph([("a", "b"), ("b", "c")])
        assert filter_bubble(g, [set(g.nodes)]) == pytest.approx(0.0)

    def test_two_disconnected_cliques(self):
        pairs = [("a0", "a1"), ("a1", "a0"), ("b0", "b1"), ("b1", "b0")]
        g = make_graph(pairs)
        part = [{"a0", "a1"}, {"b0", "b1"}]
        assert filter_bubble(g, part) == pytest.approx(0.5)

    def test_pure_cross_traffic(self):
        pairs = [("a0", "b0"), ("a1", "b1"), ("b0", "a1"), ("b1", "a0")]
        g = make_graph(pairs)
        part = [{"a0", "a1"}, {"b0", "b1"}]
        assert filter_bubble(g, part) == pytest.approx(-0.5)

    def test_weightless_graph_undefined(self):
        g = make_graph([], nodes=["a", "b"])
        with pytest.raises(UndefinedMetricError):
            filter_bubble(g, [{"a"}, {"b"}])


class TestOracleSuite:
    def test_random_graphs_match_brute_force(self):
        rng = random.Random(42)
        for i in range(60):
            n = rng.randint(2, 25)
            g = random_digraph(rng, n, rng.uniform(0.02, 0.4))
            if g.edge_count:
                assert density(g) == pytest.approx(oracle_density(g), abs=1e-9)
                assert reciprocity(g) == pytest.approx(oracle_reciprocity(g), abs=1e-9)
            assert clustering(g) == pytest.approx(oracle_clustering(g), abs=1e-9)
            want_apl = oracle_avg_path_length(g)
            if want_apl is None:
                with pytest.raises(UndefinedMetricError):
                    avg_path_length(g)
            else:
                assert avg_path_length(g) == pytest.approx(want_apl, abs=1e-9)
            assert projected_triangle_count(g) == oracle_triangle_count(g)
            assert len(list(triangles(g.projection))) == oracle_triangle_count(g)
            want_assort = oracle_assortativity(g)
            if want_assort is None:
                with pytest.raises(UndefinedMetricError):
                    assortativity(g)
            else:
                assert assortativity(g) == pytest.approx(want_assort, abs=1e-9)


class TestFullReport:
    def test_empty_graph_nulls(self):
        g = make_graph([])
        report = full_report(g)
        data = report.to_dict()
        assert data["nodes"] == 0 and data["edges"] == 0
        for name in ("density", "clustering", "reciprocity", "avg_path_length",
                     "assortativity", "modularity", "filter_bubble"):
            assert data[name] is None
            assert f"{name}_reason" in data

    def test_consistency_density_identity(self):
        rng = random.Random(9)
        g = random_digraph(rng, 12, 0.25)
        report = full_report(g)
        assert report.density == pytest.approx(
            report.edges / (report.nodes * (report.nodes - 1))
        )

    def test_fixture_graph_all_fields(self):
        g = make_graph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")])
        report = full_report(g, degree_top_k=3)
        assert report.nodes == 3 and report.edges == 4
        assert report.density == pytest.approx(4 / 6)
        assert report.reciprocity == pytest.approx(2 / 4)
        assert report.clustering == pytest.approx(1.0)
        assert report.avg_path_length == pytest.approx(1.0)
        assert report.largest_community == max(len(c) for c in report.communities)
        assert sum(len(c) for c in report.communities) == 3

    def test_report_serialization(self, tmp_path):
        g = make_graph([("a", "b")])
        report = full_report(g, config={"seed": 4})
        path = tmp_path / "metrics.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        assert data["config"] == {"seed": 4}
        assert data["conventions"]["density"] == "directed"
        assert data["in_degree_top"] == [["b", 1], ["a", 0]]

    def test_ranking_stability(self):
        g = make_graph([("a", "x"), ("b", "x"), ("c", "y"), ("d", "y")])
        first = degree_ranking(g, "in", 10)
        for _ in range(5):
            assert degree_ranking(g, "in", 10) == first
        assert [n for n, _ in first[:2]] == ["x", "y"]


class TestAdjacencyHelpers:
    def test_undirected_projection_symmetric(self):
        # a->b and b->a are one undirected edge whose weight is their sum.
        g = make_graph([("a", "b"), ("b", "a"), ("b", "c")], weights=[2, 5, 3])
        assert g.projection == {"a": {"b": 7.0}, "b": {"a": 7.0, "c": 3.0}, "c": {"b": 3.0}}
        assert all(type(w) is float for nbrs in g.projection.values() for w in nbrs.values())

    def test_csr_lists_the_projection(self):
        g = random_digraph(random.Random(13), 30, 0.08)
        indptr, indices = g.csr
        code = {node: i for i, node in enumerate(g.nodes)}
        assert indptr[0] == 0 and len(indptr) == g.node_count + 1
        for node in g.nodes:
            row = indices[indptr[code[node]]:indptr[code[node] + 1]].tolist()
            assert row == sorted(code[v] for v in g.projection[node])

    def test_triangles_sorted_and_complete(self):
        # K4 on a..d plus a pendant edge d-e: the four triangles of K4, each once.
        pairs = list(itertools.combinations("dcba", 2)) + [("e", "d")]
        g = make_graph(pairs)
        assert list(triangles(g.projection)) == [
            ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]

    def test_full_report_builds_the_projection_once(self, projection_builds):
        g = random_digraph(random.Random(11), 14, 0.3)
        full_report(g)
        assert projection_builds == [g]

    def test_projection_unchanged_by_communities_and_full_report(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(2, 20), 0.25)
            adj = g.projection
            communities(g, seed=3)
            assert adj == oracle_projection(g)
            full_report(g, seed=4)
            assert g.projection is adj
            assert adj == oracle_projection(g)
