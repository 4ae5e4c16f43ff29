import functools
import itertools
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentgraph import chains as chainsmod
from latentgraph.errors import ConfigError
from latentgraph.chains import (
    BLOCK_THREADS,
    SemanticGraph,
    chain_census,
    extract_chains,
    group_threads,
    linearize,
    rank_and_select,
    write_chains_jsonl,
    write_census_csv,
)
from latentgraph.ingest import RawRecord, RecordKind
from oracles import oracle_linearize, oracle_maximal_paths, oracle_term_vector


def post(pid, author="op", t=100, text="shared topic words here"):
    return RawRecord(id=pid, kind=RecordKind.POST, author=author, created_utc=t,
                     text=text, subreddit="s")


def com(cid, t, text, author="rep", link="p1", parent="p1"):
    return RawRecord(id=cid, kind=RecordKind.COMMENT, author=author, created_utc=t,
                     text=text, subreddit="s", link_id=link, parent_id=parent)


def thread_of(texts, base_text="alpha beta gamma"):
    records = [post("p1", text=base_text)]
    for i, text in enumerate(texts):
        records.append(com(f"c{i:02d}", 200 + i * 10, text))
    (thread,) = group_threads(records)
    return thread


def extraction_dags(records, threshold, agent_of=None):
    """(thread, DAG) of every thread, in the order ``extract_chains``' batched
    pass builds them."""
    built = []
    real = chainsmod.connect

    def spy(thread, *args, **kwargs):
        built.append((thread, real(thread, *args, **kwargs)))
        return built[-1][1]

    with mock.patch.object(chainsmod, "connect", spy):
        extract_chains(records, threshold, agent_of=agent_of)
    return built


def scored(thread, threshold, agent_of=None):
    """The DAG of ``thread`` scored alone by the batched pass."""
    ((_, dag),) = extraction_dags(thread.records, threshold, agent_of)
    return dag


class TestConnect:
    def test_identical_texts_connected(self):
        thread = thread_of(["alpha beta gamma"])
        dag = scored(thread, 0.1)
        assert dag.children[0] == (1,)

    def test_disjoint_vocab_not_connected(self):
        thread = thread_of(["delta epsilon zeta"])
        dag = scored(thread, 0.1)
        assert dag.children[0] == ()

    def test_exact_threshold_excluded(self):
        # 100 distinct single-occurrence tokens against one shared token:
        # cosine is exactly 1/10 in floating point, which must NOT connect
        # at threshold 0.1 (strict inequality).
        tokens = [f"tok{i:03d}" for i in range(100)]
        wide = " ".join(tokens)
        narrow = tokens[0]
        v_wide = oracle_term_vector([wide], 4096)
        v_narrow = oracle_term_vector([narrow], 4096)
        assert len(np.flatnonzero(v_wide)) == 100  # hash-collision free
        cosine = float(v_wide @ v_narrow)
        assert cosine == 0.1
        thread = thread_of([narrow], base_text=wide)
        dag = scored(thread, 0.1)
        assert dag.children[0] == ()
        # Barely above the threshold it does connect.
        dag_looser = scored(thread, 0.0999)
        assert dag_looser.children[0] == (1,)

    def test_edges_respect_time_order(self):
        thread = thread_of(["alpha beta gamma", "alpha beta gamma"])
        dag = scored(thread, 0.1)
        for i, children in enumerate(dag.children):
            for j in children:
                assert (dag.nodes[i].time, dag.nodes[i].record_id) < (
                    dag.nodes[j].time, dag.nodes[j].record_id
                )

    def test_equal_timestamps_ordered_by_id(self):
        records = [post("p1", t=100, text="alpha beta")]
        records.append(com("cb", 100, "alpha beta"))
        records.append(com("ca", 100, "alpha beta"))
        (thread,) = group_threads(records)
        dag = scored(thread, 0.1)
        ids = [n.record_id for n in dag.nodes]
        assert ids == ["ca", "cb", "p1"]  # (time, id) ascending


def random_dag(rng, n):
    edges = set()
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            edges.add((i, j))
    return edges


def dag_to_semantic(n, edges):
    from latentgraph.chains import ChainNode

    nodes = tuple(
        ChainNode(record_id=f"r{i:02d}", author_agent="a", time=100 + i)
        for i in range(n)
    )
    children = tuple(
        tuple(sorted((j for (x, j) in edges if x == i),
                     key=lambda j: nodes[j].record_id))
        for i in range(n)
    )
    return SemanticGraph(post_id="p", nodes=nodes, children=children)


class TestLinearize:
    def test_three_node_path(self):
        dag = dag_to_semantic(3, {(0, 1), (1, 2)})
        chains = linearize(dag)
        assert len(chains) == 1
        assert chains[0].length == 2
        assert chainsmod.count_paths(dag) == (1, 2)

    def test_branch_duplication(self):
        # root -> A, root -> B, A -> B gives two maximal chains.
        dag = dag_to_semantic(3, {(0, 1), (0, 2), (1, 2)})
        chains = linearize(dag)
        got = {tuple(n.record_id for n in c.nodes) for c in chains}
        assert got == {("r00", "r01", "r02"), ("r00", "r02")}

    def test_edgeless_thread(self):
        dag = dag_to_semantic(4, set())
        chains = linearize(dag)
        assert chains == []

    def test_internal_nodes_linear(self):
        rng = random.Random(2)
        dag = dag_to_semantic(8, random_dag(rng, 8))
        chains = linearize(dag)
        for chain in chains:
            # consecutive (time, id) strictly ascending within the chain
            keys = [(n.time, n.record_id) for n in chain.nodes]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_brute_force_equivalence(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 12)
            edges = random_dag(rng, n)
            dag = dag_to_semantic(n, edges)
            chains = linearize(dag, max_chains=10**9, max_depth=10**9)
            got = {tuple(int(node.record_id[1:]) for node in c.nodes) for c in chains}
            assert got == oracle_maximal_paths(n, edges)

    def test_chain_cap_records_truncation(self):
        # A layered DAG with many paths.
        edges = set()
        layers = [[0, 1], [2, 3], [4, 5], [6, 7]]
        for a, b in zip(layers, layers[1:]):
            for i in a:
                for j in b:
                    edges.add((i, j))
        dag = dag_to_semantic(8, edges)
        full = linearize(dag)
        assert len(full) == 16
        assert linearize(dag, max_chains=5) == full[:5]
        assert chainsmod.count_paths(dag) == (16, 3)  # 16 > 5: the cap drops chains

    def test_depth_cap_records_truncation(self):
        dag = dag_to_semantic(6, {(i, i + 1) for i in range(5)})
        assert linearize(dag, max_depth=3) == []
        assert len(linearize(dag, max_depth=5)) == 1
        assert chainsmod.count_paths(dag) == (1, 5)  # 5 > 3: the cap drops the chain


class TestRankAndSelect:
    def chain(self, length, start, first_id):
        dag = dag_to_semantic(length + 1, {(i, i + 1) for i in range(length)})
        chains = linearize(dag)
        c = chains[0]
        nodes = tuple(
            type(n)(record_id=(first_id if i == 0 else n.record_id),
                    author_agent=n.author_agent, time=start + i)
            for i, n in enumerate(c.nodes)
        )
        return type(c)(post_id=c.post_id, nodes=nodes)

    def test_longest_wins(self):
        chains = [self.chain(3, 100, "x"), self.chain(1, 50, "y")]
        assert rank_and_select(chains, 1)[0].length == 3

    def test_fewer_than_k(self):
        chains = [self.chain(1, 100, "x")]
        assert len(rank_and_select(chains, 35)) == 1

    def test_tie_on_length_earlier_first(self):
        late = self.chain(2, 900, "a")
        early = self.chain(2, 100, "b")
        ranked = rank_and_select([late, early], 2)
        assert ranked[0].start_time == 100


class TestChainCensus:
    def disconnected_corpus(self):
        records = []
        for i in range(4):
            records.append(post(f"p{i}", text=f"unique{i}word only{i}here"))
            records.append(
                com(f"c{i}", 200, f"другой{i} normal{i}", link=f"p{i}", parent=f"p{i}")
            )
        return records

    def test_all_disconnected(self):
        threads = group_threads(self.disconnected_corpus())
        rows = chain_census(threads, [0.1])
        assert rows[0]["no_chain"] == 4
        assert rows[0]["len_eq_1"] == 0 and rows[0]["len_gt_1"] == 0

    def test_two_edge_chain_categorized(self):
        records = [post("p1", text="alpha beta gamma")]
        records.append(com("c1", 200, "alpha beta gamma"))
        records.append(com("c2", 300, "alpha beta gamma"))
        threads = group_threads(records)
        rows = chain_census(threads, [0.1])
        assert rows[0] == {"threshold": 0.1, "no_chain": 0, "len_eq_1": 0, "len_gt_1": 1}

    def test_categories_sum_to_posts(self):
        from latentgraph.synthetic import make_synthetic_dump

        dump = make_synthetic_dump(40, 200, seed=3)
        threads = group_threads(dump.records)
        rows = chain_census(threads, [0.1, 0.3, 0.5])
        for row in rows:
            assert row["no_chain"] + row["len_eq_1"] + row["len_gt_1"] == len(threads)

    def test_monotone_in_threshold(self):
        from latentgraph.synthetic import make_synthetic_dump

        dump = make_synthetic_dump(40, 200, seed=4)
        threads = group_threads(dump.records)
        rows = chain_census(threads, [0.1, 0.2, 0.3, 0.4, 0.5])
        # Raising the threshold can only move posts toward "no chains".
        no_chain = [r["no_chain"] for r in rows]
        assert no_chain == sorted(no_chain)
        gt1 = [r["len_gt_1"] for r in rows]
        assert gt1 == sorted(gt1, reverse=True)

    def test_long_linear_thread_not_capped(self):
        # 70 records where only neighbours share a token: one path of 69
        # edges, deeper than linearize's depth cap.
        records = [post("p1", text="w00 w01")]
        for i in range(1, 70):
            records.append(com(f"c{i:02d}", 100 + i, f"w{i:02d} w{i + 1:02d}"))
        threads = group_threads(records)
        assert scored(threads[0], 0.1).edge_count == 69
        rows = chain_census(threads, [0.1])
        assert rows[0] == {"threshold": 0.1, "no_chain": 0, "len_eq_1": 0, "len_gt_1": 1}
        _, manifest = extract_chains(records, 0.1)
        assert manifest["census"] == {"no_chain": 0, "len_eq_1": 0, "len_gt_1": 1}
        assert manifest["truncated_posts"] == 1

    def test_threshold_domain(self):
        with pytest.raises(ConfigError):
            chain_census([], [0.0])


class TestThreading:
    def test_group_threads_spans_posts(self):
        records = [post("p1"), post("p2"), com("c1", 200, "x", link="p1", parent="p1"),
                   com("c2", 300, "y", link="p2", parent="p2"),
                   com("c3", 400, "z", link="missing", parent="missing")]
        threads = group_threads(records)
        assert [t.post.id for t in threads] == ["p1", "p2"]
        assert [len(t.records) - 1 for t in threads] == [1, 1]

    def test_a_post_leads_a_comment_of_the_same_time_and_id(self):
        (thread,) = group_threads([com("p1", 100, "x"), post("p1", t=100)])
        assert [r.kind for r in thread.records] == [RecordKind.POST, RecordKind.COMMENT]


class TestEndToEnd:
    def test_extract_chains_consistency(self):
        from latentgraph.synthetic import make_synthetic_dump

        dump = make_synthetic_dump(40, 240, seed=6)
        selected, manifest = extract_chains(dump.records, 0.1, top_k=10)
        text_of = {r.id: r.text for r in dump.records}
        assert len(selected) <= 10
        assert manifest["chains_total"] >= len(selected)
        lengths = [c.length for c in selected]
        assert lengths == sorted(lengths, reverse=True)
        for chain in selected:
            pairs = zip(chain.nodes, chain.nodes[1:])
            for a, b in pairs:
                v_a = oracle_term_vector([text_of[a.record_id]])
                v_b = oracle_term_vector([text_of[b.record_id]])
                assert float(v_a @ v_b) > 0.1
                assert (a.time, a.record_id) < (b.time, b.record_id)

    def test_jsonl_and_census_outputs(self, tmp_path):
        from latentgraph.synthetic import make_synthetic_dump
        import json

        dump = make_synthetic_dump(30, 150, seed=7)
        selected, _ = extract_chains(dump.records, 0.1, top_k=5)
        chains_path = tmp_path / "chains.jsonl"
        write_chains_jsonl(selected, chains_path)
        rows = [json.loads(line) for line in chains_path.read_text().splitlines()]
        assert len(rows) == len(selected)
        for row, chain in zip(rows, selected):
            assert row["length"] == chain.length
            assert row["nodes"][0]["record_id"] == chain.nodes[0].record_id
        census_path = tmp_path / "census.csv"
        write_census_csv(
            chain_census(group_threads(dump.records), [0.1]), census_path
        )
        assert census_path.read_text().splitlines()[0] == "threshold,no_chain,len_eq_1,len_gt_1"


# ---------------------------------------------------------------------------
# Integer similarities decide every pair as the per-pair float does
# ---------------------------------------------------------------------------

def legacy_children(thread, threshold):
    """Successor lists from ``float(v_i @ v_j)`` of each pair's reference
    vectors, children in record-id order."""
    ordered = sorted(thread.records, key=lambda r: (r.created_utc, r.id))
    vectors = [oracle_term_vector([r.text]) for r in ordered]
    return tuple(
        tuple(sorted((j for j in range(i + 1, len(ordered))
                      if float(vectors[i] @ vectors[j]) > threshold),
                     key=lambda j: ordered[j].id))
        for i in range(len(ordered))
    )


def on_threshold(k):
    """A text of k distinct tokens and a text of its first: their cosine is
    exactly 1/sqrt(k) in floating point."""
    tokens = [f"tok{i:03d}" for i in range(k)]
    return " ".join(tokens), tokens[0]


@pytest.mark.parametrize("k", [3, 4, 16, 25, 50, 100])
def test_cosine_on_the_threshold_does_not_link(k):
    wide, narrow = on_threshold(k)
    threshold = 1 / math.sqrt(k)
    assert float(oracle_term_vector([wide]) @ oracle_term_vector([narrow])) == threshold
    thread = thread_of([narrow], base_text=wide)
    assert scored(thread, threshold).children[0] == ()
    assert scored(thread, float(np.nextafter(threshold, 0))).children[0] == (1,)


_WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta", "tok000", "tok001", "zeta"])


@st.composite
def scored_threads(draw):
    k = draw(st.sampled_from([2, 3, 4, 9, 10, 25, 50, 100]))
    wide, narrow = on_threshold(k)
    texts = draw(st.lists(
        st.one_of(st.lists(_WORDS, max_size=12).map(" ".join), st.sampled_from([wide, narrow])),
        min_size=1, max_size=8))
    exact = 1 / math.sqrt(k)
    threshold = draw(st.one_of(
        st.sampled_from([0.1, 0.2, 0.3, 0.5, exact, float(np.nextafter(exact, 0)),
                         float(np.nextafter(exact, 1))]),
        st.floats(0.01, 0.99)))
    times = draw(st.lists(st.integers(100, 103), min_size=len(texts), max_size=len(texts)))
    records = [post("p1", t=times[0], text=texts[0])]
    records += [com(f"c{i:02d}", t, text) for i, (t, text) in enumerate(zip(times[1:], texts[1:]))]
    (thread,) = group_threads(records)
    return thread, threshold


@settings(max_examples=200, deadline=None)
@given(scored_threads())
def test_integer_similarities_decide_like_the_float(case):
    thread, threshold = case
    assert scored(thread, threshold).children == legacy_children(thread, threshold)


@pytest.mark.parametrize("block_threads", [7, BLOCK_THREADS])
def test_connect_alone_matches_the_batched_extraction(monkeypatch, block_threads):
    from latentgraph.synthetic import make_synthetic_dump

    records = make_synthetic_dump(40, 240, seed=6).records
    agent_of = {r.author: f"A{len(r.author) % 3}" for r in records}
    monkeypatch.setattr(chainsmod, "BLOCK_THREADS", block_threads)
    batched = extraction_dags(records, 0.2, agent_of)
    monkeypatch.undo()
    threads = group_threads(records)
    assert [thread for thread, _ in batched] == threads
    for thread, dag in batched:
        assert isinstance(dag, SemanticGraph)
        assert scored(thread, 0.2, agent_of) == dag
        assert dag.children == legacy_children(thread, 0.2)


def test_one_pass_serves_extraction_and_census():
    from latentgraph.synthetic import make_synthetic_dump

    records = make_synthetic_dump(40, 240, seed=3).records
    thresholds = [0.1, 0.2, 0.3, 0.4, 0.5]
    _, manifest = extract_chains(records, 0.3, census_thresholds=thresholds)
    assert manifest["census_rows"] == chain_census(group_threads(records), thresholds)
    assert manifest["census_rows"][2] == {"threshold": 0.3, **manifest["census"]}
    _, plain = extract_chains(records, 0.3)
    assert plain["census_rows"] == [{"threshold": 0.3, **plain["census"]}]
    assert {k: v for k, v in plain.items() if k != "census_rows"} == {
        k: v for k, v in manifest.items() if k != "census_rows"}


def test_extraction_scores_each_distinct_threshold_once(monkeypatch, tmp_path):
    """``run-all``'s chains stage scores its one threshold once per block, and
    a repeated census threshold is scored once but keeps its row."""
    from latentgraph.cli import chains_stage
    from latentgraph.config import default_config
    from latentgraph.synthetic import make_synthetic_dump

    records = make_synthetic_dump(40, 240, seed=3).records
    monkeypatch.setattr(chainsmod, "BLOCK_THREADS", 7)
    blocks = math.ceil(len(group_threads(records)) / 7)
    real = chainsmod._Block.categories
    with mock.patch.object(chainsmod._Block, "categories", autospec=True,
                           side_effect=real) as spy:
        chains_stage(records, default_config(), tmp_path / "chains.jsonl")
        assert spy.call_count == blocks
        spy.reset_mock()
        _, manifest = extract_chains(records, 0.1, census_thresholds=[0.3, 0.1, 0.3])
        assert spy.call_count == 2 * blocks
    assert [row["threshold"] for row in manifest["census_rows"]] == [0.3, 0.1, 0.3]
    assert manifest["census_rows"][1] == {"threshold": 0.1, **manifest["census"]}


@functools.cache
def ledger_extraction():
    """A small synthetic corpus in ledger order, and its extraction."""
    from latentgraph.synthetic import make_synthetic_dump

    records = make_synthetic_dump(100, 600, seed=2).records
    return records, extract_chains(records, census_thresholds=[0.1, 0.3])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_extraction_does_not_depend_on_record_order(data):
    """A record's term row is found by identity, whatever the order of the
    records and so of the term table built over them."""
    records, expected = ledger_extraction()
    shuffled = data.draw(st.permutations(records))
    assert extract_chains(shuffled, census_thresholds=[0.1, 0.3]) == expected


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5])
def test_threshold_outside_unit_interval_is_refused(threshold):
    with pytest.raises(ConfigError):
        extract_chains([post("p1")], threshold)
    with pytest.raises(ConfigError):
        extract_chains([post("p1")], 0.1, census_thresholds=[0.2, threshold])


# ---------------------------------------------------------------------------
# Paths are counted before any is enumerated
# ---------------------------------------------------------------------------

@st.composite
def time_ordered_dags(draw, max_nodes=12):
    """A DAG whose node order is a topological order, as ``connect`` builds."""
    n = draw(st.integers(0, max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    linked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return dag_to_semantic(n, {pair for pair, keep in zip(pairs, linked) if keep})


@settings(max_examples=300, deadline=None)
@given(time_ordered_dags(), st.integers(1, 8), st.integers(1, 6))
def test_path_counts_agree_with_linearize(dag, max_chains, max_depth):
    """``count_paths`` counts the uncapped chains; under the caps
    ``linearize`` gives the first ``max_chains`` of those at most
    ``max_depth`` long, and they differ from all chains exactly when
    ``count_paths`` reports a cap."""
    paths, longest = chainsmod.count_paths(dag)
    every = linearize(dag, max_chains=10**9, max_depth=10**9)
    assert paths == len(every)
    assert longest == max((c.length for c in every), default=0)
    capped = linearize(dag, max_chains, max_depth)
    assert capped == [c for c in every if c.length <= max_depth][:max_chains]
    assert (capped != every) == (paths > max_chains or longest > max_depth)


@settings(max_examples=500, deadline=None)
@given(time_ordered_dags(max_nodes=14),
       st.none() | st.tuples(st.integers(1, 7), st.integers(0, 4)))
def test_linearize_matches_the_unpruned_walk(dag, caps):
    """Skipping every child with no sink within the depth left drops no
    chain the unpruned walk emits, under small caps and the defaults."""
    caps = () if caps is None else caps
    assert linearize(dag, *caps) == oracle_linearize(dag, *caps)


@pytest.mark.parametrize("n, emitted", [(90, 200), (400, 0)])
def test_ladder_thread_walks_only_what_it_can_emit(n, emitted):
    """Each record links to the next two: the paths number in the Fibonacci
    numbers, but the walk is bounded by the chains it emits times the depth."""
    dag = dag_to_semantic(n, {(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n})
    start = time.perf_counter()
    chains = linearize(dag)
    assert time.perf_counter() - start < 1.0
    assert len(chains) == emitted
    assert all(c.length <= chainsmod.DEFAULT_MAX_DEPTH for c in chains)
    assert chainsmod.count_paths(dag)[1] == n - 1


def test_linearize_walks_a_path_longer_than_the_recursion_limit():
    n = 1200
    dag = dag_to_semantic(n, {(i, i + 1) for i in range(n - 1)})
    assert chainsmod.count_paths(dag) == (1, n - 1)
    (chain,) = linearize(dag, 10**9, 10**9)
    assert chain.nodes == dag.nodes


def capped_corpus():
    """The synthetic corpus plus a thread over the chain cap whose chains are
    one edge long (a post sharing one token with each of 201 replies) and a
    thread over the depth cap (70 records, only neighbours sharing a token)."""
    from latentgraph.synthetic import make_synthetic_dump

    records = list(make_synthetic_dump(40, 240, seed=6).records)
    fan = [f"fan{i:03d}" for i in range(201)]
    records.append(post("zfan", text=" ".join(fan)))
    records += [com(f"zfan{i:03d}", 200 + i, token, link="zfan", parent="zfan")
                for i, token in enumerate(fan)]
    records.append(post("zline", text="w00 w01"))
    records += [com(f"zline{i:02d}", 100 + i, f"w{i:02d} w{i + 1:02d}", link="zline",
                    parent="zline") for i in range(1, 70)]
    return records


@pytest.mark.parametrize("top_k", [0, 1, 3, 35])
def test_extraction_enumerates_only_what_can_reach_the_top(top_k):
    records, threshold = capped_corpus(), 0.05
    every, truncated = [], 0
    dags = extraction_dags(records, threshold)
    for _, dag in dags:
        every += linearize(dag)
        paths, longest = chainsmod.count_paths(dag)
        truncated += paths > chainsmod.DEFAULT_MAX_CHAINS_PER_POST or (
            longest > chainsmod.DEFAULT_MAX_DEPTH)
    lengths = sorted((c.length for c in every), reverse=True)
    if top_k:
        assert lengths[top_k - 1] == lengths[top_k]  # the cut falls inside a tie
    assert truncated == 2

    with mock.patch.object(chainsmod, "linearize", wraps=linearize) as spy:
        selected, manifest = extract_chains(records, threshold, top_k=top_k)
    assert selected == rank_and_select(every, top_k)
    assert (manifest["chains_total"], manifest["truncated_posts"]) == (len(every), truncated)
    assert truncated <= spy.call_count < len(dags)
    if top_k == 0:
        assert spy.call_count == truncated
