import ast
import csv
import json
import random
import re
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from latentgraph import chains, cli, profiles
from latentgraph.config import default_config
from latentgraph.errors import ConfigError, DataError
from latentgraph.ingest import RawRecord, RecordKind, run_pipeline
from latentgraph.profiles import (
    DEFAULT_DIM,
    RESIDUAL_LABEL,
    AgentProfile,
    build_member_index,
    build_user_vectors,
    cluster_users,
    enrich,
    fnv1a_64,
    load_embeddings,
    load_lexicon,
    load_profiles,
    save_profiles,
    term_table,
    token_bucket,
    tokenize,
    top_terms,
    TextCounts,
)
from latentgraph.synthetic import make_synthetic_dump, write_lexicon_csv
from oracles import (
    oracle_fnv1a,
    oracle_kmeans,
    oracle_term_counts,
    oracle_term_table,
    oracle_term_vector,
)


# JSON text of ``vector`` values that are not a non-empty 1-D list of finite
# numbers.
BAD_EMBEDDING_VECTORS = [
    "5",
    "[[1, 2], [3, 4]]",
    "[[1], [2, 3]]",
    "[]",
    "[1, NaN]",
    "[Infinity, 0]",
    "[-Infinity]",
    "[1e999]",
    "[" + "9" * 400 + "]",
    '["1", "2"]',
    "[true, false]",
]


def records_of(user_texts):
    """One post per text, authored by its user, in the mapping's order."""
    return [
        RawRecord(id=f"{user}-{i}", kind=RecordKind.POST, author=user, created_utc=i,
                  text=text, subreddit="s")
        for user, texts in user_texts.items() for i, text in enumerate(texts)
    ]


def user_vectors(user_texts, dim, lexicon=None):
    """User vectors, vocabulary and counts of one user -> texts mapping."""
    table, vocab, counts = term_table(records_of(user_texts), dim, lexicon)
    return build_user_vectors(table), vocab, counts


def rows_of(vectors):
    """Every user row of ``vectors``, densified."""
    return [vectors.row(i) for i in range(len(vectors.users))]


def user_vectors_of(users, matrix):
    """UserVectors holding the nonzeros of the dense rows of ``matrix``."""
    rows, buckets = np.nonzero(matrix)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(matrix)))))
    return profiles.UserVectors(tuple(users), matrix.shape[1], indptr,
                                buckets.astype(np.int32), matrix[rows, buckets])


def assert_csr_rows(vectors):
    """``indptr`` starts at 0 and is monotone, each row's buckets strictly
    ascend within the dimension, and no zero is stored."""
    indptr, buckets, values = vectors.indptr, vectors.buckets, vectors.values
    assert len(indptr) == len(vectors.users) + 1
    assert indptr[0] == 0 and indptr[-1] == len(buckets) == len(values)
    assert np.all(np.diff(indptr) >= 0)
    for start, end in zip(indptr[:-1], indptr[1:]):
        assert np.all(np.diff(buckets[start:end]) > 0)
    assert np.all((0 <= buckets) & (buckets < vectors.dim))
    assert np.all(values != 0.0)


def record_vectors(texts, dim):
    """The term-table vector of each text, one record per text."""
    table, _, _ = term_table(records_of({"u": texts}), dim)
    return [table.vector(row) for row in range(len(texts))]


class TestVectorize:
    def test_fnv_constants(self):
        for token in ("solar", "wind", "a", ""):
            assert fnv1a_64(token.encode()) == oracle_fnv1a(token.encode())

    def test_hand_hashed_buckets(self):
        dim = 4096
        (vec,) = record_vectors(["solar solar wind"], dim)
        b_solar = oracle_fnv1a(b"solar") % dim
        b_wind = oracle_fnv1a(b"wind") % dim
        assert b_solar != b_wind
        nonzero = set(np.flatnonzero(vec))
        assert nonzero == {b_solar, b_wind}
        # 2:1 weight ratio before normalization survives normalization.
        assert vec[b_solar] == pytest.approx(2 * vec[b_wind])
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        texts = ["", "  ", "!!"]
        assert not np.any(record_vectors(texts, 64))
        vectors, _, _ = user_vectors({"u": texts}, 64)
        assert vectors.indptr.tolist() == [0, 0]
        assert not np.any(vectors.row(0))

    def test_determinism(self):
        texts = ["The quick brown fox?", "jumps over 2 lazy dogs!"]
        a = user_vectors({"u": texts}, 256)[0]
        b = user_vectors({"u": list(texts)}, 256)[0]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dim_floor(self):
        with pytest.raises(ConfigError):
            term_table(records_of({"u": ["x"]}), 8)

    def test_tokenizer_lowercases_alnum(self):
        tokens, counts = tokenize(["Hello, WORLD-42!", "", "\u212aelvin\x00x", "?!"])
        assert tokens == ["hello", "world", "42", "kelvin", "x"]
        assert counts.tolist() == [3, 0, 2, 0]

    def test_bucket_stable(self):
        assert token_bucket("solar", 4096) == oracle_fnv1a(b"solar") % 4096

    def test_term_table_holds_each_records_buckets(self):
        records = records_of({"u2": ["Solar solar, wind!", ""], "u1": ["wind"]})
        table, vocab, _ = term_table(records, 4096)
        solar, wind = (oracle_fnv1a(t) % 4096 for t in (b"solar", b"wind"))
        assert table.buckets.tolist() == [solar, solar, wind, wind]
        assert table.offsets.tolist() == [0, 3, 3, 4]
        assert table.users == ("u1", "u2")
        assert table.user_of.tolist() == [1, 1, 0]
        assert vocab == {solar: Counter(solar=2), wind: Counter(wind=2)}
        for row, record in enumerate(records):
            assert np.array_equal(table.vector(row), oracle_term_vector([record.text], 4096))

    def test_user_vector_is_the_reference_vector(self):
        # Agents and chains read the same terms: a user's vector is the
        # reference vector of all its texts.
        texts = planted_users(3)
        vectors, _, _ = user_vectors(texts, 256)
        assert vectors.users == tuple(sorted(texts))
        for user, row in zip(vectors.users, rows_of(vectors)):
            assert np.array_equal(row, oracle_term_vector(texts[user], 256))

    def test_user_rows_span_token_blocks(self):
        # Users are counted in blocks of about 2^14 tokens; three users hold
        # more than a block each, and records arrive in shuffled order.
        rng = random.Random(0)
        words = [f"w{i}" for i in range(500)]
        texts = {f"u{u:03d}": [" ".join(rng.choices(words, k=10001 if u in (5, 150, 299)
                                                     else rng.randint(0, 50)))
                               for _ in range(4)]
                 for u in range(300)}
        records = records_of(texts)
        rng.shuffle(records)
        vectors = build_user_vectors(term_table(records, 64)[0])
        assert_csr_rows(vectors)
        for user, row in zip(vectors.users, rows_of(vectors)):
            assert row.tobytes() == oracle_term_vector(texts[user], 64).tobytes()


def planted_users(n_per_group=20, seed=0):
    rng = random.Random(seed)
    vocab_a = ["solar", "wind", "panel", "turbine", "grid"]
    vocab_b = ["goal", "match", "league", "striker", "keeper"]
    texts = {}
    for i in range(n_per_group):
        texts[f"a{i:02d}"] = [" ".join(rng.choices(vocab_a, k=12)) for _ in range(3)]
        texts[f"b{i:02d}"] = [" ".join(rng.choices(vocab_b, k=12)) for _ in range(3)]
    return texts


class TestClustering:
    def test_planted_partition_recovery(self):
        texts = planted_users()
        vectors, _, _ = user_vectors(texts, 512)
        profiles = cluster_users(vectors, 2, seed=13)
        assert len(profiles) == 2
        groups = [set(p.members) for p in profiles]
        expected = [{u for u in texts if u.startswith("a")},
                    {u for u in texts if u.startswith("b")}]
        assert groups == expected or groups == expected[::-1]

    def test_k1_single_agent(self):
        vectors, _, _ = user_vectors(planted_users(5), 256)
        profiles = cluster_users(vectors, 1, seed=0)
        assert len(profiles) == 1
        assert len(profiles[0].members) == 10

    def test_seeded_determinism(self):
        vectors, _, _ = user_vectors(planted_users(8), 256)
        a = cluster_users(vectors, 3, seed=21)
        b = cluster_users(vectors, 3, seed=21)
        assert [p.members for p in a] == [p.members for p in b]
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.centroid, pb.centroid)

    def test_partition_property(self):
        texts = planted_users(10)
        vectors, _, _ = user_vectors(texts, 256)
        profiles = cluster_users(vectors, 4, seed=3)
        members = [u for p in profiles for u in p.members]
        assert len(members) == len(set(members)) == len(texts)

    def test_zero_vector_users_go_residual(self):
        texts = planted_users(5)
        texts["mute01"] = [""]
        texts["mute02"] = ["?!"]
        vectors, _, _ = user_vectors(texts, 256)
        profiles = cluster_users(vectors, 2, seed=1)
        assert len(profiles) == 3
        [residual] = [p for p in profiles if p.label == RESIDUAL_LABEL]
        assert set(residual.members) == {"mute01", "mute02"}

    def test_k_exceeding_usable_users(self):
        vectors, _, _ = user_vectors(planted_users(2), 256)
        with pytest.raises(ConfigError):
            cluster_users(vectors, 5, seed=0)

    def test_identical_vectors_still_fill_k_clusters(self):
        # Degenerate input where every cluster but one would empty out;
        # revival must fill each empty cluster with a distinct user.
        texts = {f"u{i}": ["same words every time"] for i in range(5)}
        vectors, _, _ = user_vectors(texts, 256)
        profiles = cluster_users(vectors, 3, seed=0)
        assert len(profiles) == 3
        assert all(p.members for p in profiles)
        members = [u for p in profiles for u in p.members]
        assert sorted(members) == sorted(texts)

    def test_centroid_is_normalized_mean(self):
        texts = planted_users(6)
        vectors, _, _ = user_vectors(texts, 256)
        by_user = dict(zip(vectors.users, rows_of(vectors)))
        for profile in cluster_users(vectors, 2, seed=5):
            mean = np.mean([by_user[u] for u in profile.members], axis=0)
            mean /= np.linalg.norm(mean)
            assert np.allclose(profile.centroid, mean, atol=1e-12)
            # Keywords read the members' term rows: on hashed vectors, the centroid.
            assert vectors.mean_of(profile.members).tobytes() == profile.centroid.tobytes()


def features(texts, lexicon):
    """Emotion and style of one user's texts, through the one text pass."""
    vectors, vocab, counts = user_vectors({"u": texts}, 64, lexicon)
    agent = AgentProfile("A000", "Agent000", ("u",), np.zeros(64))
    enriched = enrich(agent, [counts["u"]], lexicon, vocab, vectors)
    return enriched.emotion, enriched.style


class TestEnrichment:
    def test_emotion_fixture(self):
        lexicon = {"angry": "anger", "happy": "joy"}
        freqs, _ = features(["angry angry happy"], lexicon)
        assert freqs == {"anger": pytest.approx(2 / 3), "joy": pytest.approx(1 / 3)}

    def test_no_lexicon_hits_all_zeros(self):
        lexicon = {"angry": "anger", "happy": "joy"}
        freqs, _ = features(["calm neutral words here"], lexicon)
        assert freqs == {"anger": 0.0, "joy": 0.0}

    def test_all_questions(self):
        _, style = features(["is it so? really? are we sure?"], {})
        assert style["question_rate"] == 1.0
        assert style["exclamation_rate"] == 0.0

    def test_avg_sentence_length(self):
        _, style = features(["one two three. four five."], {})
        assert style["avg_sentence_length"] == pytest.approx(2.5)

    def test_enrich_sets_keywords_and_label(self):
        texts = {"u1": ["solar solar wind power"], "u2": ["solar wind wind power"]}
        vectors, vocab, counts = user_vectors(texts, 512)
        profile = cluster_users(vectors, 1, seed=0)[0]
        enriched = enrich(profile, [counts[u] for u in profile.members], {}, vocab, vectors)
        assert set(enriched.keywords) == {"solar", "wind", "power"}
        assert enriched.label == "".join(
            w.capitalize() for w in enriched.keywords[:2]
        )

    def test_counts_sum_over_members(self):
        lexicon = {"angry": "anger"}
        texts = {"u1": ["angry words. more?"], "u2": ["calm!", ""]}
        vectors, _, counts = user_vectors(texts, 64, lexicon)
        assert counts["u1"] == TextCounts(3, 2, 1, 0, Counter(anger=1))
        assert counts["u2"] == TextCounts(1, 1, 0, 1, Counter())
        agent = AgentProfile("A000", "Agent000", ("u1", "u2"), np.zeros(64))
        enriched = enrich(agent, [counts["u1"], counts["u2"]], lexicon, {}, vectors)
        assert enriched.emotion == {"anger": 1 / 4}
        assert enriched.style == {"avg_sentence_length": 4 / 3,
                                  "question_rate": 1 / 3, "exclamation_rate": 1 / 3}

    def test_top_terms_maps_buckets_back(self):
        texts = {"u": ["alpha alpha alpha beta beta gamma"]}
        vectors, vocab, _ = user_vectors(texts, 512)
        terms = top_terms(vectors.row(0), vocab, top_k=3)
        assert terms == ["alpha", "beta", "gamma"]

    def test_lexicon_loader(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("term,emotion\nAngry,Anger\nhappy,joy\n")
        assert load_lexicon(path) == {"angry": "anger", "happy": "joy"}
        with pytest.raises(ConfigError):
            load_lexicon(tmp_path / "missing.csv")

    def test_lexicon_reads_quoted_fields(self, tmp_path):
        path = tmp_path / "lex.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(
                [["term", "emotion"], ["Happy", "joy"], ["well, fine", "calm"]])
        assert load_lexicon(path) == {"happy": "joy", "well, fine": "calm"}

    def test_lexicon_bad_row_names_its_line(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text('# demo\n\nterm,emotion\n"happy",joy\nsad\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"lex\.csv:5: expected 'term,emotion'"):
            load_lexicon(path)

    @pytest.mark.parametrize("head", ["# demo\n", "\n", "# demo\n\n", "\ufeff"],
                             ids=["comment", "blank", "comment-and-blank", "byte-order-mark"])
    def test_lexicon_header_after_comments_and_blank_lines(self, tmp_path, head):
        path = tmp_path / "lex.csv"
        path.write_text(head + "term,emotion\nhappy,joy\n", encoding="utf-8")
        assert load_lexicon(path) == {"happy": "joy"}


class TestAssignAgent:
    def make_profiles(self):
        a = AgentProfile("A000", "Alpha", ("u1", "u2"), np.ones(16))
        res = AgentProfile("A001", "GeneralChat", ("mute",), np.zeros(16))
        return [a, res]

    def test_member_index(self):
        index = build_member_index(self.make_profiles())
        assert index == {"u1": "A000", "u2": "A000", "mute": "A001"}


class TestPersistence:
    def test_profiles_round_trip(self, tmp_path):
        texts = planted_users(4)
        lexicon = {"goal": "joy"}
        vectors, vocab, counts = user_vectors(texts, 256, lexicon)
        profiles = cluster_users(vectors, 2, seed=9)
        profiles = [
            enrich(p, [counts[u] for u in p.members], lexicon, vocab, vectors) for p in profiles
        ]
        path = tmp_path / "agents.json"
        save_profiles(profiles, path)
        loaded = load_profiles(path)
        assert [p.agent_id for p in loaded] == [p.agent_id for p in profiles]
        for a, b in zip(loaded, profiles):
            assert a.members == b.members
            assert a.keywords == b.keywords
            assert np.allclose(a.centroid, b.centroid)
        # Top-level document is a plain array of profiles.
        assert isinstance(json.loads(path.read_text()), list)

    def test_byte_identical_across_runs(self, tmp_path):
        texts = planted_users(6)
        for name in ("one.json", "two.json"):
            vectors, vocab, counts = user_vectors(texts, 256)
            profiles = cluster_users(vectors, 2, seed=4)
            profiles = [enrich(p, [counts[u] for u in p.members], {}, vocab, vectors)
                        for p in profiles]
            save_profiles(profiles, tmp_path / name)
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_embeddings_hook(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = [
            {"user": "u1", "vector": [3.0, 4.0]},
            {"user": "u2", "vector": [0.0, 1.0]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        vectors = load_embeddings(path, ["u1", "u2", "u3"])
        assert vectors.users == ("u1", "u2", "u3")
        assert np.allclose(vectors.row(0), [0.6, 0.8])
        assert not np.any(vectors.row(2))

    def test_embedding_negative_zero_reads_as_zero(self, tmp_path):
        # k-means sums only nonzeros, from 0.0; a -0.0 kept would make a
        # centroid of all -0.0 members differ from its members' mean.
        path = tmp_path / "emb.jsonl"
        path.write_text('{"user": "u1", "vector": [-0.0, 1.0]}\n'
                        '{"user": "u2", "vector": [-0.0, 2.0]}\n')
        vectors = load_embeddings(path, ["u1", "u2"])
        assert not np.signbit(vectors.values).any()
        assert not np.signbit(rows_of(vectors)).any()
        [agent] = cluster_users(vectors, 1, seed=0)
        assert agent.centroid.tobytes() == np.array([0.0, 1.0]).tobytes()

    @pytest.mark.parametrize("vector", BAD_EMBEDDING_VECTORS)
    def test_bad_embedding_vector_is_data_error(self, tmp_path, vector):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"user": "u1", "vector": [1.0, 2.0]}\n'
                        f'{{"user": "u2", "vector": {vector}}}\n')
        with pytest.raises(DataError, match="emb.jsonl:2"):
            load_embeddings(path, ["u1", "u2"])


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.lists(st.text(alphabet="xyz etaoin", max_size=30), min_size=1, max_size=3),
        min_size=2,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=999),
)
def test_cluster_partition_invariant(user_texts, seed):
    vectors, _, _ = user_vectors(user_texts, 64)
    usable = int(np.count_nonzero(np.diff(vectors.indptr)))
    if usable < 2:
        return
    profiles = cluster_users(vectors, 2, seed=seed)
    members = [u for p in profiles for u in p.members]
    assert sorted(members) == sorted(user_texts)
    assert len(members) == len(set(members))


@st.composite
def user_matrices(draw):
    """(UserVectors, k, seed): rows drawn from a small pool of sparse or signed
    vectors, so repeats make k-means++ pick equal centres and clusters empty."""
    dim = draw(st.integers(2, 12))
    entry = st.one_of(st.just(0.0), st.integers(1, 5).map(float),
                      st.floats(-1, 1, allow_subnormal=False).map(lambda x: x + 0.0))
    pool = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=14))
    matrix = np.array([pool[i] for i in picks], dtype=np.float64)
    for row in matrix:
        profiles._normalize(row)
    usable = int(matrix.any(axis=1).sum())
    assume(usable >= 1)
    users = [f"u{i:02d}" for i in range(len(matrix))]
    return user_vectors_of(users, matrix), draw(st.integers(1, usable)), draw(st.integers(0, 999))


def assert_centroids_match_the_copied_row_means(vectors, k, seed):
    """Every agent's centroid is bit-equal to the copy-based k-means' for the
    same members; returns how many empty clusters that run revived."""
    matrix = np.array(rows_of(vectors))
    usable = matrix.any(axis=1)
    assign, centroids, revivals = oracle_kmeans(matrix[usable], k, seed)
    users = np.array(vectors.users)[usable]
    expected = {tuple(users[assign == c]): centroids[c].tobytes() for c in range(k)}
    agents = [p for p in cluster_users(vectors, k, seed) if p.label != RESIDUAL_LABEL]
    assert {p.members: p.centroid.tobytes() for p in agents} == expected
    return revivals


@settings(max_examples=300, deadline=None)
@given(user_matrices())
def test_cluster_centroids_equal_the_copied_row_means(case):
    revivals = assert_centroids_match_the_copied_row_means(*case)
    event("revived an empty cluster" if revivals else "no revival")


def test_revival_never_takes_a_clusters_last_member():
    # Eleven equal rows and one other, k = 12: taking the worst-fitting
    # point of any cluster once emptied a cluster that stayed empty.
    matrix = np.zeros((12, 12))
    matrix[:, 11] = 1.0
    matrix[9] = np.eye(12)[10]
    vectors = user_vectors_of([f"u{i:02d}" for i in range(12)], matrix)
    assert assert_centroids_match_the_copied_row_means(vectors, 12, seed=0) > 0
    assert sorted(len(p.members) for p in cluster_users(vectors, 12, seed=0)) == [1] * 12


_EMBEDDING_ENTRY = st.one_of(st.just(0.0), st.just(-0.0),
                             st.floats(-1e6, 1e6, allow_subnormal=False))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.dictionaries(
    st.sampled_from(["u1", "u2", "u3", "u4"]),
    st.lists(_EMBEDDING_ENTRY, min_size=dim, max_size=dim), min_size=1)))
def test_embedding_rows_are_the_normalized_dense_rows(tmp_path_factory, table):
    # Users absent from the file, and all-zero vectors, get empty rows.
    path = tmp_path_factory.mktemp("emb") / "emb.jsonl"
    path.write_text("".join(json.dumps({"user": u, "vector": v}) + "\n" for u, v in table.items()))
    vectors = load_embeddings(path, ["u4", "u3", "u2", "u1", "u0"])
    assert vectors.users == ("u0", "u1", "u2", "u3", "u4")
    assert vectors.dim == len(next(iter(table.values())))
    assert_csr_rows(vectors)
    for user, row in zip(vectors.users, rows_of(vectors)):
        dense = np.array(table.get(user, [0.0] * vectors.dim))
        norm = np.linalg.norm(dense)
        expected = (dense / norm if norm > 0 else dense) + 0.0  # -0.0 reads as 0.0
        assert row.tobytes() == expected.tobytes()


def test_embedding_agents_take_keywords_from_their_members_terms(tmp_path):
    # Embedding dimensions are not token buckets: keywords are the top terms
    # of the normalized mean of the members' term rows, summed in row order.
    records = list(run_pipeline(make_synthetic_dump(200, 1200, seed=3).records)[-1].records)
    texts = defaultdict(list)
    for record in records:
        texts[record.author].append(record.text)
    rng = np.random.default_rng(0)
    embeddings = tmp_path / "emb.jsonl"
    embeddings.write_text("".join(
        json.dumps({"user": user, "vector": rng.normal(size=64).tolist()}) + "\n"
        for user in sorted(texts)))
    config = replace(default_config(), k_agents=4, embeddings_path=str(embeddings))
    built, _ = cli.agents_stage(records, config, tmp_path / "agents.json")
    _, vocab, _ = term_table(records)
    assert len(built) == 4
    for agent in built:
        total = np.zeros(DEFAULT_DIM)
        for user in agent.members:  # members ascend, as the rows do
            total = total + oracle_term_vector(texts[user])
        mean = total / len(agent.members)
        mean /= np.linalg.norm(mean)
        assert agent.keywords and agent.keywords == tuple(top_terms(mean, vocab))
        assert agent.label == "".join(w.capitalize() for w in agent.keywords[:2])


def test_user_rows_and_clustering_hold_no_dense_user_matrix():
    table, _, _ = term_table(make_synthetic_dump(2000, 12000).records)
    tracemalloc.start()
    try:
        cluster_users(profiles.build_user_vectors(table), 12, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(table.users) * table.dim * 8 / 4


# ---------------------------------------------------------------------------
# One tokenizer pass per text
# ---------------------------------------------------------------------------

def counting_tokenize(monkeypatch):
    """The texts ``profiles.tokenize`` is given, one entry per text, over all
    of its calls."""
    calls = []
    real = profiles.tokenize

    def tokenize_counted(texts):
        calls.extend(texts)
        return real(texts)

    monkeypatch.setattr(profiles, "tokenize", tokenize_counted)
    return calls


def final_records(seed):
    dump = make_synthetic_dump(30, 180, seed=seed)
    return list(run_pipeline(dump.records)[-1].records)


@pytest.fixture(scope="module")
def dump_files(tmp_path_factory):
    return make_synthetic_dump(30, 180, seed=5).write_dumps(tmp_path_factory.mktemp("dump"))


@pytest.mark.parametrize("vector", BAD_EMBEDDING_VECTORS)
def test_run_all_bad_embedding_vector_exits_2(dump_files, tmp_path, vector):
    posts, comments = dump_files
    embeddings = tmp_path / "emb.jsonl"
    embeddings.write_text(f'{{"user": "u1", "vector": {vector}}}\n')
    rc = cli.main(["run-all", "--posts", str(posts), "--comments", str(comments),
                   "--out", str(tmp_path / "out"), "--embeddings", str(embeddings)])
    assert rc == 2
    assert not (tmp_path / "out" / "agents.json").exists()


def test_agents_tokenize_each_record_once(monkeypatch, tmp_path):
    records = final_records(3)
    lexicon = write_lexicon_csv(tmp_path / "lexicon.csv")
    config = replace(default_config(), k_agents=3, lexicon_path=str(lexicon))
    calls = counting_tokenize(monkeypatch)
    built, _ = cli.agents_stage(records, config, tmp_path / "agents.json")
    assert len(calls) == len(records)
    assert any(any(p.emotion.values()) for p in built)


def test_chains_tokenize_each_thread_record_once(monkeypatch):
    records = final_records(4)
    threads = chains.group_threads(records)
    calls = counting_tokenize(monkeypatch)
    chains.extract_chains(records)
    assert len(calls) == sum(len(t.records) for t in threads)


def test_only_term_table_tokenizes():
    """Every term vector comes from one pass: in the package only
    ``profiles.term_table`` tokenizes and hashes tokens, and only the agents
    stage and ``extract_chains`` build a term table."""
    callers = defaultdict(set)
    for path in sorted(Path(profiles.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    callers[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers["tokenize"] == callers["token_bucket"] == {"profiles.term_table"}
    assert callers["term_table"] == {"cli.agents_stage", "chains.extract_chains"}


_ORACLE_TOKEN = re.compile(r"[a-z0-9]+")
_ORACLE_SENTENCE = re.compile(r"(?<=[.!?])\s+")


def oracle_style(texts):
    # The per-text, per-sentence computation the single pass replaced.
    sentences = questions = exclaims = token_total = 0
    for text in texts:
        stripped = text.strip()
        if not stripped:
            continue
        for segment in _ORACLE_SENTENCE.split(stripped):
            segment = segment.strip()
            if not segment:
                continue
            sentences += 1
            token_total += len(_ORACLE_TOKEN.findall(segment.lower()))
            if segment.endswith("?"):
                questions += 1
            elif segment.endswith("!"):
                exclaims += 1
    if sentences == 0:
        return {"avg_sentence_length": 0.0, "question_rate": 0.0, "exclamation_rate": 0.0}
    return {
        "avg_sentence_length": token_total / sentences,
        "question_rate": questions / sentences,
        "exclamation_rate": exclaims / sentences,
    }


def oracle_emotion(texts, lexicon):
    emotions = sorted(set(lexicon.values()))
    counts = {emotion: 0 for emotion in emotions}
    total = 0
    for text in texts:
        for token in _ORACLE_TOKEN.findall(text.lower()):
            total += 1
            if token in lexicon:
                counts[lexicon[token]] += 1
    if total == 0:
        return {emotion: 0.0 for emotion in emotions}
    return {emotion: counts[emotion] / total for emotion in emotions}


_PIECES = st.one_of(
    st.sampled_from([
        "angry", "Happy", "calm", "word", "42", " ", "  ", "\t", "\n", "\u00a0",
        "\u2003", "\u3000", "\u2028", "\x85", "\x1c", ".", "!", "?", "...", "?!",
        "!?", "İ", "Σ", "ΣA", "aΣ", "İi", "ß", "ﬁ", "\x00", "\x01", "\ud800", "\u212a",
    ]),
    st.characters(codec="utf-8"),
)
_TEXTS = st.lists(st.lists(_PIECES, max_size=12).map("".join), max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["u1", "u2", "u3"]), _TEXTS, min_size=1),
    st.dictionaries(
        st.sampled_from(["angry", "happy", "calm", "word", "42", "i", "a"]),
        st.sampled_from(["anger", "joy", "fear"]),
    ),
)
def test_counts_match_per_text_features(user_texts, lexicon):
    vectors, vocab, counts = user_vectors(user_texts, 64, lexicon)
    # Users are the authors of records, so a user without texts has none.
    members = tuple(sorted(u for u, texts in user_texts.items() if texts))
    assert sorted(counts) == list(members)
    agent = AgentProfile("A000", "Agent000", members, np.zeros(64))
    enriched = enrich(agent, [counts[u] for u in members], lexicon, vocab, vectors)
    texts = [t for u in members for t in user_texts[u]]
    assert enriched.emotion == oracle_emotion(texts, lexicon)
    assert enriched.style == oracle_style(texts)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(["u1", "u2", "u3"]), _TEXTS, min_size=1))
def test_term_vectors_match_the_reference_vectorizer(user_texts):
    # Few buckets, so colliding tokens share one.
    records = records_of(user_texts)
    table, _, _ = term_table(records, 16)
    for row, record in enumerate(records):
        assert np.array_equal(table.vector(row), oracle_term_vector([record.text], 16))
    vectors = build_user_vectors(table)
    assert_csr_rows(vectors)
    for user, row in zip(vectors.users, rows_of(vectors)):
        assert row.tobytes() == oracle_term_vector(user_texts[user], 16).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_PIECES, max_size=12).map("".join), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 99), st.integers(0, 4)), max_size=10),
       st.sampled_from([16, 4096]))
@example(["", "alpha"], [], 16)
@example(["", "ab cd ab", "cd"], [(1, 3), (0, 0), (1, 3), (2, 1), (1, 0), (2, 3)], 16)
def test_term_counts_match_the_per_token_counter(texts, picks, dim):
    """``TermTable.counts`` sums each owner's terms over repeated, unordered
    rows under unsorted, repeated owners; a record without tokens, or no
    row at all, adds nothing."""
    table, _, _ = term_table(records_of({"u": texts}), dim)
    rows = [row % len(texts) for row, _ in picks]
    owners = [owner for _, owner in picks]
    got = table.counts(np.array(rows, dtype=np.int64), np.array(owners, dtype=np.int64))
    assert list(zip(*(column.tolist() for column in got))) == oracle_term_counts(
        texts, rows, owners, dim)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u10"]),
                          st.lists(_PIECES, max_size=12).map("".join)), max_size=10),
       st.dictionaries(st.sampled_from(["angry", "happy", "calm", "word", "42", "k", "i"]),
                       st.sampled_from(["anger", "joy", "fear"])),
       st.sampled_from([1, 3, profiles.TEXT_BLOCK]), st.sampled_from([16, 4096]))
@example([("u1", "a?\x00 b"), ("u2", ""), ("u1", "\u212a! \ud800 x. ")], {"k": "joy"}, 1, 16)
def test_term_table_matches_the_per_record_oracle(rows, lexicon, block, dim):
    """Blocks of any size give the per-record pass's table, vocabulary (in
    its insertion order) and counts."""
    records = [RawRecord(id=f"r{i}", kind=RecordKind.POST, author=author, created_utc=i,
                         text=text, subreddit="s") for i, (author, text) in enumerate(rows)]
    with mock.patch.object(profiles, "TEXT_BLOCK", block):
        table, vocab, counts = term_table(records, dim, lexicon)
    want_table, want_vocab, want_counts = oracle_term_table(records, dim, lexicon)
    assert (table.dim, table.users) == (want_table.dim, want_table.users)
    for name in ("buckets", "offsets", "user_of"):
        got, want = getattr(table, name), getattr(want_table, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    assert [(b, list(c.items())) for b, c in vocab.items()] == [
        (b, list(c.items())) for b, c in want_vocab.items()]
    assert list(counts.items()) == list(want_counts.items())


def test_run_all_tokenizes_each_final_record_once(monkeypatch, dump_files, tmp_path):
    posts, comments = dump_files
    out = tmp_path / "out"
    config = replace(default_config(), k_agents=3, posts_path=str(posts),
                     comments_path=str(comments), out_dir=str(out))
    calls = counting_tokenize(monkeypatch)
    assert cli.run_all(config) == 0
    final = json.loads((out / "run_manifest.json").read_text())["stage_counts"][-1]
    assert len(calls) == final["posts"] + final["comments"]
    assert (out / "chains.jsonl").read_text()
