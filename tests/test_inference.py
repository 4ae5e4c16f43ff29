import itertools
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from latentgraph import inference
from latentgraph.cli import run_all
from latentgraph.config import default_config
from latentgraph.errors import ConfigError
from latentgraph.ingest import RawRecord, RecordKind, compact_json, row_dict
from latentgraph.inference import (
    EDGE_BLOCK,
    EDGES_CSV_FIELDS,
    EventTable,
    FollowStatus,
    InteractionEvent,
    PairTable,
    WindowGrid,
    classify,
    event_timeline,
    extract_events,
    infer_all,
    load_edges_csv,
    load_events_jsonl,
    write_edges_csv,
    write_events_jsonl,
    write_timeline_csv,
)
from latentgraph.synthetic import make_synthetic_dump
from latentgraph.temporal import SnapshotConfig, snapshot_series, sweep
from oracles import oracle_classify, oracle_csv_bytes, oracle_write_edges_csv


def ev(source="u", target="v", time=0, cid="c0"):
    return InteractionEvent(source=source, target=target, time=time,
                            post_id="p0", comment_id=cid)


def events_at(times, source="u", target="v"):
    return [ev(source, target, t, f"c{i:03d}") for i, t in enumerate(times)]


DAY = 86400


class TestWindowGrid:
    def test_from_events_spans_data(self):
        grid = WindowGrid.from_events(events_at([100, 100 + 3 * DAY]), DAY)
        assert grid.origin == 100
        assert grid.n == 4
        assert grid.index(100) == 0
        assert grid.index(100 + 3 * DAY) == 3

    def test_empty_events(self):
        grid = WindowGrid.from_events([], DAY)
        assert grid.n == 0

    def test_out_of_range_time(self):
        grid = WindowGrid.from_events(events_at([0, DAY]), DAY)
        with pytest.raises(ValueError):
            grid.index(5 * DAY)


class TestClassify:
    def test_single_window_is_none(self):
        evs = events_at([10, 20, 30, 40, 50])
        grid = WindowGrid.from_events(evs, DAY)
        edge = classify(evs, grid)
        assert edge.windows_hit == 1
        assert edge.total_comments == 5
        assert edge.status is FollowStatus.NONE

    def test_two_windows_is_maybe(self):
        evs = events_at([10, DAY + 10])
        grid = WindowGrid.from_events(evs, DAY)
        assert classify(evs, grid).status is FollowStatus.MAYBE

    def test_three_windows_is_forsure(self):
        evs = events_at([10, DAY + 10, 2 * DAY + 10])
        grid = WindowGrid.from_events(evs, DAY)
        assert classify(evs, grid).status is FollowStatus.FORSURE

    def test_empty_events(self):
        edge = classify([], WindowGrid(0, DAY, 0))
        assert edge.status is FollowStatus.NONE
        assert edge.windows_hit == 0 and edge.total_comments == 0

    def test_mixed_pair_rejected(self):
        evs = [ev("a", "b", 10), ev("a", "c", 20, "c1")]
        with pytest.raises(ValueError):
            classify(evs, WindowGrid.from_events(evs, DAY))

    def test_status_time_at_threshold_crossing(self):
        # Grid origin is 100; windows activate at 100, DAY+105, 3*DAY+107.
        times = [100, 140, DAY + 105, DAY + 109, 3 * DAY + 107]
        evs = events_at(times)
        grid = WindowGrid.from_events(evs, DAY)
        edge = classify(evs, grid)
        assert edge.status is FollowStatus.FORSURE
        assert edge.maybe_time == DAY + 105
        assert edge.forsure_time == 3 * DAY + 107
        assert edge.status_time == 3 * DAY + 107
        assert edge.first_seen == 100 and edge.last_seen == 3 * DAY + 107
        assert edge.first_seen <= edge.status_time <= edge.last_seen

    def test_threshold_validation(self):
        evs = events_at([1])
        grid = WindowGrid.from_events(evs, DAY)
        with pytest.raises(ConfigError):
            classify(evs, grid, maybe_min=0)
        with pytest.raises(ConfigError):
            classify(evs, grid, maybe_min=3, forsure_min=2)


def random_stream(rng: random.Random):
    n_ids = rng.randint(2, 10)
    ids = [f"u{i}" for i in range(n_ids)]
    window_len = rng.choice([3600, DAY, 7 * DAY, 30 * DAY, 100, 17])
    n_events = rng.randint(1, 200)
    # Span bounded in window units so the materializing oracle stays cheap.
    span = window_len * rng.randint(1, 60)
    events = []
    for i in range(n_events):
        src, tgt = rng.sample(ids, 2)
        events.append(
            InteractionEvent(source=src, target=tgt, time=rng.randint(0, span),
                             post_id="p", comment_id=f"c{i:04d}")
        )
    return events, window_len


class TestOracleEquivalence:
    def test_thousand_random_streams(self):
        rng = random.Random(20260809)
        mismatches = 0
        for _ in range(1000):
            events, window_len = random_stream(rng)
            grid = WindowGrid.from_events(events, window_len)
            maybe_min = rng.randint(1, 4)
            forsure_min = maybe_min + rng.randint(0, 3)
            pairs = {}
            for event in events:
                pairs.setdefault((event.source, event.target), []).append(event)
            for pair_events in pairs.values():
                got = classify(pair_events, grid, maybe_min, forsure_min)
                want = oracle_classify(pair_events, grid, maybe_min, forsure_min)
                if got != want:
                    mismatches += 1
        assert mismatches == 0


class TestInferAll:
    def test_empty(self):
        assert list(infer_all([], WindowGrid(0, DAY, 0))) == []

    def test_planted_statuses(self):
        evs = []
        evs += events_at([10, 20], "a", "b")                       # one window
        evs += events_at([30], "b", "a")                           # one window
        evs += events_at([5, DAY + 5], "c", "d")                   # two windows
        evs += events_at([5, DAY + 5, 2 * DAY + 5], "d", "c")      # three windows
        grid = WindowGrid.from_events(evs, DAY)
        edges = {(e.source, e.target): e.status for e in infer_all(evs, grid)}
        assert edges == {
            ("a", "b"): FollowStatus.NONE,
            ("b", "a"): FollowStatus.NONE,
            ("c", "d"): FollowStatus.MAYBE,
            ("d", "c"): FollowStatus.FORSURE,
        }

    def test_order_invariance(self):
        rng = random.Random(5)
        events, window_len = random_stream(rng)
        grid = WindowGrid.from_events(events, window_len)
        shuffled = list(events)
        rng.shuffle(shuffled)
        assert list(infer_all(events, grid)) == list(infer_all(shuffled, grid))

    def test_output_sorted_by_pair(self):
        evs = events_at([10], "z", "a") + events_at([20], "a", "z")
        grid = WindowGrid.from_events(evs, DAY)
        edges = infer_all(evs, grid)
        assert [(e.source, e.target) for e in edges] == [("a", "z"), ("z", "a")]


class TestThresholdSemantics:
    def test_infinite_forsure_never_confirms(self):
        rng = random.Random(6)
        events, window_len = random_stream(rng)
        grid = WindowGrid.from_events(events, window_len)
        edges = infer_all(events, grid, maybe_min=2, forsure_min=10**9)
        assert all(e.status is not FollowStatus.FORSURE for e in edges)

    def test_maybe_min_one_promotes_everyone(self):
        rng = random.Random(7)
        events, window_len = random_stream(rng)
        grid = WindowGrid.from_events(events, window_len)
        edges = infer_all(events, grid, maybe_min=1, forsure_min=3)
        assert all(e.status is not FollowStatus.NONE for e in edges)

    def test_forsure_nested_in_maybe_candidates(self):
        rng = random.Random(8)
        events, window_len = random_stream(rng)
        grid = WindowGrid.from_events(events, window_len)
        edges = infer_all(events, grid)
        for edge in edges:
            if edge.status is FollowStatus.FORSURE:
                assert edge.windows_hit >= 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=1, max_value=10**6),
)
def test_monotonicity_new_window_never_demotes(times, extra_time, window_len):
    evs = events_at(times)
    all_times = times + [extra_time]
    grid = WindowGrid.from_events(events_at(all_times), window_len)
    before = classify(evs, grid)
    after = classify(events_at(all_times), grid)
    assert after.status.rank >= before.status.rank


# Ids from beyond ASCII: lone surrogates, astral characters, and each id's
# twin with a trailing NUL, which a fixed-width numpy string would drop.
ID_TEXT = st.text(st.one_of(st.characters(min_codepoint=0x80), st.characters(categories=["Cs"])),
                  min_size=1, max_size=3)


# Ids a UTF-8 file can hold (no lone surrogate), with the characters a CSV
# field must quote.
CSV_ID_TEXT = st.text(st.one_of(st.characters(min_codepoint=0x80, exclude_categories=["Cs"]),
                                st.sampled_from(',"\r\n')),
                      min_size=1, max_size=3)


@st.composite
def pair_streams(draw, id_text=ID_TEXT):
    names = draw(st.lists(id_text, min_size=1, max_size=3, unique=True))
    pool = names + [name + "\x00" for name in names]
    base = draw(st.sampled_from([0, -10**9, 2**62 - 100, 2**70, -(2**70)]))
    rows = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                                   st.integers(min_value=0, max_value=60)),
                         min_size=1, max_size=40))
    events = [ev(source, target, base + t, f"c{i:03d}") for i, (source, target, t) in enumerate(rows)]
    cutoffs = draw(st.lists(st.integers(min_value=-2, max_value=62).map(lambda t: base + t),
                            max_size=4))
    times = [e.time for e in events]
    return events, [None, min(times) - 1, max(times) + 1] + cutoffs


@settings(max_examples=150, deadline=None)
@given(
    pair_streams(),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
)
def test_pair_table_at_cutoff_matches_oracle_on_filtered_events(stream, window_len, maybe_min,
                                                                extra):
    """The table's edges at a cutoff are the oracle on each pair's events up
    to it, in Python's sorted (source, target) order."""
    events, cutoffs = stream
    grid = WindowGrid.from_events(events, window_len)
    forsure_min = maybe_min + extra
    table = PairTable(events)
    for cutoff in cutoffs:
        by_pair: dict[tuple[str, str], list[InteractionEvent]] = {}
        for e in events:
            if cutoff is None or e.time <= cutoff:
                by_pair.setdefault((e.source, e.target), []).append(e)
        want = [oracle_classify(by_pair[key], grid, maybe_min, forsure_min)
                for key in sorted(by_pair)]
        assert list(table.edges(grid, maybe_min, forsure_min, cutoff)) == want


@settings(max_examples=100, deadline=None)
@given(
    pair_streams(CSV_ID_TEXT),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2, 5, EDGE_BLOCK]),
)
def test_column_writer_matches_the_per_edge_writer(stream, window_len, maybe_min, extra, block):
    """edges.csv written from the pair table, one block of pairs at a time,
    has the bytes of the per-edge writer over the built edges and of
    the oracle's spelling of their fields; and iteration, ``follows()`` and
    the pair count agree."""
    events, cutoffs = stream
    grid = WindowGrid.from_events(events, window_len)
    table = PairTable(events)
    with mock.patch.object(inference, "EDGE_BLOCK", block), tempfile.TemporaryDirectory() as tmp:
        columns, reference = Path(tmp) / "columns.csv", Path(tmp) / "reference.csv"
        for cutoff in cutoffs:
            view = table.edges(grid, maybe_min, maybe_min + extra, cutoff)
            edges = list(view)
            assert view.follows() == [e for e in edges if e.status is not FollowStatus.NONE]
            assert len(view) == len(edges)
            write_edges_csv(view, columns)
            oracle_write_edges_csv(view, reference)
            assert columns.read_bytes() == reference.read_bytes() == oracle_csv_bytes(
                EDGES_CSV_FIELDS, [[getattr(e, name) for name in EDGES_CSV_FIELDS] for e in edges])


def pair_rows(table: PairTable) -> list[tuple[str, str, list[int]]]:
    """Each pair of a pair table as (source, target, its times), in table order."""
    return [(table.ids[s], table.ids[t], table.times[a:b].tolist()) for s, t, a, b
            in zip(table.source, table.target, table.bounds[:-1], table.bounds[1:])]


def consumer_results(events, window_len: int, cutoffs) -> tuple:
    """What every reader of events makes of them: the pair table's rows, the
    grid, every edge, a sweep's cells and the snapshot reports."""
    grid = WindowGrid.from_events(events, window_len)
    checkpoints = sorted(c for c in cutoffs if c is not None)
    return (pair_rows(PairTable(events)), grid, list(infer_all(events, grid)),
            sweep(events, [window_len / DAY], forsure_min_list=[2, 3]),
            snapshot_series(events, grid, SnapshotConfig(), checkpoints))


ROW_BLOCKS = st.sampled_from([1, 3, inference.ROW_BLOCK])


@settings(max_examples=60, deadline=None)
@given(pair_streams(), st.integers(min_value=1, max_value=15), ROW_BLOCKS)
def test_an_event_table_reads_as_its_list(stream, window_len, block):
    """An ``EventTable`` reads as the list of its events: the same length and
    iteration, whatever the rows per block; ``EventTable.of`` takes a table
    as it is; and every consumer, the pair table, grid, inference, sweep and
    snapshots, gives the table what it gives the list."""
    events, cutoffs = stream
    table = EventTable.of(events)
    with mock.patch.object(inference, "ROW_BLOCK", block):
        assert len(table) == len(events) and list(table) == events
        assert EventTable.of(table) is table
    pairs = [(key, [t for *_, t in rows]) for key, rows in itertools.groupby(
        sorted((e.source, e.target, e.time) for e in events), key=lambda row: row[:2])]
    assert pair_rows(PairTable(table)) == [(*key, times) for key, times in pairs]
    assert consumer_results(table, window_len, cutoffs) == consumer_results(
        events, window_len, cutoffs)


# Text a JSON encoder must escape: non-ASCII and astral characters, lone
# surrogates, control characters, quotes and backslashes.
JSON_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]),
                              st.sampled_from('"\\/\x00\x1f\x7f\u2028')),
                    min_size=1, max_size=6)
EVENT_TIMES = st.one_of(st.integers(), st.integers(min_value=-2**70, max_value=2**70),
                        st.sampled_from([2**62, 2**63, -2**63 - 1, 2**64]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(InteractionEvent, JSON_TEXT, JSON_TEXT, EVENT_TIMES, JSON_TEXT,
                          JSON_TEXT), max_size=12), ROW_BLOCKS)
def test_the_event_writer_spells_each_row_as_json(events, block):
    """events.jsonl, written by one template from the columns, has the bytes
    of the generic encoder over each event's fields, whatever the rows per
    block; reading it back gives what ``json`` reads from those bytes (a
    surrogate pair reads back as one character), and writing the table read
    back gives the same bytes."""
    want = "".join(compact_json(row_dict(event)) + "\n" for event in events).encode()
    with mock.patch.object(inference, "ROW_BLOCK", block), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        write_events_jsonl(events, path)
        assert path.read_bytes() == want
        loaded = load_events_jsonl(path)
        assert list(loaded) == [InteractionEvent(**json.loads(line))
                                for line in want.splitlines()]
        write_events_jsonl(loaded, path)
        assert path.read_bytes() == want


RUN_ARTIFACTS = ("edges.csv", "timeline.csv", "graph.graphml", "graph.edges.csv",
                 "metrics.json", "triads.csv")


def test_block_size_leaves_every_result_unchanged(tmp_path):
    """A user-level run, a sweep and snapshots over its events give the same
    bytes, counts, cells and reports whatever the number of pairs per block."""
    posts, comments = make_synthetic_dump(200, 1200, seed=1).write_dumps(tmp_path)
    results = []
    for block in (1, 7, EDGE_BLOCK):
        out = tmp_path / f"block{block}"
        config = replace(default_config(), level="user", k_agents=4, posts_path=str(posts),
                         comments_path=str(comments), out_dir=str(out))
        with mock.patch.object(inference, "EDGE_BLOCK", block):
            assert run_all(config) == 0
            events = load_events_jsonl(out / "events.jsonl")
            grid = WindowGrid.from_events(events, 30 * DAY)
            checkpoints = [grid.origin + k * grid.window_len for k in range(0, grid.n, 4)]
            results.append((
                [(out / name).read_bytes() for name in RUN_ARTIFACTS],
                json.loads((out / "run_manifest.json").read_text())["inference"],
                sweep(events, [7, 30], forsure_min_list=[2, 3]),
                snapshot_series(events, grid, SnapshotConfig(), checkpoints),
            ))
    assert results[0][1]["pairs"] > results[0][1]["maybe"] > 0
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("outside", [-1, 3 * DAY])
def test_event_outside_the_grid_is_rejected(outside):
    evs = events_at([0, DAY])
    grid = WindowGrid.from_events(evs, DAY)
    with pytest.raises(ValueError, match="outside the window grid"):
        infer_all(evs + events_at([outside], "v", "u"), grid)


class TestExtractEvents:
    def post(self, pid, author, t):
        return RawRecord(id=pid, kind=RecordKind.POST, author=author,
                         created_utc=t, text="t", subreddit="s")

    def com(self, cid, author, t, link, parent):
        return RawRecord(id=cid, kind=RecordKind.COMMENT, author=author,
                         created_utc=t, text="c", subreddit="s",
                         link_id=link, parent_id=parent)

    def test_comment_on_post(self):
        posts = [self.post("p1", "B", 100)]
        comments = [self.com("c1", "A", 150, "p1", "p1")]
        events, stats = extract_events(posts, comments)
        assert len(events) == 1
        [event] = events
        assert (event.source, event.target, event.time) == ("A", "B", 150)

    def test_self_reply_dropped(self):
        posts = [self.post("p1", "A", 100)]
        comments = [self.com("c1", "A", 150, "p1", "p1")]
        events, stats = extract_events(posts, comments)
        assert list(events) == []
        assert stats.self_replies == 1

    def test_reply_chain_both_directions(self):
        posts = [self.post("p1", "B", 100)]
        comments = [
            self.com("c1", "A", 150, "p1", "p1"),
            self.com("c2", "B", 200, "p1", "c1"),
        ]
        events, _ = extract_events(posts, comments)
        assert [(e.source, e.target) for e in events] == [("A", "B"), ("B", "A")]

    def test_parent_resolved_by_kind(self):
        """Posts and comments are numbered apart: a top-level reply to post
        ``abc`` answers the post even though a comment ``abc`` exists."""
        posts = [self.post("abc", "alice", 100), self.post("p2", "dave", 100)]
        comments = [
            self.com("abc", "bob", 120, "p2", "p2"),
            self.com("c1", "carol", 150, "abc", "abc"),
            self.com("c2", "erin", 160, "p2", "abc"),
        ]
        events, stats = extract_events(posts, comments)
        assert [(e.source, e.target) for e in events] == [
            ("bob", "dave"), ("carol", "alice"), ("erin", "bob")]
        assert stats.orphans == 0

    def test_reply_to_a_missing_post_is_an_orphan(self):
        """A top-level reply never falls back to a comment of the same id."""
        comments = [self.com("abc", "bob", 120, "p2", "p2"),
                    self.com("c1", "carol", 150, "abc", "abc")]
        events, stats = extract_events([self.post("p2", "dave", 100)], comments)
        assert [(e.source, e.target) for e in events] == [("bob", "dave")]
        assert stats.orphans == 1

    def test_orphan_counted(self):
        events, stats = extract_events([], [self.com("c1", "A", 9, "p9", "p9")])
        assert list(events) == [] and stats.orphans == 1

    def test_id_map_to_agents(self):
        posts = [self.post("p1", "B", 100)]
        comments = [self.com("c1", "A", 150, "p1", "p1")]
        events, _ = extract_events(posts, comments, {"A": "AG1", "B": "AG2"})
        assert [(e.source, e.target) for e in events] == [("AG1", "AG2")]

    def test_same_agent_reply_is_self_reply(self):
        posts = [self.post("p1", "B", 100)]
        comments = [self.com("c1", "A", 150, "p1", "p1")]
        events, stats = extract_events(posts, comments, {"A": "AG", "B": "AG"})
        assert list(events) == [] and stats.self_replies == 1


class TestTimeline:
    def test_single_maybe_edge(self):
        evs = events_at([10, DAY + 10])
        grid = WindowGrid.from_events(evs, DAY)
        rows = event_timeline(infer_all(evs, grid))
        assert len(rows) == 1
        assert rows[0].time == DAY + 10
        assert rows[0].status is FollowStatus.MAYBE

    def test_maybe_then_forsure_two_rows(self):
        evs = events_at([10, DAY + 10, 2 * DAY + 10])
        grid = WindowGrid.from_events(evs, DAY)
        rows = event_timeline(infer_all(evs, grid))
        assert [r.status for r in rows] == [FollowStatus.MAYBE, FollowStatus.FORSURE]
        assert rows[0].time < rows[1].time

    def test_none_edges_excluded(self):
        evs = events_at([10, 20])
        grid = WindowGrid.from_events(evs, DAY)
        assert event_timeline(infer_all(evs, grid)) == []

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "timeline.csv"
        write_timeline_csv([], path)
        assert path.read_text() == "time,source,target,status\n"


class TestPersistence:
    def test_edges_csv_round_trip(self, tmp_path):
        rng = random.Random(30)
        events, window_len = random_stream(rng)
        grid = WindowGrid.from_events(events, window_len)
        edges = infer_all(events, grid)
        path = tmp_path / "edges.csv"
        write_edges_csv(edges, path)
        loaded = load_edges_csv(path)
        for got, want in zip(loaded, edges):
            assert (got.source, got.target, got.status) == (want.source, want.target, want.status)
            assert got.windows_hit == want.windows_hit
            assert got.total_comments == want.total_comments
            assert got.first_seen == want.first_seen
            assert got.status_time == want.status_time
        assert path.read_text().splitlines()[0] == (
            "source,target,status,windows_hit,total_comments,first_seen,last_seen,status_time"
        )

    def test_events_jsonl_round_trip(self, tmp_path):
        events = events_at([5, 10, 15], "x", "y")
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, path)
        assert list(load_events_jsonl(path)) == events
