"""Rows cost only their own data: equal strings read from files are one
object, the row types carry no ``__dict__``, loading a dump or extracting
its events stays within a byte budget per row (events are columns), and a
pair table's edges hold no data per pair."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from latentgraph.chains import ChainNode, Thread
from latentgraph.inference import (
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    PairTable,
    TimelineRow,
    WindowGrid,
    extract_events,
    infer_all,
    load_edges_csv,
    load_events_jsonl,
    write_edges_csv,
    write_events_jsonl,
)
from latentgraph.ingest import (
    RawRecord,
    RecordKind,
    latest_stage_records,
    load_dump,
    run_pipeline,
    write_stages,
)
from latentgraph.profiles import term_table
from latentgraph.synthetic import make_synthetic_dump

ROOT = Path(__file__).resolve().parent.parent
RECORD_STRINGS = ("author", "subreddit", "link_id", "parent_id")


def assert_shared(rows, names):
    """Equal values of the fields ``names`` are one object across ``rows``,
    and some value does repeat."""
    first: dict[str, str] = {}
    seen = 0
    for row in rows:
        for name in names:
            value = getattr(row, name)
            if value is not None:
                seen += 1
                assert first.setdefault(value, value) is value, (name, value)
    assert len(first) < seen


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """A small synthetic dump read back from its files: (posts, comments)."""
    posts_path, comments_path = make_synthetic_dump(60, 360, seed=3).write_dumps(
        tmp_path_factory.mktemp("dump"))
    return load_dump(posts_path, RecordKind.POST)[0], load_dump(comments_path, RecordKind.COMMENT)[0]


def test_a_loaded_dump_shares_its_strings(loaded):
    posts, comments = loaded
    assert_shared(posts + comments, RECORD_STRINGS)


def test_stage_records_read_back_share_their_strings(tmp_path):
    write_stages(run_pipeline(make_synthetic_dump(60, 360, seed=3).records), tmp_path)
    stage_id, records = latest_stage_records(tmp_path)
    assert stage_id == 3
    assert_shared(records, RECORD_STRINGS)


def test_events_and_edges_read_back_share_their_names(loaded, tmp_path):
    events, _ = extract_events(*loaded)
    write_events_jsonl(events, tmp_path / "events.jsonl")
    events = load_events_jsonl(tmp_path / "events.jsonl")
    assert_shared(events, ("source", "target", "post_id"))
    write_edges_csv(infer_all(events, WindowGrid.from_events(events, 86400)),
                    tmp_path / "edges.csv")
    assert_shared(load_edges_csv(tmp_path / "edges.csv"), ("source", "target"))


@pytest.mark.parametrize("row", [
    RawRecord("c1", RecordKind.COMMENT, "bob", 200, "text", "s", "p1", "p1"),
    InteractionEvent("bob", "alice", 200, "p1", "c1"),
    FollowEdge("bob", "alice", 2, 3, FollowStatus.MAYBE),
    ChainNode("c1", "agent_0", 200),
    Thread(RawRecord("p1", RecordKind.POST, "alice", 100, "text", "s"), ()),
    TimelineRow(200, "bob", "alice", FollowStatus.MAYBE),
], ids=lambda row: type(row).__name__)
def test_row_types_carry_no_dict(row):
    assert not hasattr(row, "__dict__")


# Run in a fresh process, so the budget does not depend on which strings an
# earlier test left interned.
BUDGET_SCRIPT = textwrap.dedent("""
    import json, sys, tracemalloc
    from pathlib import Path
    from latentgraph.inference import extract_events
    from latentgraph.ingest import RecordKind, load_dump
    from latentgraph.synthetic import make_synthetic_dump

    paths = make_synthetic_dump(1000, 6000, seed=0).write_dumps(Path(sys.argv[1]))
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    posts, _ = load_dump(paths[0], RecordKind.POST)
    comments, _ = load_dump(paths[1], RecordKind.COMMENT)
    loaded = tracemalloc.get_traced_memory()[0]
    events, _ = extract_events(posts, comments)
    extracted = tracemalloc.get_traced_memory()[0]
    print(json.dumps({"per_record": (loaded - before) / (len(posts) + len(comments)),
                      "per_event": (extracted - loaded) / len(events)}))
""")


@pytest.fixture(scope="module")
def held(tmp_path_factory):
    """The budget script's bytes per record and per event."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", BUDGET_SCRIPT,
                             str(tmp_path_factory.mktemp("budget"))], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_rows_stay_within_their_byte_budget(held):
    """Bytes held per loaded record and per extracted event, under tracemalloc."""
    assert held["per_record"] <= 400, held
    assert held["per_event"] <= 96, held


def test_events_are_held_as_columns(held):
    """``extract_events`` holds at most 40 bytes per event: a few int columns
    and one reference to the comment's id."""
    assert held["per_event"] <= 40, held


def test_pair_edges_hold_no_per_pair_array():
    """``PairTable.edges`` returns a view: over the pairs of the 1k-post /
    6k-comment user-level events it holds under 1 KiB, no array of them."""
    dump = make_synthetic_dump(1000, 6000, seed=0)
    events, _ = extract_events(dump.posts, dump.comments)
    table = PairTable(events)
    grid = WindowGrid.from_events(events, 86400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        edges = table.edges(grid, 2, 3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(edges) > 1000
    assert held < 1024, held


def test_term_table_transients_stay_per_block():
    """``term_table`` over the 10k-post / 60k-comment final records peaks at
    most 2 MiB above what it returns: each block's joined text and tokens
    are let go before the next, and counts are summed per author."""
    records = list(run_pipeline(make_synthetic_dump(10_000, 60_000, seed=0).records)[-1].records)
    tracemalloc.start()
    try:
        result = term_table(records)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0].offsets) == len(records) + 1
    assert peak - held <= 2 * 1024 * 1024, (peak - held)
