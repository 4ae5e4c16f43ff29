"""The layout of the CSV and JSONL artifacts: each writer's bytes against an
oracle that spells every field itself, README's quoted headers against
the field lists the writers use, and README's run-all artifact list against
the files a run writes."""

import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from latentgraph.chains import CENSUS_CSV_FIELDS
from latentgraph.cli import run_all
from latentgraph.config import default_config
from latentgraph.graph import (
    InteractionGraph,
    build,
    load_graph_edges_csv,
    write_graph_edges_csv,
)
from latentgraph.inference import (
    EDGES_CSV_FIELDS,
    GRAPH_EDGES_CSV_FIELDS,
    TIMELINE_CSV_FIELDS,
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    TimelineRow,
    load_edges_csv,
    write_timeline_csv,
)
from latentgraph.synthetic import make_synthetic_dump
from latentgraph.temporal import (
    SWEEP_CSV_FIELDS,
    TRIADS_CSV_FIELDS,
    SweepCell,
    SweepReport,
    write_sweep_csv,
)
from oracles import oracle_csv_bytes, oracle_write_edges_csv

README = Path(__file__).resolve().parent.parent / "README.md"

# Ids that need quoting or hold line breaks, and any other text.
ids = st.one_of(st.sampled_from(["a", "a,b", 'say "hi"', "line\nbreak", "cr\rx", " pad "]),
                st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6))
# Times beyond the int64 range, both ways, and None.
times = st.one_of(st.none(), st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7]),
                  st.integers(-(2**70), 2**70))
counts = st.integers(0, 10**6)
statuses = st.sampled_from(list(FollowStatus))
# None metrics, floats that only repr spells exactly, and any other float.
metrics = st.one_of(st.none(), st.sampled_from([1e-06, 0.1 + 0.2, -0.0]), st.floats())

edges = st.builds(FollowEdge, source=ids, target=ids, windows_hit=counts,
                  total_comments=counts, status=statuses, first_seen=times,
                  last_seen=times, status_time=times)
timeline_rows = st.builds(TimelineRow, time=st.integers(-(2**70), 2**70), source=ids,
                          target=ids, status=statuses)
cells = st.builds(SweepCell, window_days=st.one_of(st.integers(1, 400), metrics.filter(bool)),
                  maybe_min=counts, forsure_min=counts,
                  coverage=st.one_of(st.sampled_from([0, 0.0, 1e-06, 0.1 + 0.2]), st.floats()),
                  nodes=counts, edges=counts, clustering=metrics, reciprocity=metrics,
                  modularity=metrics)


def written(write, artifact) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.csv"
        write(artifact, path)
        return path.read_bytes()


def edge_fields(e: FollowEdge) -> list:
    return [e.source, e.target, e.status, e.windows_hit, e.total_comments,
            e.first_seen, e.last_seen, e.status_time]


@settings(max_examples=60, deadline=None)
@given(st.lists(edges, max_size=6), st.lists(timeline_rows, max_size=6),
       st.lists(cells, max_size=6))
def test_csv_writers_spell_every_field_as_the_oracle(edge_list, rows, cell_list):
    # edges.csv is written from a pair table's columns; its spelling is
    # checked in test_inference.py::test_column_writer_matches_the_per_edge_writer.
    graph = InteractionGraph(nodes=(), edges=tuple(edge_list))
    assert written(write_graph_edges_csv, graph) == oracle_csv_bytes(
        GRAPH_EDGES_CSV_FIELDS, [edge_fields(e) + [e.total_comments] for e in edge_list])
    assert written(write_timeline_csv, rows) == oracle_csv_bytes(
        TIMELINE_CSV_FIELDS, [[r.time, r.source, r.target, r.status] for r in rows])
    assert written(write_sweep_csv, SweepReport(tuple(cell_list))) == oracle_csv_bytes(
        SWEEP_CSV_FIELDS,
        [[c.window_days, c.maybe_min, c.forsure_min, c.coverage, c.nodes, c.edges,
          c.clustering, c.reciprocity, c.modularity] for c in cell_list])


# Ids with a carriage return: the csv module quotes only the characters of
# its line terminator, so "\r" has to be asked for.
CR_EDGES = [
    FollowEdge("a\rb", "c", 1, 2, FollowStatus.MAYBE, 10, 20, 15),
    FollowEdge("c", "\r", 3, 4, FollowStatus.FORSURE, 5, 40, None),
    FollowEdge("x\r\ny", "tail\r", 1, 1, FollowStatus.MAYBE, None, None, None),
    FollowEdge("plain", "a\rb", 2, 6, FollowStatus.FORSURE, 1, 2, 3),
]


def test_edges_csv_reads_back_ids_holding_a_carriage_return(tmp_path):
    path = tmp_path / "edges.csv"
    oracle_write_edges_csv(CR_EDGES, path)
    assert load_edges_csv(path) == CR_EDGES
    assert path.read_bytes().split(b"\n")[-2] == b"plain,\"a\rb\",forsure,2,6,1,2,3"


def test_graph_edges_csv_reads_back_ids_holding_a_carriage_return(tmp_path):
    graph = build(CR_EDGES)
    path = tmp_path / "graph.edges.csv"
    write_graph_edges_csv(graph, path)
    assert load_graph_edges_csv(path) == graph


def readme_formats() -> dict[str, str]:
    """Each ``* `name` ...: `layout``` line of README's *Input formats*, by name."""
    text = README.read_text(encoding="utf-8")
    return dict(re.findall(r"^\* `([\w.]+)`(?: header)?: `([^`]+)`", text, re.MULTILINE))


def test_readme_quotes_every_csv_header_and_the_event_keys():
    quoted = readme_formats()
    headers = {
        "edges.csv": EDGES_CSV_FIELDS,
        "graph.edges.csv": GRAPH_EDGES_CSV_FIELDS,
        "timeline.csv": TIMELINE_CSV_FIELDS,
        "triads.csv": TRIADS_CSV_FIELDS,
        "census.csv": CENSUS_CSV_FIELDS,
        "sweep.csv": SWEEP_CSV_FIELDS,
    }
    for name, header in headers.items():
        assert quoted.get(name) == ",".join(header), name
    keys = re.findall(r'"(\w+)"', quoted["events.jsonl"])
    assert keys == [f.name for f in fields(InteractionEvent)]


def test_readme_names_every_file_of_a_run_all_directory(tmp_path):
    """Each file ``run-all`` writes beside the stage snapshots is named in
    README's paragraph on the run-all artifact directory."""
    posts, comments = make_synthetic_dump(30, 180, seed=5).write_dumps(tmp_path)
    out = tmp_path / "out"
    assert run_all(replace(default_config(), k_agents=4, posts_path=str(posts),
                           comments_path=str(comments), out_dir=str(out))) == 0
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("`run-all` produces the full artifact directory"):]
    named = set(re.findall(r"`([\w.]+)`", paragraph[:paragraph.index("\n\n")]))
    written = {p.name for p in out.iterdir() if not p.name.startswith("stage")}
    assert written - named == set()
