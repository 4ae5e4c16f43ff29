import itertools
import random

import pytest

from latentgraph.errors import ConfigError

from latentgraph.inference import (
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    WindowGrid,
    infer_all,
)
from latentgraph import graph as graphmod, metrics as metricsmod
from latentgraph.graph import apply_coverage, build
from latentgraph.metrics import (
    UndefinedMetricError,
    clustering,
    communities,
    full_report,
    reciprocity,
)
from latentgraph.temporal import (
    SnapshotConfig,
    snapshot_series,
    sweep,
    triad_series,
    triangle_closures,
    write_sweep_csv,
    write_triads_csv,
)
from oracles import oracle_triangle_count, random_digraph

DAY = 86400
MAYBE, FORSURE = FollowStatus.MAYBE, FollowStatus.FORSURE


def edge(src, tgt, first_seen, status=MAYBE):
    return FollowEdge(
        source=src, target=tgt, windows_hit=2, total_comments=3, status=status,
        first_seen=first_seen, last_seen=first_seen + 10, status_time=first_seen + 5,
    )


class TestTriadSeries:
    def test_single_triangle_closure_interval(self):
        edges = [
            edge("a", "b", 0),
            edge("b", "c", 10 * DAY),
            edge("c", "a", 400 * DAY),
        ]
        series = triad_series(edges, 182 * DAY)
        assert series.n_intervals == 3
        assert series.cumulative_all == (0, 0, 1)
        assert series.new_all == (0, 0, 1)

    def test_single_edge_all_zero(self):
        series = triad_series([edge("a", "b", 5)], 182 * DAY)
        assert series.n_intervals == 1
        assert series.cumulative_all == (0,)
        assert series.cumulative_forsure == (0,)

    def test_maybe_only_triangle_flat_forsure(self):
        edges = [edge("a", "b", 0), edge("b", "c", DAY), edge("c", "a", 2 * DAY)]
        series = triad_series(edges, 182 * DAY)
        assert series.cumulative_all[-1] == 1
        assert all(v == 0 for v in series.cumulative_forsure)

    def test_forsure_subset_pointwise(self):
        rng = random.Random(3)
        for _ in range(50):
            edges = []
            n = rng.randint(3, 9)
            for _ in range(rng.randint(2, 20)):
                u, v = rng.sample(range(n), 2)
                edges.append(
                    edge(f"n{u}", f"n{v}", rng.randint(0, 600) * DAY,
                         rng.choice([MAYBE, FORSURE]))
                )
            series = triad_series(edges, 182 * DAY)
            for cum_fs, cum_all in zip(series.cumulative_forsure, series.cumulative_all):
                assert cum_fs <= cum_all

    def test_cumulative_nondecreasing_and_diff(self):
        rng = random.Random(4)
        edges = [
            edge(f"n{rng.randint(0, 6)}", f"m{rng.randint(0, 6)}",
                 rng.randint(0, 500) * DAY, rng.choice([MAYBE, FORSURE]))
            for _ in range(30)
        ]
        series = triad_series(edges, 120 * DAY)
        for prev, cur, new in zip(
            (0,) + series.cumulative_all, series.cumulative_all, series.new_all
        ):
            assert cur >= prev
            assert new == cur - prev

    def test_interval_refinement_keeps_totals(self):
        rng = random.Random(5)
        edges = [
            edge(f"n{rng.randint(0, 8)}", f"m{rng.randint(0, 8)}",
                 rng.randint(0, 700) * DAY)
            for _ in range(40)
        ]
        coarse = triad_series(edges, 182 * DAY)
        fine = triad_series(edges, 91 * DAY)
        assert coarse.cumulative_all[-1] == fine.cumulative_all[-1]
        assert coarse.cumulative_forsure[-1] == fine.cumulative_forsure[-1]

    def test_empty(self):
        series = triad_series([], 182 * DAY)
        assert series.n_intervals == 0

    def test_status_time_variant(self):
        edges = [edge("a", "b", 0), edge("b", "c", 0), edge("c", "a", 0)]
        series = triad_series(edges, DAY, use_status_time=True)
        assert series.cumulative_all[-1] == 1

    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            triad_series([], 0)


class TestTriangleCounting:
    def test_matches_cubic_brute_force(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_digraph(rng, rng.randint(3, 50), rng.uniform(0.02, 0.3))
            pair_times = {}
            for e in g.edges:
                key = (e.source, e.target) if e.source <= e.target else (e.target, e.source)
                pair_times[key] = 0
            assert len(triangle_closures(pair_times)) == oracle_triangle_count(g)


def build_event_fixture():
    """Two busy pairs early, one sparse pair later."""
    events = []
    t = 0
    for i in range(6):
        t = i * 40 * DAY
        events.append(InteractionEvent("a", "b", t + 100, "p", f"ab{i}"))
        events.append(InteractionEvent("b", "a", t + 200, "p", f"ba{i}"))
    events.append(InteractionEvent("c", "a", 400 * DAY, "p", "ca0"))
    events.append(InteractionEvent("c", "a", 460 * DAY, "p", "ca1"))
    events.sort(key=lambda e: (e.time, e.comment_id))
    return events


def busy_event_fixture():
    """The two-pair fixture plus seeded traffic among seven users."""
    rng = random.Random(11)
    extra = []
    for i in range(80):
        u, v = rng.sample("abcdefg", 2)
        extra.append(InteractionEvent(u, v, rng.randint(0, 460 * DAY), "p", f"x{i:03d}"))
    return sorted(build_event_fixture() + extra, key=lambda e: (e.time, e.comment_id))


def graph_key(graph):
    return graph.nodes, tuple((e.source, e.target, e.weight) for e in graph.edges)


SWEEP_GRID = [7, 30, 90], [1, 2, 3, 4], [4, 5], [0.0, 0.05, 0.1]


def distinct_graph_keys(events, windows, maybes, forsures, coverages):
    """The key of every distinct covered graph of a sweep grid with a node,
    built directly: the sweep measures no empty graph."""
    distinct = set()
    for window_days, maybe_min, forsure_min, coverage in itertools.product(
            windows, maybes, forsures, coverages):
        grid = WindowGrid.from_events(events, window_days * DAY)
        edges = infer_all(events, grid, maybe_min, forsure_min)
        distinct.add(graph_key(apply_coverage(build(edges), coverage)))
    return distinct - {((), ())}


def defined(metric, graph):
    try:
        return metric(graph)
    except UndefinedMetricError:
        return None


class TestSnapshotSeries:
    def test_checkpoint_past_all_data_equals_global(self):
        events = build_event_fixture()
        grid = WindowGrid.from_events(events, 30 * DAY)
        config = SnapshotConfig()
        reports = snapshot_series(events, grid, config, [10**12])
        global_graph = build(infer_all(events, grid, config.maybe_min, config.forsure_min))
        assert reports[0].to_dict() == full_report(
            global_graph, seed=config.seed, config={"checkpoint": 10**12}
        ).to_dict()

    def test_checkpoint_before_first_event(self):
        events = build_event_fixture()
        grid = WindowGrid.from_events(events, 30 * DAY)
        reports = snapshot_series(events, grid, SnapshotConfig(), [0])
        assert reports[0].nodes == 0 and reports[0].edges == 0

    def test_edge_count_monotone_across_checkpoints(self):
        events = build_event_fixture()
        grid = WindowGrid.from_events(events, 30 * DAY)
        checkpoints = [50 * DAY, 150 * DAY, 300 * DAY, 500 * DAY]
        reports = snapshot_series(events, grid, SnapshotConfig(), checkpoints)
        counts = [r.edges for r in reports]
        assert counts == sorted(counts)

    def test_each_checkpoint_equals_inference_on_filtered_events(self):
        events = busy_event_fixture()
        grid = WindowGrid.from_events(events, 30 * DAY)
        config = SnapshotConfig(seed=3, known_agents=("k",))
        checkpoints = [-1, 0, 45 * DAY, 200 * DAY, 460 * DAY, 10**12]
        reports = snapshot_series(events, grid, config, checkpoints)
        for cutoff, report in zip(checkpoints, reports):
            subset = [e for e in events if e.time <= cutoff]
            edges = infer_all(subset, grid, config.maybe_min, config.forsure_min)
            graph = build(edges, known_agents=config.known_agents)
            want = full_report(graph, seed=3, config={"checkpoint": cutoff})
            assert report.to_dict() == want.to_dict()

    def test_unsorted_checkpoints_rejected(self):
        with pytest.raises(ConfigError):
            snapshot_series([], WindowGrid(0, DAY, 0), SnapshotConfig(), [5, 1])

    def test_event_outside_the_grid_rejected(self):
        events = build_event_fixture()
        grid = WindowGrid.from_events(events[:-1], 30 * DAY)
        with pytest.raises(ValueError, match="outside the window grid"):
            snapshot_series(events, grid, SnapshotConfig(), [10**12])


class TestSweep:
    def test_every_cell_matches_direct_run(self):
        events = busy_event_fixture()
        # A sweep graph holds maybe and forsure edges alike, so the window,
        # maybe_min and coverage are what change it.
        windows, maybes, forsures, coverages = SWEEP_GRID
        report = sweep(events, windows, maybes, forsures, coverages)
        params = list(itertools.product(windows, maybes, forsures, coverages))
        assert len(report.cells) == len(params)
        for cell, (window_days, maybe_min, forsure_min, coverage) in zip(report.cells, params):
            assert (cell.window_days, cell.maybe_min, cell.forsure_min, cell.coverage) == (
                window_days, maybe_min, forsure_min, coverage)
            grid = WindowGrid.from_events(events, window_days * DAY)
            edges = infer_all(events, grid, maybe_min, forsure_min)
            direct = apply_coverage(build(edges), coverage)
            assert (cell.nodes, cell.edges) == (direct.node_count, direct.edge_count)
            assert cell.clustering == defined(clustering, direct)
            assert cell.reciprocity == defined(reciprocity, direct)
            assert cell.modularity == (communities(direct)[1] if direct.node_count else None)

    def test_communities_run_once_per_distinct_graph(self, monkeypatch):
        events = busy_event_fixture()
        windows, maybes, forsures, coverages = SWEEP_GRID
        searched = []

        def spy(graph, seed=0):
            searched.append(graph_key(graph))
            return communities(graph, seed)

        monkeypatch.setattr(metricsmod, "communities", spy)
        sweep(events, windows, maybes, forsures, coverages)
        distinct = distinct_graph_keys(events, windows, maybes, forsures, coverages)
        assert sorted(searched) == sorted(distinct)
        assert len(distinct) < len(windows) * len(maybes) * len(forsures) * len(coverages)

    def test_projection_built_once_per_distinct_graph(self, projection_builds):
        events = busy_event_fixture()
        windows, maybes, forsures, coverages = SWEEP_GRID
        sweep(events, windows, maybes, forsures, coverages)
        keys = [graph_key(graph) for graph in projection_builds]
        distinct = distinct_graph_keys(events, windows, maybes, forsures, coverages)
        assert sorted(keys) == sorted(distinct)

    def test_bad_threshold_pair_rejected_before_any_cell(self, monkeypatch):
        built, real_build = [], graphmod.build
        monkeypatch.setattr(graphmod, "build",
                            lambda *args, **kwargs: built.append(args) or real_build(*args, **kwargs))
        with pytest.raises(ConfigError, match="forsure_min"):
            sweep(build_event_fixture(), [30], [2, 3], [2], [0.0])
        assert built == []

    def test_grid_shape_and_order(self):
        events = build_event_fixture()
        report = sweep(events, [7, 30, 90], [2], [2, 3, 4], [0.0])
        assert len(report.cells) == 9
        params = [(c.window_days, c.forsure_min) for c in report.cells]
        assert params == [(w, f) for w in (7, 30, 90) for f in (2, 3, 4)]

    def test_forsure_threshold_monotonicity(self):
        events = build_event_fixture()
        rng = random.Random(9)
        for _ in range(10):
            extra = [
                InteractionEvent(f"u{rng.randint(0, 4)}", f"v{rng.randint(0, 4)}",
                                 rng.randint(0, 500 * DAY), "p", f"x{rng.random()}")
                for _ in range(60)
            ]
            stream = sorted(events + extra, key=lambda e: (e.time, e.comment_id))
            grid = WindowGrid.from_events(stream, 30 * DAY)
            counts = []
            for forsure_min in (2, 3, 4, 5):
                edges = infer_all(stream, grid, 2, forsure_min)
                counts.append(
                    sum(1 for e in edges if e.status is FollowStatus.FORSURE)
                )
            assert counts == sorted(counts, reverse=True)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            sweep([], [], [2], [3], [0.0])

    def test_csv_output(self, tmp_path):
        events = build_event_fixture()
        report = sweep(events, [30], [2], [3], [0.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "window_days,maybe_min,forsure_min,coverage,nodes,edges,"
            "clustering,reciprocity,modularity"
        )
        assert len(lines) == 2


class TestTriadsCsv:
    def test_columns(self, tmp_path):
        edges = [edge("a", "b", 0), edge("b", "c", DAY), edge("c", "a", 2 * DAY)]
        series = triad_series(edges, 182 * DAY)
        path = tmp_path / "triads.csv"
        write_triads_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "interval_start,interval_end,cum_all,new_all,cum_forsure,new_forsure"
        assert len(lines) == 1 + series.n_intervals
