"""Time-resolved analyses: triadic closure series, evolution snapshots, and
parameter-robustness sweeps.

Triangles live on the undirected projection.  A triangle closes at the
latest first-seen time of its three edges, and closures are bucketed into
fixed-length intervals (default 182 days, a six-month cadence).  The series
is computed twice: over all maybe+forsure edges and over the forsure-only
subgraph, which by construction is always pointwise below the full series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError
from . import graph as graphmod
from . import inference as infermod
from . import metrics as metricsmod
from .inference import (
    DEFAULT_FORSURE_MIN,
    DEFAULT_MAYBE_MIN,
    SECONDS_PER_DAY,
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    WindowGrid,
    infer_all,  # noqa: F401 - re-exported; perfbench's tracer test patches it here
)
from .ingest import write_csv

DEFAULT_INTERVAL_SECONDS = 182 * SECONDS_PER_DAY

TRIADS_CSV_FIELDS = [
    "interval_start",
    "interval_end",
    "cum_all",
    "new_all",
    "cum_forsure",
    "new_forsure",
]

SWEEP_CSV_FIELDS = [
    "window_days",
    "maybe_min",
    "forsure_min",
    "coverage",
    "nodes",
    "edges",
    "clustering",
    "reciprocity",
    "modularity",
]


@dataclass(frozen=True)
class TriadSeries:
    intervals: tuple[tuple[int, int], ...]
    cumulative_all: tuple[int, ...]
    new_all: tuple[int, ...]
    cumulative_forsure: tuple[int, ...]
    new_forsure: tuple[int, ...]

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)


def triangle_closures(pair_times: dict[tuple[str, str], int]) -> list[int]:
    """Closure time (max edge time) of every triangle of the sorted pairs'
    projection, in ``metrics.triangles`` order."""
    adj: dict[str, set[str]] = {}
    for u, v in pair_times:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return [max(pair_times[(u, v)], pair_times[(u, w)], pair_times[(v, w)])
            for u, v, w in metricsmod.triangles(adj)]


def triad_series(
    edges: Sequence[FollowEdge],
    interval_len: int = DEFAULT_INTERVAL_SECONDS,
    use_status_time: bool = False,
) -> TriadSeries:
    """Triadic-closure counts per interval, for all edges and forsure-only.

    Edge time is first_seen by default; ``use_status_time`` switches to the
    time the edge reached its status.
    """
    if interval_len <= 0:
        raise ConfigError("interval length must be positive")

    def timestamp(edge: FollowEdge) -> int | None:
        return edge.status_time if use_status_time else edge.first_seen

    considered = [
        e for e in edges if e.status is not FollowStatus.NONE and timestamp(e) is not None
    ]
    if not considered:
        return TriadSeries((), (), (), (), ())

    def pair_times(subset: Sequence[FollowEdge]) -> dict[tuple[str, str], int]:
        table: dict[tuple[str, str], int] = {}
        for edge in subset:
            key = (edge.source, edge.target) if edge.source <= edge.target else (edge.target, edge.source)
            t = timestamp(edge)
            if key not in table or t < table[key]:
                table[key] = t
        return table

    all_pairs = pair_times(considered)
    forsure_pairs = pair_times(
        [e for e in considered if e.status is FollowStatus.FORSURE]
    )

    origin = min(all_pairs.values())
    # The forsure-only projection can date a pair later than the full one
    # (its earliest forsure edge), so the horizon must cover both.
    horizon = max(max(all_pairs.values()), max(forsure_pairs.values(), default=origin))
    n = (horizon - origin) // interval_len + 1
    intervals = tuple(
        (origin + i * interval_len, origin + (i + 1) * interval_len) for i in range(n)
    )

    def count_series(pairs: dict[tuple[str, str], int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        new = [0] * n
        for closure in triangle_closures(pairs):
            new[(closure - origin) // interval_len] += 1
        cumulative = []
        running = 0
        for value in new:
            running += value
            cumulative.append(running)
        return tuple(cumulative), tuple(new)

    cum_all, new_all = count_series(all_pairs)
    cum_fs, new_fs = count_series(forsure_pairs)
    return TriadSeries(
        intervals=intervals,
        cumulative_all=cum_all,
        new_all=new_all,
        cumulative_forsure=cum_fs,
        new_forsure=new_fs,
    )


def write_triads_csv(series: TriadSeries, path: str | Path) -> None:
    columns = zip(series.intervals, series.cumulative_all, series.new_all,
                  series.cumulative_forsure, series.new_forsure)
    write_csv(path, TRIADS_CSV_FIELDS, ((*interval, *counts) for interval, *counts in columns))


# ---------------------------------------------------------------------------
# Evolution snapshots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotConfig:
    maybe_min: int = DEFAULT_MAYBE_MIN
    forsure_min: int = DEFAULT_FORSURE_MIN
    seed: int = 0
    known_agents: tuple[str, ...] = ()


def snapshot_series(
    events: Iterable[InteractionEvent],
    grid: WindowGrid,
    config: SnapshotConfig,
    checkpoints: Sequence[int],
) -> list[metricsmod.MetricsReport]:
    """Inference plus a full metric report at each cutoff time."""
    if list(checkpoints) != sorted(checkpoints):
        raise ConfigError("checkpoints must be ascending")
    table = infermod.PairTable(events)
    reports = []
    for cutoff in checkpoints:
        follows = table.edges(grid, config.maybe_min, config.forsure_min, cutoff).follows()
        graph = graphmod.build(follows, known_agents=config.known_agents)
        reports.append(metricsmod.full_report(graph, seed=config.seed,
                                              config={"checkpoint": cutoff}))
    return reports


# ---------------------------------------------------------------------------
# Parameter sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    window_days: float
    maybe_min: int
    forsure_min: int
    coverage: float
    nodes: int
    edges: int
    clustering: float | None
    reciprocity: float | None
    modularity: float | None


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...] = field(default_factory=tuple)


def _defined(metric, graph: graphmod.InteractionGraph) -> float | None:
    try:
        return metric(graph)
    except metricsmod.UndefinedMetricError:
        return None


def sweep(
    events: Iterable[InteractionEvent],
    window_days_list: Sequence[float],
    maybe_min_list: Sequence[int] = (DEFAULT_MAYBE_MIN,),
    forsure_min_list: Sequence[int] = (DEFAULT_FORSURE_MIN,),
    coverage_list: Sequence[float] = (0.0,),
    seed: int = 0,
) -> SweepReport:
    """Cross-product robustness sweep over grid and threshold parameters.

    Cells run in deterministic parameter order; per-cell metrics that are
    undefined on the resulting graph are left as None.  ``seed`` seeds the
    community search behind each cell's modularity.  Every threshold pair
    is checked before any cell runs, and each distinct covered graph is
    measured once.
    """
    if not (window_days_list and maybe_min_list and forsure_min_list and coverage_list):
        raise ConfigError("sweep parameter lists must be non-empty")
    if not all(0 < w < math.inf and round(w * SECONDS_PER_DAY) >= 1 for w in window_days_list):
        raise ConfigError(f"sweep windows must be 1 second or longer, got {list(window_days_list)}")
    if not all(0.0 <= c <= 1.0 for c in coverage_list):
        raise ConfigError(f"sweep coverage must be in [0, 1], got {list(coverage_list)}")
    thresholds = list(itertools.product(maybe_min_list, forsure_min_list))
    for maybe_min, forsure_min in thresholds:
        infermod.check_thresholds(maybe_min, forsure_min)
    events = infermod.EventTable.of(events)
    table = infermod.PairTable(events)
    # (clustering, reciprocity, modularity) per distinct covered graph: many
    # cells share one graph, and its community search is the costly part.
    measured: dict[tuple, tuple[float | None, float | None, float | None]] = {}
    cells = []
    for window_days in window_days_list:
        grid = WindowGrid.from_events(events, int(round(window_days * SECONDS_PER_DAY)))
        for maybe_min, forsure_min in thresholds:
            follows = table.edges(grid, maybe_min, forsure_min).follows()
            built = graphmod.build(follows)
            for coverage in coverage_list:
                covered = graphmod.apply_coverage(built, coverage)
                key = (covered.nodes, tuple((e.source, e.target, e.weight) for e in covered.edges))
                if key not in measured:
                    measured[key] = (
                        _defined(metricsmod.clustering, covered),
                        _defined(metricsmod.reciprocity, covered),
                        metricsmod.communities(covered, seed)[1] if covered.node_count else None,
                    )
                cells.append(SweepCell(window_days, maybe_min, forsure_min, coverage,
                                       covered.node_count, covered.edge_count, *measured[key]))
    return SweepReport(cells=tuple(cells))


def write_sweep_csv(report: SweepReport, path: str | Path) -> None:
    """A sweep.csv: the ``SWEEP_CSV_FIELDS`` of each cell; an undefined metric is empty."""
    write_csv(path, SWEEP_CSV_FIELDS, map(attrgetter(*SWEEP_CSV_FIELDS), report.cells))
