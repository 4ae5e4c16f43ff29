"""Directed follow-relation inference from temporally consistent commenting.

A comment by ``u`` on content authored by ``v`` is a directed interaction
event u -> v.  The observation span is cut into fixed-length windows and a
pair is scored by how many distinct windows contain at least one event:
fewer than ``maybe_min`` windows means no relation, at least ``maybe_min``
but fewer than ``forsure_min`` a tentative ("maybe") follow, and
``forsure_min`` or more a confirmed ("forsure") follow.  Defaults are 2 and
3, so exactly two active windows is a maybe and three or more a forsure.

Events are held as columns, one ``EventTable``, from their extraction or
reload on.  Every classification reads one ``PairTable``: the events sorted
once by (source, target, time) into arrays, which any window grid,
threshold pair and cutoff classifies one block of pairs at a time.
"""

from __future__ import annotations

import csv
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from itertools import starmap
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, DataError
from .ingest import RawRecord, RecordKind, atomic_write, decode_lines, open_input, read_id
from .ingest import read_time, row_dict, row_template, write_csv

SECONDS_PER_DAY = 86400
DEFAULT_MAYBE_MIN = 2
DEFAULT_FORSURE_MIN = 3

class FollowStatus(str, Enum):
    NONE = "none"
    MAYBE = "maybe"
    FORSURE = "forsure"

    @property
    def rank(self) -> int:
        return {"none": 0, "maybe": 1, "forsure": 2}[self.value]


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One reply interaction: source commented on target's content."""

    source: str
    target: str
    time: int
    post_id: str
    comment_id: str


EVENT_FIELDS = tuple(f.name for f in fields(InteractionEvent))

# Times whose magnitude stays below this keep every difference inside int64.
_INT64_SAFE = 2**62
# Rows per block when an EventTable builds its events or writes its rows.
ROW_BLOCK = 2**12


def _object_array(values: Sequence) -> np.ndarray:
    return np.fromiter(values, object, len(values))


def _codes(values: Sequence[str], table: Sequence[str]) -> np.ndarray:
    """Each value's index in ``table``."""
    code = {value: i for i, value in enumerate(table)}
    return np.fromiter(map(code.__getitem__, values), np.int32, len(values))


class EventTable:
    """Interaction events held as columns; iterating a table builds each
    ``InteractionEvent`` when it is reached.

    ``source`` and ``target`` are int32 codes into ``names``, the sorted
    endpoint names, so a code is its name's rank in ``sorted()`` order, as
    ``PairTable`` ranks ids; ``post`` holds codes into ``posts``; ``time``
    is int64, or exact Python ints once a time leaves the int64-safe range;
    ``comment_id`` holds each event's own id string.
    """

    __slots__ = ("names", "source", "target", "time", "posts", "post", "comment_id")

    def __init__(self, names: np.ndarray, source: np.ndarray, target: np.ndarray,
                 time: np.ndarray, posts: np.ndarray, post: np.ndarray, comment_id: np.ndarray):
        self.names, self.source, self.target, self.time = names, source, target, time
        self.posts, self.post, self.comment_id = posts, post, comment_id

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, int, str, str]]) -> "EventTable":
        """The table of ``rows``, each an event's fields in ``EVENT_FIELDS`` order."""
        sources, targets, times, post_ids, comment_ids = [], [], [], [], []
        for source, target, time, post_id, comment_id in rows:
            sources.append(source)
            targets.append(target)
            times.append(time)
            post_ids.append(post_id)
            comment_ids.append(comment_id)
        names = sorted(set(sources).union(targets))
        posts = list(dict.fromkeys(post_ids))
        exact = not times or (-_INT64_SAFE < min(times) and max(times) < _INT64_SAFE)
        return cls(_object_array(names), _codes(sources, names), _codes(targets, names),
                   np.fromiter(times, np.int64 if exact else object, len(times)),
                   _object_array(posts), _codes(post_ids, posts), _object_array(comment_ids))

    @classmethod
    def of(cls, events: Iterable[InteractionEvent]) -> "EventTable":
        """``events`` as a table: a table as it is, any other events read into one."""
        if isinstance(events, EventTable):
            return events
        return cls.from_rows(map(attrgetter(*EVENT_FIELDS), events))

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[InteractionEvent]:
        return starmap(InteractionEvent, self.rows(self.names, self.posts))

    def rows(self, names: np.ndarray, posts: np.ndarray) -> Iterator[tuple]:
        """Each event's fields in ``EVENT_FIELDS`` order, with its source and
        target read from ``names`` and its post id from ``posts`` (the name
        tables, or arrays in step with them), ``ROW_BLOCK`` rows at a time."""
        for start in range(0, len(self), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            yield from zip(names[self.source[block]].tolist(), names[self.target[block]].tolist(),
                           self.time[block].tolist(), posts[self.post[block]].tolist(),
                           self.comment_id[block].tolist())


@dataclass(frozen=True)
class WindowGrid:
    """Fixed-length observation windows spanning the event data."""

    origin: int
    window_len: int
    n: int

    def __post_init__(self):
        if self.window_len <= 0:
            raise ConfigError("window length must be positive")
        if self.n < 0:
            raise ConfigError("window count must be non-negative")

    @classmethod
    def from_events(cls, events: Iterable[InteractionEvent], window_len: int) -> "WindowGrid":
        times = EventTable.of(events).time
        if not len(times):
            return cls(origin=0, window_len=window_len, n=0)
        origin = int(times.min())
        n = (int(times.max()) - origin) // window_len + 1
        return cls(origin=origin, window_len=window_len, n=n)

    def index(self, time: int) -> int:
        idx = (time - self.origin) // self.window_len
        if idx < 0 or idx >= self.n:
            raise ValueError(f"time {time} is outside the window grid")
        return idx


@dataclass(frozen=True, slots=True)
class FollowEdge:
    """Classified directed relation for one ordered pair.

    ``windows_hit`` counts distinct active windows, ``status_time`` is the
    time of the event whose window pushed the pair over the threshold of
    its final status.  ``maybe_time``/``forsure_time`` keep both milestones
    so the follow-event timeline can show the progression.
    """

    source: str
    target: str
    windows_hit: int
    total_comments: int
    status: FollowStatus
    first_seen: int | None = None
    last_seen: int | None = None
    status_time: int | None = None
    maybe_time: int | None = None
    forsure_time: int | None = None

    @property
    def weight(self) -> int:
        """The pair's weight in the interaction graph: its comment count."""
        return self.total_comments


_EDGE_FIELDS = tuple(f.name for f in fields(FollowEdge))


@dataclass
class ExtractionStats:
    events: int = 0
    self_replies: int = 0
    orphans: int = 0

    def to_dict(self) -> dict:
        return row_dict(self)


def extract_events(
    posts: Sequence[RawRecord],
    comments: Sequence[RawRecord],
    id_map: Mapping[str, str] | None = None,
) -> tuple[EventTable, ExtractionStats]:
    """Turn comments into directed interaction events, held as one table.

    The target is the author of the parent, found by kind: the post when
    ``parent_id == link_id``, else the comment with that id.  Both endpoints
    are translated through ``id_map`` when given (author -> agent id).
    Comments whose parent is unknown are dropped and counted as orphans;
    events whose endpoints coincide after mapping are dropped as
    self-replies.  Events keep the comments' order: (time, comment_id) for
    a stage's records, which come in ledger order.
    """
    post_author = {rec.id: rec.author for rec in posts}
    comment_author = {rec.id: rec.author for rec in comments}

    def mapped(author: str) -> str:
        return id_map.get(author, author) if id_map is not None else author

    stats = ExtractionStats()

    def rows() -> Iterator[tuple[str, str, int, str, str]]:
        for rec in comments:
            if rec.kind is not RecordKind.COMMENT or rec.parent_id is None:
                continue
            parents = post_author if rec.parent_id == rec.link_id else comment_author
            parent_author = parents.get(rec.parent_id)
            if parent_author is None:
                stats.orphans += 1
                continue
            source = mapped(rec.author)
            target = mapped(parent_author)
            if source == target:
                stats.self_replies += 1
                continue
            yield source, target, rec.created_utc, rec.link_id or rec.parent_id, rec.id

    events = EventTable.from_rows(rows())
    stats.events = len(events)
    return events, stats


def check_thresholds(maybe_min: int, forsure_min: int) -> None:
    """ConfigError unless ``1 <= maybe_min <= forsure_min``."""
    if maybe_min < 1:
        raise ConfigError(f"maybe_min must be >= 1, got {maybe_min}")
    if forsure_min < maybe_min:
        raise ConfigError(
            f"forsure_min ({forsure_min}) must be >= maybe_min ({maybe_min})"
        )


_STATUSES = np.array([FollowStatus.NONE, FollowStatus.MAYBE, FollowStatus.FORSURE], dtype=object)


class PairTable:
    """Every ordered pair's events, sorted once by (source, target, time).

    Ids are the events' ``EventTable`` codes, each a name's rank in
    ``sorted()`` order, so sorting the codes sorts the pairs as Python sorts
    their ids.  Pair ``i``'s rows are
    ``bounds[i]:bounds[i + 1]`` and ascend in time, so the events at or
    before a cutoff are a prefix of each pair's rows, and on a window grid
    its k-th active window opens at the k-th row that starts a new window.
    Times that leave the int64-safe range are kept as exact Python ints.
    """

    def __init__(self, events: Iterable[InteractionEvent]):
        events = EventTable.of(events)
        n = len(events)
        self.ids = events.names
        width = len(self.ids)
        pair = events.source.astype(np.int64)
        pair *= width
        pair += events.target
        stamps = events.time
        self.span = (int(stamps.min()), int(stamps.max())) if n else None
        order = np.lexsort((stamps, pair))
        # The unsorted pair column is dropped as soon as its sorted copy
        # exists, so the table never holds more than a few int64 columns at once.
        pair = pair[order]
        self.times = stamps[order]
        del order
        self.bounds = np.append(np.flatnonzero(np.diff(pair, prepend=-1)), n)
        self.source, self.target = np.divmod(pair[self.bounds[:-1]], width)

    def edges(
        self, grid: WindowGrid, maybe_min: int, forsure_min: int, cutoff: int | None = None
    ) -> PairEdges:
        """Every pair's edge over its events at or before ``cutoff``, in
        (source, target) order; a pair with no such event has none.
        ValueError for an event time outside ``grid``."""
        check_thresholds(maybe_min, forsure_min)
        for time in self.span or ():
            grid.index(time)
        if cutoff is None:
            cutoff = self.span[1] if self.span else 0
        return PairEdges(self, grid, maybe_min, forsure_min, cutoff)


# Pairs per block when a PairEdges classifies pairs from their rows.
EDGE_BLOCK = 2**12


@dataclass(frozen=True, eq=False)
class PairEdges:
    """Every pair's classified edge at ``cutoff``, in (source, target) order,
    as a view over ``table``.

    An iterable of ``FollowEdge`` that holds no per-pair data: iteration,
    ``follows()`` and ``csv_rows()`` each classify one block of
    ``EDGE_BLOCK`` pairs at a time from the block's rows, and build an edge
    only where one is asked for.  ``follows()`` builds the maybe and forsure
    edges alone.
    """

    table: PairTable
    grid: WindowGrid
    maybe_min: int
    forsure_min: int
    cutoff: int

    def __len__(self) -> int:
        """The number of pairs with an event at or before the cutoff."""
        return int(np.count_nonzero(self.table.times[self.table.bounds[:-1]] <= self.cutoff))

    def __iter__(self) -> Iterator[FollowEdge]:
        return starmap(FollowEdge, self._rows(_EDGE_FIELDS))

    def follows(self) -> list[FollowEdge]:
        """The maybe and forsure edges, in (source, target) order."""
        return list(starmap(FollowEdge, self._rows(_EDGE_FIELDS, follows_only=True)))

    def csv_rows(self) -> Iterator[tuple]:
        """Every pair's ``EDGES_CSV_FIELDS``."""
        return self._rows(EDGES_CSV_FIELDS)

    def _rows(self, names: Sequence[str], follows_only: bool = False) -> Iterator[tuple]:
        """The values of the ``FollowEdge`` fields ``names`` of every edge, or
        of the maybe and forsure edges alone with ``follows_only``; each
        block of pairs is classified from its rows when it is reached."""
        table, grid = self.table, self.grid
        wide = not (abs(grid.origin) < _INT64_SAFE and grid.window_len < _INT64_SAFE)
        for start in range(0, len(table.source), EDGE_BLOCK):
            bounds = table.bounds[start:start + EDGE_BLOCK + 1]
            times = table.times[bounds[0]:bounds[-1]]
            first = bounds[:-1] - bounds[0]
            window = (times.astype(object) if wide else times) - grid.origin
            window //= grid.window_len
            opens = np.empty(len(times), dtype=bool)
            opens[1:] = window[1:] != window[:-1]
            opens[first] = True
            starts = np.flatnonzero(opens)
            kept = times <= self.cutoff
            # Every pair has a row, so each reduceat segment is one pair's rows.
            comments = np.add.reduceat(kept, first, dtype=np.int64)
            windows_hit = np.add.reduceat(opens & kept, first, dtype=np.int64)
            first_start = np.searchsorted(starts, first)

            def milestone(k: int) -> np.ndarray:
                """Row opening each pair's k-th active window; -1 where it has fewer."""
                at = np.minimum(first_start + k - 1, len(starts) - 1)
                return np.where(windows_hit >= k, starts[at], -1)

            maybe_row, forsure_row = milestone(self.maybe_min), milestone(self.forsure_min)
            status = (maybe_row >= 0).astype(np.int8) + (forsure_row >= 0)
            status_row = np.where(forsure_row >= 0, forsure_row,
                                  np.where(maybe_row >= 0, maybe_row, first))
            keep = np.flatnonzero(status if follows_only else comments)

            def times_at(rows: np.ndarray) -> np.ndarray:
                """The times of ``rows`` at the kept pairs; None where a row is -1."""
                rows = rows[keep]
                return np.where(rows >= 0, times[np.maximum(rows, 0)], None)

            columns = {
                "source": table.ids[table.source[start + keep]],
                "target": table.ids[table.target[start + keep]],
                "windows_hit": windows_hit[keep],
                "total_comments": comments[keep],
                "status": _STATUSES[status[keep]],
                "first_seen": times_at(first),
                "last_seen": times_at(first + comments - 1),
                "status_time": times_at(status_row),
                "maybe_time": times_at(maybe_row),
                "forsure_time": times_at(forsure_row),
            }
            yield from zip(*(columns[name].tolist() for name in names))


def classify(
    events: Iterable[InteractionEvent],
    grid: WindowGrid,
    maybe_min: int = DEFAULT_MAYBE_MIN,
    forsure_min: int = DEFAULT_FORSURE_MIN,
) -> FollowEdge:
    """Score one ordered pair by its distinct active windows.

    All events must share the same (source, target).  An empty event list
    yields a NONE edge with zero counts.
    """
    edges = infer_all(events, grid, maybe_min, forsure_min)
    if len(edges) > 1:
        raise ValueError("classify expects events of a single ordered pair")
    return next(iter(edges), FollowEdge("", "", 0, 0, FollowStatus.NONE))


def infer_all(
    events: Iterable[InteractionEvent],
    grid: WindowGrid,
    maybe_min: int = DEFAULT_MAYBE_MIN,
    forsure_min: int = DEFAULT_FORSURE_MIN,
) -> PairEdges:
    """Classify every ordered pair; a view of the edges, sorted by (source, target)."""
    return PairTable(events).edges(grid, maybe_min, forsure_min)


@dataclass(frozen=True, slots=True)
class TimelineRow:
    time: int
    source: str
    target: str
    status: FollowStatus


def event_timeline(edges: Iterable[FollowEdge]) -> list[TimelineRow]:
    """Milestone rows behind follow-event plots, sorted by time.

    A maybe edge contributes its maybe milestone; a forsure edge contributes
    both milestones (when they are distinct thresholds), showing the
    progression from tentative to confirmed.
    """
    rows: list[TimelineRow] = []
    for edge in edges:
        if edge.status is FollowStatus.NONE:
            continue
        if edge.maybe_time is not None and (
            edge.status is FollowStatus.MAYBE or edge.maybe_time != edge.forsure_time
        ):
            rows.append(
                TimelineRow(edge.maybe_time, edge.source, edge.target, FollowStatus.MAYBE)
            )
        if edge.status is FollowStatus.FORSURE and edge.forsure_time is not None:
            rows.append(
                TimelineRow(edge.forsure_time, edge.source, edge.target, FollowStatus.FORSURE)
            )
    rows.sort(key=lambda r: (r.time, r.source, r.target, r.status.rank))
    return rows


# ---------------------------------------------------------------------------
# Persistence: each CSV writer reads its artifact's columns off each row by
# name and leaves the spelling to the csv module (None as an empty field, a
# float by its repr, a status by its value); an events.jsonl line is the
# event's own fields, filled into one template from the event table's columns.
# ---------------------------------------------------------------------------

def _opt_int(text: str) -> int | None:
    return int(text) if text else None


# The edges.csv columns in file order, each with the reader of its text;
# every edge writer and ``load_edges_csv`` take the layout from here.
EDGE_COLUMNS = {
    "source": sys.intern,
    "target": sys.intern,
    "status": FollowStatus,
    "windows_hit": int,
    "total_comments": int,
    "first_seen": _opt_int,
    "last_seen": _opt_int,
    "status_time": _opt_int,
}
EDGES_CSV_FIELDS = list(EDGE_COLUMNS)
GRAPH_EDGES_CSV_FIELDS = EDGES_CSV_FIELDS + ["weight"]
TIMELINE_CSV_FIELDS = ["time", "source", "target", "status"]


def write_edges_csv(edges: PairEdges, path: str | Path) -> None:
    """An edges.csv: every pair's ``EDGES_CSV_FIELDS`` in (source, target)
    order, written one block of pairs at a time with no edge built."""
    write_csv(path, EDGES_CSV_FIELDS, edges.csv_rows())


def load_edges_csv(path: str | Path, weighted: bool = False) -> list[FollowEdge]:
    """The edges of an edges.csv, in file order.

    With ``weighted`` the file is a graph.edges.csv: it must also have a
    ``weight`` column, equal to ``total_comments`` on every row.  A missing
    file or column, a line the CSV reader rejects, a row that does not parse,
    or a (source, target) pair that an earlier row already holds is a
    DataError naming the file (and line).
    """
    kind = "graph edge" if weighted else "edge"
    fields = GRAPH_EDGES_CSV_FIELDS if weighted else EDGES_CSV_FIELDS
    source = Path(path)
    edges = []
    pairs: set[tuple[str, str]] = set()
    with open_input(source, f"{kind}s", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = set(fields) - set(reader.fieldnames or [])
            if missing:
                raise DataError(f"{source}: missing {kind} columns {sorted(missing)}")
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                edge = FollowEdge(**{name: read(row[name]) for name, read in EDGE_COLUMNS.items()})
                if weighted and int(row["weight"]) != edge.total_comments:
                    raise ValueError(f"weight {row['weight']} is not total_comments "
                                     f"{edge.total_comments}")
                if (edge.source, edge.target) in pairs:
                    raise ValueError(f"repeated pair {edge.source} -> {edge.target}")
                pairs.add((edge.source, edge.target))
                edges.append(edge)
        except (TypeError, ValueError, csv.Error) as exc:
            # The csv reader counts the line it rejects; DictReader's count lags it.
            raise DataError(f"{source}:{reader.reader.line_num}: bad {kind} row: {exc}") from exc
    return edges


def write_timeline_csv(rows: Iterable[TimelineRow], path: str | Path) -> None:
    write_csv(path, TIMELINE_CSV_FIELDS, map(attrgetter(*TIMELINE_CSV_FIELDS), rows))


# An events.jsonl row: compact JSON of the EVENT_FIELDS, each string as
# ``json`` spells it with ``ensure_ascii`` and the time as a whole number.
_EVENT_ROW = row_template(InteractionEvent)


def write_events_jsonl(events: Iterable[InteractionEvent], path: str | Path) -> None:
    """An events.jsonl, written from the columns: each name is spelled once."""
    events = EventTable.of(events)
    names, posts = (_object_array(list(map(encode_basestring_ascii, table)))
                    for table in (events.names, events.posts))
    with atomic_write(path) as fh:
        fh.writelines(_EVENT_ROW % (source, target, time, post_id, encode_basestring_ascii(cid))
                      for source, target, time, post_id, cid in events.rows(names, posts))


def _event_row(obj: object) -> tuple[str, str, int, str, str]:
    """An event row's fields, read under the record decoder's id and time rules."""
    if not isinstance(obj, dict):
        raise ValueError(f"an event must be a JSON object, got {type(obj).__name__}")
    return (sys.intern(read_id(obj, "source")), sys.intern(read_id(obj, "target")),
            read_time(obj, "time"), sys.intern(read_id(obj, "post_id")),
            read_id(obj, "comment_id"))


def load_events_jsonl(path: str | Path) -> EventTable:
    return EventTable.from_rows(decode_lines(path, "event", _event_row))
