"""Parsing and staged preprocessing of post/comment dumps.

Input dumps are JSONL, one object per line (optionally gzip-compressed).
Posts carry ``{"id","author","created_utc","title","selftext","subreddit"}``,
comments ``{"id","author","created_utc","body","subreddit","link_id",
"parent_id"}``.  :func:`decode_record` holds the field rules for dump lines
and for the records reloaded from stage files.  Preprocessing runs as
numbered stages 0..3, each a :class:`StageSnapshot` view of one
:class:`Ledger` whose manifest counts what every filter of the stage
removed, so the whole reduction is auditable stage by stage.

Stage map (the filters in :data:`FILTERS` order):

====  =============================================================
 0    raw records, sorted, with repeats of a (kind, id) pair removed
 1    bot removal, noise filtering, truncation to the earliest
      ``max_comments_per_post`` comments per post
 2    user activity thresholding (authors below ``min_interactions``)
 3    removal of deleted/removed posts and comments
====  =============================================================

The bot rule is fixed by ``BOT_DENY_LIST``, ``BOT_SUFFIX``, ``BURST_LIMIT`` and
``BURST_WINDOW_SECONDS``; the two thresholds are :func:`run_pipeline`'s only
arguments.

On disk, ``stage0.records.jsonl`` holds every ledger row, repeats included, and
stage k > 0 is a ledger of the records it removed, ``stageK.removed.jsonl``, so stage k
is stage 0 less its repeats and the ledgers 1..k; each has a ``stageK.manifest.json``.
Writing stages removes the files of every later stage, and
:func:`latest_stage_records` reads them back into the same :class:`Ledger`.

All file I/O of the package is here: :func:`open_input` opens every input,
and every artifact is written through :func:`atomic_write`.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import os
import re
import sys
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError, SchemaError

# Manifest keys, shared with fixtures and tests.
DUPLICATE_REMOVAL = "duplicate_removal"
BOT_REMOVAL = "bot_removal"
NOISE_REMOVAL = "noise_removal"
COMMENT_TRUNCATION = "comment_truncation"
ACTIVITY_THRESHOLD = "activity_threshold"
DELETED_REMOVAL = "deleted_removal"

# Every filter in the order it runs, as (stage, manifest key), a line per stage.
# A ledger row's code is the index here of the filter that removed it, or KEPT.
FILTERS = ((0, DUPLICATE_REMOVAL),
           (1, BOT_REMOVAL), (1, NOISE_REMOVAL), (1, COMMENT_TRUNCATION),
           (2, ACTIVITY_THRESHOLD),
           (3, DELETED_REMOVAL))
KEPT = len(FILTERS)
N_STAGES = FILTERS[-1][0] + 1

NOISE_MIN_CHARS = 3
_URL_ONLY_RE = re.compile(r"^https?://\S+$")

# The bot rule: a deny-listed author, a name suffix, or a posting burst.
BOT_DENY_LIST = frozenset({"AutoModerator"})
BOT_SUFFIX = "bot"
BURST_LIMIT = 500
BURST_WINDOW_SECONDS = 86400

DELETED_AUTHOR = "[deleted]"
DELETION_MARKERS = ("[removed]", "[deleted]")


class RecordKind(str, Enum):
    POST = "post"
    COMMENT = "comment"


_KINDS = {kind.value: kind for kind in RecordKind}


def row_dict(row) -> dict:
    """A dataclass row's fields by name, in field order, for a JSON writer.
    Read by ``getattr``: the row types are slotted, with no ``__dict__``."""
    return {name: getattr(row, name) for name in row.__dataclass_fields__}


def row_template(row_type) -> str:
    """The ``%``-template of a dataclass row's compact JSON line, keys in field
    order: ``%d`` for an ``int`` field, ``%s`` for a value given as JSON text."""
    return "{%s}\n" % ",".join(
        encode_basestring_ascii(f.name) + (":%d" if f.type == "int" else ":%s")
        for f in fields(row_type))


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One post or comment in normalized form.

    ``text`` is title+selftext for posts and the body for comments.
    Comments always carry ``link_id`` (owning post) and ``parent_id``
    (post or comment being replied to); posts carry neither.
    """

    id: str
    kind: RecordKind
    author: str
    created_utc: int
    text: str
    subreddit: str
    link_id: str | None = None
    parent_id: str | None = None


def sort_records(records: Iterable[RawRecord]) -> list[RawRecord]:
    """The one order of records, (created_utc, id) ascending, ties in input
    order; later stages keep it.  Two stable sorts, by id and then by time,
    give it with no key tuple per record."""
    rows = sorted(records, key=attrgetter("id"))
    rows.sort(key=attrgetter("created_utc"))
    return rows


_WHOLE_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.0*)?")


def read_id(obj: dict, key: str) -> str:
    """``obj[key]`` as an id: a non-empty string."""
    value = obj.get(key)
    if isinstance(value, str) and value:
        return value
    raise ValueError(f"{key} must be a non-empty string, got {value!r}")


def read_time(obj: dict, key: str) -> int:
    """``obj[key]`` as whole seconds: an int, or a float or numeric string with
    no fraction, but never a bool."""
    value = obj.get(key)
    if isinstance(value, str) and _WHOLE_NUMBER_RE.fullmatch(value):
        value = int(value.partition(".")[0])
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is int:
        return value
    raise ValueError(f"{key} must be a whole number, got {value!r}")


def _read_text(obj: dict, key: str) -> str:
    """``obj[key]`` as a string; absent or null reads as ""."""
    value = obj.get(key)
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    raise ValueError(f"{key} must be a string, got {value!r}")


def _bare_fullname(value: str) -> str:
    """An id less its Pushshift prefix, ``t3_`` (post) or ``t1_`` (comment)."""
    return value[3:] if value.startswith(("t1_", "t3_")) else value


def _read_fullname(obj: dict, key: str) -> str:
    """``obj[key]`` as an id less its Pushshift prefix (see :func:`_bare_fullname`)."""
    value = read_id(obj, key)
    if bare := _bare_fullname(value):
        return bare
    raise ValueError(f"{key} {value!r} names no post or comment")


def _post_text(title: str, selftext: str) -> str:
    """A post's text: its title and selftext; a ``[removed]``/``[deleted]`` selftext adds none."""
    parts = (title, "" if selftext.strip() in DELETION_MARKERS else selftext)
    return " ".join(part for part in parts if part)


def decode_record(obj: object, dump_kind: RecordKind | None = None) -> RawRecord:
    """Build a record from one parsed JSON line, or raise ``ValueError``.

    Field rules: ``id`` is a non-empty string, and so is ``author``, null
    meaning ``[deleted]``; ``created_utc`` is positive (see :func:`read_time`);
    text fields are strings, absent or null meaning ""; a comment has a
    non-empty ``link_id`` and ``parent_id``.  Unknown fields are ignored.

    With ``dump_kind`` the line is a dump line of that kind: a post's text is
    its title and selftext (see :func:`_post_text`), a comment's its body, and
    ``link_id``/``parent_id`` lose their Pushshift prefix.  Without it the line
    is a stage-0 row as :func:`write_stages` writes it.
    """
    # The guard: a line whose every field the rules read is in canonical form
    # (an exact str, non-empty for an id; an exact int time > 0; a known kind)
    # is a record at once.  Any other line is decided by the rule readers below.
    if type(obj) is dict:
        get = obj.get
        kind, rec_id, author, created, subreddit = (
            dump_kind, get("id"), get("author"), get("created_utc"), get("subreddit"))
        if kind is None:
            kind, text = get("kind"), get("text")
            kind = type(kind) is str and _KINDS.get(kind)
        elif kind is RecordKind.POST:
            title, selftext = get("title"), get("selftext")
            text = type(title) is str and type(selftext) is str and _post_text(title, selftext)
        else:
            text = get("body")
        link_id = parent_id = None
        if kind is RecordKind.COMMENT:
            link_id, parent_id = get("link_id"), get("parent_id")
            if dump_kind and type(link_id) is str and type(parent_id) is str:
                link_id, parent_id = _bare_fullname(link_id), _bare_fullname(parent_id)
        if (kind and type(rec_id) is str and rec_id and type(author) is str and author
                and type(created) is int and created > 0 and type(text) is str
                and type(subreddit) is str
                and (kind is RecordKind.POST
                     or type(link_id) is str and link_id and type(parent_id) is str and parent_id)):
            # Authors, subreddits and links repeat across records: each distinct
            # value is kept once.
            return RawRecord(rec_id, kind, sys.intern(author), created, text, sys.intern(subreddit),
                             link_id and sys.intern(link_id), parent_id and sys.intern(parent_id))
    if not isinstance(obj, dict) or "author" not in obj:
        raise ValueError(f"not a record with an author: {obj!r:.80}")
    kind = dump_kind or RecordKind(obj.get("kind"))
    if dump_kind is None:
        text = _read_text(obj, "text")
    elif kind is RecordKind.POST:
        selftext = _read_text(obj, "selftext")
        text = _post_text(_read_text(obj, "title"), selftext)
    else:
        text = _read_text(obj, "body")
    created = read_time(obj, "created_utc")
    if created <= 0:
        raise ValueError(f"created_utc must be positive, got {created}")
    links = (None, None)
    if kind is RecordKind.COMMENT:
        read_link = read_id if dump_kind is None else _read_fullname
        links = (sys.intern(read_link(obj, "link_id")), sys.intern(read_link(obj, "parent_id")))
    return RawRecord(
        id=read_id(obj, "id"),
        kind=kind,
        author=DELETED_AUTHOR if obj["author"] is None else sys.intern(read_id(obj, "author")),
        created_utc=created,
        text=text,
        subreddit=sys.intern(_read_text(obj, "subreddit")),
        link_id=links[0],
        parent_id=links[1],
    )


@contextmanager
def open_input(path: str | Path, what: str, newline: str | None = None) -> Iterator[TextIO]:
    """The one opener of input files: plain or ``.gz`` text as UTF-8, less a
    leading byte-order mark.  A missing file, or an OSError or
    UnicodeDecodeError raised while the block reads it, is a DataError naming
    the file."""
    source = Path(path)
    if not source.exists():
        raise DataError(f"{what} file not found: {source}")
    try:
        with (gzip.open(source, "rt", encoding="utf-8-sig", newline=newline)
              if source.suffix == ".gz"
              else open(source, encoding="utf-8-sig", newline=newline)) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc


def numbered_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a text file, opened by :func:`open_input`, with
    their 1-based numbers."""
    with open_input(path, what) as fh:
        for n, line in enumerate(fh, start=1):
            if not line.isspace():
                yield n, line


def read_json(path: str | Path, what: str) -> object:
    """One JSON document; a file that does not parse is a DataError naming it."""
    with open_input(path, what) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def file_digest(path: str | Path) -> str:
    """sha256 of a file's bytes, for a file that its reader has already read."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_raw_decode = json.JSONDecoder().raw_decode


def parse_line(line: str) -> object:
    """One JSONL line as ``json.loads(line)`` reads it, value or ValueError.  A
    line that is one JSON value, then nothing or a "\n", is read by
    ``raw_decode`` alone; any other goes to ``json.loads``."""
    try:
        value, end = _raw_decode(line)
    except ValueError:
        return json.loads(line)
    if end == len(line) or (end == len(line) - 1 and line[end] == "\n"):
        return value
    return json.loads(line)


def decode_lines(path: str | Path, what: str, decode: Callable[[object], object]) -> Iterator:
    """Every line of a JSONL file through ``decode``; a line it rejects with a
    ValueError is a SchemaError naming the file and line."""
    for n, line in numbered_lines(path, what):
        try:
            value = decode(parse_line(line))
        except ValueError as exc:
            raise SchemaError(f"{path}:{n}: bad {what}: {exc}") from exc
        yield value


def load_dump(path: str | Path, kind: RecordKind) -> tuple[list[RawRecord], int]:
    """Decode a JSONL dump into records in file order, and count the lines
    skipped as malformed.  More than 50% malformed is raised as a schema
    mismatch: such a file is more likely the wrong format than a noisy dump."""
    kind = RecordKind(kind)
    records: list[RawRecord] = []
    skipped = 0
    for _, line in numbered_lines(path, "dump"):
        try:
            records.append(decode_record(parse_line(line), kind))
        except ValueError:
            skipped += 1
    total = len(records) + skipped
    if total and skipped / total > 0.5:
        raise SchemaError(
            f"{path}: {skipped}/{total} lines malformed; input does not look like a valid dump"
        )
    return records, skipped


# ---------------------------------------------------------------------------
# Filters and stages; each filter is a drop mask over the records it is given
# ---------------------------------------------------------------------------

def _mask(items: Sequence, drop: Callable[[object], bool]) -> np.ndarray:
    return np.fromiter(map(drop, items), dtype=bool, count=len(items))


def repeat_mask(records: Sequence[RawRecord]) -> np.ndarray:
    """Flag every row but the first of each (kind, id) pair."""
    seen: dict[RecordKind, set[str]] = {kind: set() for kind in RecordKind}  # ids by kind
    drop = np.zeros(len(records), dtype=bool)
    for i, rec in enumerate(records):
        ids = seen[rec.kind]
        if rec.id in ids:
            drop[i] = True
        else:
            ids.add(rec.id)
    return drop


def bot_mask(records: Sequence[RawRecord]) -> np.ndarray:
    """Flag the records of bot authors: an author in ``BOT_DENY_LIST``, one whose
    name ends (case-insensitively) with ``BOT_SUFFIX``, or one with more than
    ``BURST_LIMIT`` records within some span shorter than ``BURST_WINDOW_SECONDS``."""
    times: dict[str, list[int]] = defaultdict(list)
    for rec in records:
        times[rec.author].append(rec.created_utc)
    n = BURST_LIMIT

    def burst(stamps: list[int]) -> bool:
        """Whether some n + 1 records span less than the window, compared as
        exact integers at any magnitude."""
        ordered = sorted(stamps)
        return any(last - first < BURST_WINDOW_SECONDS for first, last in zip(ordered, ordered[n:]))

    bots = {author for author, stamps in times.items()
            if author in BOT_DENY_LIST or author.lower().endswith(BOT_SUFFIX)
            or (len(stamps) > n and burst(stamps))}
    return _mask(records, lambda r: r.author in bots)


def noise_mask(records: Sequence[RawRecord]) -> np.ndarray:
    """Flag records whose trimmed text is shorter than ``NOISE_MIN_CHARS`` or a bare URL."""
    texts = [r.text.strip() for r in records]
    return _mask(texts, lambda text: len(text) < NOISE_MIN_CHARS or bool(_URL_ONLY_RE.match(text)))


def truncation_mask(records: Sequence[RawRecord], max_per_post: int) -> np.ndarray:
    """Flag every comment of a post after its first ``max_per_post`` in the order
    given; in the ledger's (created_utc, id) order these are its earliest."""
    seen: Counter[str] = Counter()
    drop = np.zeros(len(records), dtype=bool)
    for i, rec in enumerate(records):
        if rec.kind is RecordKind.COMMENT:
            seen[rec.link_id] += 1
            drop[i] = seen[rec.link_id] > max_per_post
    return drop


def activity_mask(records: Sequence[RawRecord], min_interactions: int) -> np.ndarray:
    """Flag every record of authors with fewer than ``min_interactions`` records."""
    counts = Counter(r.author for r in records)
    return _mask(records, lambda r: counts[r.author] < min_interactions)


def deleted_mask(records: Sequence[RawRecord]) -> np.ndarray:
    """Flag records authored by "[deleted]" or whose trimmed text is a
    deletion marker ("[removed]" / "[deleted]")."""
    return _mask(records, lambda r: r.author == DELETED_AUTHOR
                 or r.text.strip() in DELETION_MARKERS)


class Ledger(NamedTuple):
    """The input of a run sorted once by :func:`sort_records` and, per row,
    the code of the filter that removed it (``KEPT`` if none did) and whether
    it is a post."""

    records: list[RawRecord]
    codes: np.ndarray
    is_post: np.ndarray


def build_ledger(records: Iterable[RawRecord], drops: Sequence[Callable]) -> Ledger:
    """Sort ``records`` once by :func:`sort_records`, then run ``drops`` in
    order, each over the rows no earlier one flagged, in ledger order;
    ``drops[c]``'s rows get code ``c``."""
    rows = sort_records(records)
    codes = np.full(len(rows), KEPT, dtype=np.int8)
    for code, drop in enumerate(drops):
        alive = np.flatnonzero(codes == KEPT)
        codes[alive[drop([rows[i] for i in alive.tolist()])]] = code
    return _ledger(rows, codes)


def _ledger(rows: list[RawRecord], codes: np.ndarray) -> Ledger:
    return Ledger(rows, codes, _mask(rows, lambda r: r.kind is RecordKind.POST))


@dataclass(frozen=True)
class StageSnapshot:
    """Stage ``stage_id`` of a ledger, the rows no filter of it or an earlier
    stage removed; ``records`` is built when it is read."""

    ledger: Ledger
    stage_id: int

    @property
    def codes(self) -> range:
        """The codes of this stage's filters."""
        own = [code for code, (stage, _) in enumerate(FILTERS) if stage == self.stage_id]
        return range(own[0], own[-1] + 1)

    @property
    def records(self) -> list[RawRecord]:
        return list(compress(self.ledger.records, (self.ledger.codes >= self.codes.stop).tolist()))

    @property
    def manifest(self) -> dict[str, int]:
        removed = np.bincount(self.ledger.codes, minlength=KEPT + 1)
        return {FILTERS[code][1]: int(removed[code]) for code in self.codes}

    @property
    def total(self) -> int:
        return int(np.count_nonzero(self.ledger.codes >= self.codes.stop))

    @property
    def post_count(self) -> int:
        return int(np.count_nonzero(self.ledger.is_post[self.ledger.codes >= self.codes.stop]))

    @property
    def comment_count(self) -> int:
        return self.total - self.post_count


def snapshot(records: Iterable[RawRecord]) -> StageSnapshot:
    """Stage 0 of a run: the input in ledger order less every repeat of a (kind,
    id) pair but its earliest copy (the first in input order on a tie), counted
    under ``duplicate_removal``; the ledger keeps the repeats."""
    return StageSnapshot(build_ledger(records, [repeat_mask]), 0)


def run_pipeline(records: Iterable[RawRecord], max_comments_per_post: int = 10,
                 min_interactions: int = 2) -> list[StageSnapshot]:
    """Run every filter over one ledger and return stages 0..3 as its views;
    record counts are non-increasing across stages."""
    ledger = build_ledger(records, [  # in FILTERS order
        repeat_mask,
        bot_mask,
        noise_mask,
        lambda rows: truncation_mask(rows, max_comments_per_post),
        lambda rows: activity_mask(rows, min_interactions),
        deleted_mask,
    ])
    return [StageSnapshot(ledger, stage_id) for stage_id in range(N_STAGES)]


# ---------------------------------------------------------------------------
# Stage persistence
# ---------------------------------------------------------------------------

def output_dir(path: str | Path) -> Path:
    """``path`` as a directory, made if missing; a path that cannot be one (a
    file, or a path through a file) is a ConfigError naming it."""
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {directory}: {exc}") from exc
    return directory


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Write UTF-8 text to a temp file beside ``path`` that replaces ``path`` only
    when the block exits cleanly, so a crash never leaves a half-written file.
    A directory or temp file that cannot be made, or a ``path`` that cannot be
    replaced (a directory), is a ConfigError naming it; an error raised while
    the block writes is not."""
    target = Path(path)
    tmp = output_dir(target.parent) / f".{target.name}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {target}: {exc}") from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise ConfigError(f"cannot write {target}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


class _LineFeedRows(NamedTuple):
    """A text file taking csv rows that end in "\r\n", which makes the writer
    quote a field holding "\r" as well as "\n"; each row ends in "\n"."""

    fh: TextIO

    def write(self, row: str) -> int:
        return self.fh.write(row[:-2] + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomically write a CSV artifact: ``header``, then ``rows``, "\n" line ends."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(_LineFeedRows(fh), lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def records_path(out_dir: Path, stage_id: int) -> Path:
    """The record file of a stage: stage 0's records, or stage k's removal ledger."""
    return out_dir / (f"stage{stage_id}.removed.jsonl" if stage_id else "stage0.records.jsonl")


def manifest_path(out_dir: Path, stage_id: int) -> Path:
    return out_dir / f"stage{stage_id}.manifest.json"


# One encoder per JSON format, shared by every writer; json.dump(s) builds
# a new one per call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode
_indented_json = json.JSONEncoder(indent=2)


def _json_lines(rows: Iterable) -> Iterator[str]:
    return (compact_json(row) + "\n" for row in rows)


# The stage-0 and removal-ledger lines by template: the bytes of
# ``compact_json`` of their dicts, each string escaped once, no dict per row.
# A stage-0 fill lists the record's values in field order.
_STAGE0_ROW = row_template(RawRecord)
_LEDGER_ROW = '{"kind":%s,"id":%s,"reason":%s}\n'
_KIND_JSON = {kind: encode_basestring_ascii(kind.value) for kind in RecordKind}


def _stage0_lines(snap: StageSnapshot) -> Iterator[str]:
    esc = encode_basestring_ascii
    for r in snap.ledger.records:
        yield _STAGE0_ROW % (
            esc(r.id), _KIND_JSON[r.kind], esc(r.author), r.created_utc, esc(r.text),
            esc(r.subreddit), "null" if r.link_id is None else esc(r.link_id),
            "null" if r.parent_id is None else esc(r.parent_id))


def _ledger_lines(snap: StageSnapshot) -> Iterator[str]:
    ledger, esc = snap.ledger, encode_basestring_ascii
    for code in snap.codes:
        reason = esc(FILTERS[code][1])
        for r in compress(ledger.records, (ledger.codes == code).tolist()):
            yield _LEDGER_ROW % (_KIND_JSON[r.kind], esc(r.id), reason)


def json_document(obj: object) -> Iterator[str]:
    """``obj`` as indented JSON with a trailing newline, streamed in chunks."""
    yield from _indented_json.iterencode(obj)
    yield "\n"


def write_json(path: str | Path, obj: object) -> None:
    """Atomically write a JSON artifact: ``obj`` indented by two spaces, then "\n"."""
    with atomic_write(path) as fh:
        fh.writelines(json_document(obj))


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """Atomically write a JSONL artifact: one compact object per line."""
    with atomic_write(path) as fh:
        fh.writelines(_json_lines(rows))


def write_stages(
    stages: Sequence[StageSnapshot], out_dir: str | Path, extra: dict | None = None
) -> None:
    """Persist stages as one record ledger; a write that fails replaces no file.

    Stage 0 is written as every ledger row, repeats included, every later stage
    as the records it removed: one ``{"kind", "id", "reason"}`` line each in
    ledger order, filter by filter, the reason being the filter's manifest
    key.  No file replaces its target before all are written; then each does,
    one at a time, stage 0's records last.  The files of every later stage,
    left by an earlier run, are removed first.  An
    ``out_dir`` that cannot be made a directory is a ConfigError.
    """
    out = output_dir(out_dir)
    for stage_id in range(stages[-1].stage_id + 1, N_STAGES):
        records_path(out, stage_id).unlink(missing_ok=True)
        manifest_path(out, stage_id).unlink(missing_ok=True)
    with ExitStack() as files:
        for snap in stages:
            fh = files.enter_context(atomic_write(records_path(out, snap.stage_id)))
            fh.writelines((_ledger_lines if snap.stage_id else _stage0_lines)(snap))
            payload = {"stage_id": snap.stage_id, "post_count": snap.post_count,
                       "comment_count": snap.comment_count, "removed": snap.manifest}
            fh = files.enter_context(atomic_write(manifest_path(out, snap.stage_id)))
            fh.writelines(json_document({**payload, **(extra or {})}))


def load_records(path: str | Path) -> list[RawRecord]:
    """Every row of a normalized records file, repeats included."""
    return list(decode_lines(path, "stage record", decode_record))


def _ledger_row(stage_id: int, removed: dict[RecordKind, dict[str, int]]
                ) -> Callable[[object], None]:
    """Decoder of stage ``stage_id``'s removal-ledger rows: each row enters the
    code of its reason, a filter of the stage, in ``removed`` under the (kind,
    id) it names, which no earlier row may name."""

    def decode(obj: object) -> None:
        if not isinstance(obj, dict):
            raise ValueError(f"a ledger row must be a JSON object, got {type(obj).__name__}")
        kind = obj.get("kind")
        kind = (type(kind) is str and _KINDS.get(kind)) or RecordKind(kind)
        rec_id, reason = read_id(obj, "id"), obj.get("reason")
        if (stage_id, reason) not in FILTERS:
            raise ValueError(f"reason {reason!r} is not a filter of stage {stage_id}")
        if rec_id in removed[kind]:
            raise ValueError(f"{(kind.value, rec_id)} is already removed by an earlier row")
        removed[kind][rec_id] = FILTERS.index((stage_id, reason))

    return decode


def latest_stage_records(directory: str | Path) -> tuple[int, list[RawRecord]]:
    """Records of the highest stage with a removal ledger (stage 0 without one), in
    ledger order: the stage's view of the ledger rebuilt from the stage-0 rows,
    their repeats, and the code each ledger row up to that stage gives the
    record it names.  Each ledger row must remove its own stage-0 record."""
    base = Path(directory)
    if not records_path(base, 0).exists():
        raise DataError(f"no stage records found under {base}")
    if any(base.glob("stage[1-9].records.jsonl")):
        raise DataError(f"{base} holds per-stage record files of an older format; "
                        "preprocess into a fresh directory")
    stage_id = max((k for k in range(1, N_STAGES) if records_path(base, k).exists()), default=0)
    removed: dict[RecordKind, dict[str, int]] = {kind: {} for kind in RecordKind}  # id -> code
    for k in range(1, stage_id + 1):
        for _ in decode_lines(records_path(base, k), "removal ledger", _ledger_row(k, removed)):
            pass
    records = load_records(records_path(base, 0))
    # The first row of each (kind, id) takes the code its ledger row gives; its
    # repeats, coming later, find none and then get code 0.
    codes = np.fromiter((removed[r.kind].pop(r.id, KEPT) for r in records), dtype=np.int8,
                        count=len(records))
    codes[repeat_mask(records)] = 0
    for kind, ids in removed.items():
        for rec_id, code in ids.items():  # a row left over matched nothing
            raise DataError(f"{records_path(base, FILTERS[code][0])} names "
                            f"{(kind.value, rec_id)}, which matches no stage-0 record")
    return stage_id, StageSnapshot(_ledger(records, codes), stage_id).records
