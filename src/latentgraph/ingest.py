"""Parsing and staged preprocessing of post/comment dumps.

Input dumps are JSONL, one object per line (optionally gzip-compressed).
Posts carry ``{"id","author","created_utc","title","selftext","subreddit"}``,
comments ``{"id","author","created_utc","body","subreddit","link_id",
"parent_id"}``.  Preprocessing runs as numbered stages 0..6, each producing an
immutable :class:`StageSnapshot` whose manifest records how many records every
filter removed, so the whole reduction is auditable stage by stage.

Stage map:

====  =============================================================
 0    raw records, sorted, with repeats of a (kind, id) pair removed
 1    bot removal, noise filtering, truncation to the earliest
      ``max_comments_per_post`` comments per post
 2    user activity thresholding (authors below ``min_interactions``)
 3    removal of deleted/removed posts and comments
 4    feature extraction (record set unchanged; handled downstream)
 5    feature enrichment (record set unchanged; handled downstream)
 6    handoff to relation inference (record set unchanged)
====  =============================================================

On disk, stage 0 is ``stage0.records.jsonl`` and every later stage is a
ledger of the records it removed, ``stageK.removed.jsonl``, so stage k is
stage 0 less the ledgers 1..k.  Each stage also has ``stageK.manifest.json``.
"""

from __future__ import annotations

import csv
import gzip
import json
import os
import re
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Sequence, TextIO

from .errors import DataError, SchemaError

N_STAGES = 7

# Manifest keys, shared with fixtures and tests.
DUPLICATE_REMOVAL = "duplicate_removal"
BOT_REMOVAL = "bot_removal"
NOISE_REMOVAL = "noise_removal"
COMMENT_TRUNCATION = "comment_truncation"
ACTIVITY_THRESHOLD = "activity_threshold"
DELETED_REMOVAL = "deleted_removal"
FEATURE_EXTRACTION = "feature_extraction"
FEATURE_ENRICHMENT = "feature_enrichment"
INFERENCE_HANDOFF = "inference_handoff"

_URL_ONLY_RE = re.compile(r"^https?://\S+$")


class RecordKind(str, Enum):
    POST = "post"
    COMMENT = "comment"


@dataclass(frozen=True)
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

    def to_dict(self) -> dict:
        return {**vars(self), "kind": self.kind.value}

    @classmethod
    def from_dict(cls, obj: dict) -> "RawRecord":
        return cls(
            id=str(obj["id"]),
            kind=RecordKind(obj["kind"]),
            author=str(obj["author"]),
            created_utc=int(obj["created_utc"]),
            text=str(obj["text"]),
            subreddit=str(obj.get("subreddit") or ""),
            link_id=obj.get("link_id"),
            parent_id=obj.get("parent_id"),
        )


def record_sort_key(rec: RawRecord) -> tuple[int, str]:
    """Canonical tie-break used everywhere: (created_utc, id) ascending."""
    return (rec.created_utc, rec.id)


@dataclass(frozen=True)
class StageSnapshot:
    """Immutable record set after one stage, with the records each of the
    stage's filters removed, keyed by the filter's manifest key."""

    stage_id: int
    records: tuple[RawRecord, ...]
    removed: dict[str, tuple[RawRecord, ...]]
    post_count: int = field(init=False)
    comment_count: int = field(init=False)

    def __post_init__(self):
        posts = sum(1 for r in self.records if r.kind is RecordKind.POST)
        object.__setattr__(self, "post_count", posts)
        object.__setattr__(self, "comment_count", len(self.records) - posts)

    @property
    def manifest(self) -> dict[str, int]:
        return {key: len(recs) for key, recs in self.removed.items()}

    @property
    def total(self) -> int:
        return len(self.records)


def _parse_post(obj: dict) -> RawRecord:
    title = str(obj.get("title") or "")
    selftext = str(obj.get("selftext") or "")
    text = " ".join(part for part in (title, selftext) if part)
    created = int(obj["created_utc"])
    if created <= 0:
        raise ValueError("created_utc must be positive")
    return RawRecord(
        id=str(obj["id"]),
        kind=RecordKind.POST,
        author=str(obj["author"]),
        created_utc=created,
        text=text,
        subreddit=str(obj.get("subreddit") or ""),
    )


def _bare_id(value: object) -> str:
    """Strip a Pushshift fullname prefix: ``t3_abc`` (post) / ``t1_xyz`` (comment)."""
    text = str(value)
    return text[3:] if text.startswith(("t1_", "t3_")) else text


def _parse_comment(obj: dict) -> RawRecord:
    created = int(obj["created_utc"])
    if created <= 0:
        raise ValueError("created_utc must be positive")
    link_id = _bare_id(obj["link_id"])
    parent_id = _bare_id(obj["parent_id"])
    if not link_id or not parent_id:
        raise ValueError("comments need link_id and parent_id")
    return RawRecord(
        id=str(obj["id"]),
        kind=RecordKind.COMMENT,
        author=str(obj["author"]),
        created_utc=created,
        text=str(obj.get("body") or ""),
        subreddit=str(obj.get("subreddit") or ""),
        link_id=link_id,
        parent_id=parent_id,
    )


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


class DumpParser:
    """Streaming JSONL parser that counts malformed lines instead of dying.

    Iterate to get records in file order.  ``skipped`` and ``parsed`` are
    final once the stream is exhausted.  More than 50% malformed lines is
    treated as a schema mismatch and raised, since at that point the file
    is more likely the wrong format than a noisy dump.
    """

    def __init__(self, path: str | Path, kind: RecordKind):
        self.path = Path(path)
        self.kind = RecordKind(kind)
        self.skipped = 0
        self.parsed = 0
        if not self.path.exists():
            raise DataError(f"dump file not found: {self.path}")

    def __iter__(self) -> Iterator[RawRecord]:
        builder = _parse_post if self.kind is RecordKind.POST else _parse_comment
        try:
            handle = _open_text(self.path)
        except OSError as exc:
            raise DataError(f"cannot read {self.path}: {exc}") from exc
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = builder(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    self.skipped += 1
                    continue
                self.parsed += 1
                yield record
        total = self.parsed + self.skipped
        if total and self.skipped / total > 0.5:
            raise SchemaError(
                f"{self.path}: {self.skipped}/{total} lines malformed; "
                "input does not look like a valid dump"
            )


def parse_dump(path: str | Path, kind: RecordKind) -> DumpParser:
    """Stream records from a JSONL dump; malformed lines are counted, not fatal."""
    return DumpParser(path, kind)


def load_dump(path: str | Path, kind: RecordKind) -> tuple[list[RawRecord], int]:
    """Eagerly parse a dump, returning (records, skipped-line count)."""
    parser = parse_dump(path, kind)
    records = list(parser)
    return records, parser.skipped


# ---------------------------------------------------------------------------
# Filters and stages; each filter keeps the order of the records it is given
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BotRule:
    """Heuristic bot detection: deny-list, name suffix, or posting bursts.

    An author is a bot if it appears in ``deny_list``, if its name ends
    (case-insensitively) with ``suffix``, or if it produced more than
    ``burst_limit`` records within any ``burst_window_seconds`` span.
    """

    deny_list: frozenset[str] = frozenset({"AutoModerator"})
    suffix: str = "bot"
    burst_limit: int = 500
    burst_window_seconds: int = 86400

    def burst_authors(self, records: Sequence[RawRecord]) -> set[str]:
        times: dict[str, list[int]] = defaultdict(list)
        for rec in records:
            times[rec.author].append(rec.created_utc)
        flagged: set[str] = set()
        for author, stamps in times.items():
            if len(stamps) <= self.burst_limit:
                continue
            stamps.sort()
            lo = 0
            for hi in range(len(stamps)):
                while stamps[hi] - stamps[lo] >= self.burst_window_seconds:
                    lo += 1
                if hi - lo + 1 > self.burst_limit:
                    flagged.add(author)
                    break
        return flagged

    def matches(self, author: str, burst: set[str]) -> bool:
        return (
            author in self.deny_list
            or (bool(self.suffix) and author.lower().endswith(self.suffix))
            or author in burst
        )


@dataclass(frozen=True)
class PipelineSettings:
    """Knobs for the staged preprocessing run."""

    bot_rule: BotRule = BotRule()
    noise_min_chars: int = 3
    max_comments_per_post: int = 10
    min_interactions: int = 2


def is_noise(rec: RawRecord, min_chars: int = 3) -> bool:
    text = rec.text.strip()
    return len(text) < min_chars or bool(_URL_ONLY_RE.match(text))


def is_deleted(rec: RawRecord) -> bool:
    return rec.author == "[deleted]" or rec.text.strip() in ("[removed]", "[deleted]")


def _drop(
    stage_id: int, records: Iterable[RawRecord], key: str, drop: Callable[[RawRecord], bool]
) -> StageSnapshot:
    """Snapshot of ``records`` less those ``drop`` flags, which are removed under ``key``."""
    kept: list[RawRecord] = []
    removed: list[RawRecord] = []
    for rec in records:
        (removed if drop(rec) else kept).append(rec)
    return StageSnapshot(stage_id, tuple(kept), {key: tuple(removed)})


def snapshot(stage_id: int, records: Iterable[RawRecord]) -> StageSnapshot:
    """The canonical snapshot of raw input, as stage 0 of a run.

    Records are sorted once by :func:`record_sort_key`; later stages keep that
    order.  Repeats of a (kind, id) pair are dropped, keeping the earliest copy
    (the first in input order on a tie), and counted under ``duplicate_removal``.
    """
    seen: set[tuple[RecordKind, str]] = set()

    def repeat(rec: RawRecord) -> bool:
        key = (rec.kind, rec.id)
        if key in seen:
            return True
        seen.add(key)
        return False

    return _drop(stage_id, sorted(records, key=record_sort_key), DUPLICATE_REMOVAL, repeat)


def filter_bots(records: Sequence[RawRecord], rule: BotRule = BotRule()) -> StageSnapshot:
    """Drop bot-authored records; the manifest counts the removals."""
    burst = rule.burst_authors(records)
    return _drop(1, records, BOT_REMOVAL, lambda r: rule.matches(r.author, burst))


def truncate_comments(records: Sequence[RawRecord], max_per_post: int = 10) -> StageSnapshot:
    """Keep only the earliest ``max_per_post`` comments of each post.

    Earliest by (created_utc, id); posts themselves are never dropped here.
    """
    per_post: dict[str, list[RawRecord]] = defaultdict(list)
    for rec in records:
        if rec.kind is RecordKind.COMMENT:
            per_post[rec.link_id].append(rec)
    late: set[str] = set()
    for comments in per_post.values():
        if len(comments) > max_per_post:
            comments.sort(key=record_sort_key)
            late.update(c.id for c in comments[max_per_post:])
    return _drop(1, records, COMMENT_TRUNCATION,
                 lambda r: r.kind is RecordKind.COMMENT and r.id in late)


def threshold_activity(records: Sequence[RawRecord], min_interactions: int = 2) -> StageSnapshot:
    """Remove every record of authors with fewer than ``min_interactions`` records."""
    counts = Counter(r.author for r in records)
    return _drop(2, records, ACTIVITY_THRESHOLD,
                 lambda r: counts[r.author] < min_interactions)


def drop_deleted(records: Sequence[RawRecord]) -> StageSnapshot:
    """Remove records authored by "[deleted]" or whose trimmed text is a
    deletion marker ("[removed]" / "[deleted]")."""
    return _drop(3, records, DELETED_REMOVAL, is_deleted)


def run_pipeline(
    records: Sequence[RawRecord],
    settings: PipelineSettings = PipelineSettings(),
) -> list[StageSnapshot]:
    """Apply stages 0..6 in order and return every snapshot.

    Record counts are non-increasing across stages; stages 4..6 never remove
    records (their work happens in the profile and inference layers) but are
    materialized so manifests line up with the stage numbering.
    """
    s = settings
    stage0 = snapshot(0, records)
    bots = filter_bots(stage0.records, s.bot_rule)
    noise = _drop(1, bots.records, NOISE_REMOVAL, lambda r: is_noise(r, s.noise_min_chars))
    late = truncate_comments(noise.records, s.max_comments_per_post)
    stage1 = StageSnapshot(1, late.records, {**bots.removed, **noise.removed, **late.removed})
    stage2 = threshold_activity(stage1.records, s.min_interactions)
    stage3 = drop_deleted(stage2.records)
    downstream = [StageSnapshot(stage_id, stage3.records, {key: ()}) for stage_id, key in
                  ((4, FEATURE_EXTRACTION), (5, FEATURE_ENRICHMENT), (6, INFERENCE_HANDOFF))]
    return [stage0, stage1, stage2, stage3, *downstream]


# ---------------------------------------------------------------------------
# Snapshot persistence
# ---------------------------------------------------------------------------

@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Write UTF-8 text to a temp file beside ``path`` that replaces ``path`` only
    when the block exits cleanly, so a crash never leaves a half-written file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomically write a CSV artifact: ``header``, then ``rows``, "\n" line ends."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def records_path(out_dir: Path, stage_id: int) -> Path:
    """The record file of a stage: stage 0's records, or stage k's removal ledger."""
    return out_dir / (f"stage{stage_id}.removed.jsonl" if stage_id else "stage0.records.jsonl")


def manifest_path(out_dir: Path, stage_id: int) -> Path:
    return out_dir / f"stage{stage_id}.manifest.json"


# One encoder for every JSONL writer; json.dumps builds a new one per call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def write_stages(
    stages: Sequence[StageSnapshot], out_dir: str | Path, extra: dict | None = None
) -> None:
    """Persist snapshots as one record ledger, all files or none.

    Stage 0 is written whole, every later stage as the records it removed:
    one ``{"kind", "id", "reason"}`` line each, the reason being the filter's
    manifest key.  No file replaces its target before all are written.
    """
    out = Path(out_dir)
    with ExitStack() as files:
        for snap in stages:
            if snap.stage_id == 0:
                rows = (rec.to_dict() for rec in snap.records)
            else:
                rows = ({"kind": r.kind.value, "id": r.id, "reason": key}
                        for key, recs in snap.removed.items() for r in recs)
            fh = files.enter_context(atomic_write(records_path(out, snap.stage_id)))
            fh.writelines(compact_json(row) + "\n" for row in rows)
            payload = {"stage_id": snap.stage_id, "post_count": snap.post_count,
                       "comment_count": snap.comment_count, "removed": snap.manifest}
            fh = files.enter_context(atomic_write(manifest_path(out, snap.stage_id)))
            json.dump({**payload, **(extra or {})}, fh, indent=2)
            fh.write("\n")


def load_records(
    path: str | Path, drop: Container[tuple[str, str]] = frozenset()
) -> list[RawRecord]:
    """Read a normalized records file, leaving out the (kind, id) pairs in ``drop``."""
    source = Path(path)
    if not source.exists():
        raise DataError(f"records file not found: {source}")
    records = []
    with _open_text(source) as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if (obj["kind"], str(obj["id"])) not in drop:
                    records.append(RawRecord.from_dict(obj))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise SchemaError(f"{source}:{n}: bad stage record: {exc}") from exc
    return records


def latest_stage_records(directory: str | Path) -> tuple[int, list[RawRecord]]:
    """Records of the highest stage with a removal ledger (stage 0 without one):
    stage 0 less every record the ledgers up to that stage name."""
    base = Path(directory)
    if not records_path(base, 0).exists():
        raise DataError(f"no stage records found under {base}")
    if any(base.glob("stage[1-9].records.jsonl")):
        raise DataError(f"{base} holds per-stage record files of an older format; "
                        "preprocess into a fresh directory")
    stage_id = max((k for k in range(1, N_STAGES) if records_path(base, k).exists()), default=0)
    removed: set[tuple[str, str]] = set()
    for k in range(1, stage_id + 1):
        ledger = records_path(base, k)
        try:
            with open(ledger, encoding="utf-8") as fh:
                removed.update((row["kind"], row["id"]) for row in map(json.loads, fh))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{ledger}: unreadable removal ledger: {exc}") from exc
    return stage_id, load_records(records_path(base, 0), removed)
