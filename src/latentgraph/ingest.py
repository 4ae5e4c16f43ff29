"""Parsing and staged preprocessing of post/comment dumps.

Input dumps are JSONL, one object per line (optionally gzip-compressed).
Posts carry ``{"id","author","created_utc","title","selftext","subreddit"}``,
comments ``{"id","author","created_utc","body","subreddit","link_id",
"parent_id"}``.  Preprocessing runs as numbered stages 0..6, each producing an
immutable :class:`StageSnapshot` whose manifest records how many records every
filter removed, so the whole reduction is auditable stage by stage.

Stage map:

====  =============================================================
 0    raw records (no filtering)
 1    bot removal, noise filtering, truncation to the earliest
      ``max_comments_per_post`` comments per post
 2    user activity thresholding (authors below ``min_interactions``)
 3    removal of deleted/removed posts and comments
 4    feature extraction (record set unchanged; handled downstream)
 5    feature enrichment (record set unchanged; handled downstream)
 6    handoff to relation inference (record set unchanged)
====  =============================================================
"""

from __future__ import annotations

import gzip
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, SchemaError

N_STAGES = 7

# Manifest keys, shared with fixtures and tests.
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
        return {
            "id": self.id,
            "kind": self.kind.value,
            "author": self.author,
            "created_utc": self.created_utc,
            "text": self.text,
            "subreddit": self.subreddit,
            "link_id": self.link_id,
            "parent_id": self.parent_id,
        }

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
    """Immutable record set plus removal manifest after one stage."""

    stage_id: int
    records: tuple[RawRecord, ...]
    manifest: dict[str, int]
    post_count: int = field(init=False)
    comment_count: int = field(init=False)

    def __post_init__(self):
        posts = sum(1 for r in self.records if r.kind is RecordKind.POST)
        object.__setattr__(self, "post_count", posts)
        object.__setattr__(self, "comment_count", len(self.records) - posts)

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
# Filter rules
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


def _split_bots(records: Sequence[RawRecord], rule: BotRule) -> tuple[list[RawRecord], int]:
    burst = rule.burst_authors(records)
    kept = [r for r in records if not rule.matches(r.author, burst)]
    return kept, len(records) - len(kept)


def is_noise(rec: RawRecord, min_chars: int = 3) -> bool:
    text = rec.text.strip()
    return len(text) < min_chars or bool(_URL_ONLY_RE.match(text))


def _split_noise(records: Sequence[RawRecord], min_chars: int) -> tuple[list[RawRecord], int]:
    kept = [r for r in records if not is_noise(r, min_chars)]
    return kept, len(records) - len(kept)


def _split_truncation(
    records: Sequence[RawRecord], max_per_post: int
) -> tuple[list[RawRecord], int]:
    per_post: dict[str, list[RawRecord]] = defaultdict(list)
    for rec in records:
        if rec.kind is RecordKind.COMMENT:
            per_post[rec.link_id].append(rec)
    dropped: set[str] = set()
    for comments in per_post.values():
        if len(comments) <= max_per_post:
            continue
        comments.sort(key=record_sort_key)
        dropped.update(c.id for c in comments[max_per_post:])
    kept = [
        r
        for r in records
        if r.kind is RecordKind.POST or r.id not in dropped
    ]
    return kept, len(dropped)


def _split_activity(
    records: Sequence[RawRecord], min_interactions: int
) -> tuple[list[RawRecord], int]:
    counts: dict[str, int] = defaultdict(int)
    for rec in records:
        counts[rec.author] += 1
    kept = [r for r in records if counts[r.author] >= min_interactions]
    return kept, len(records) - len(kept)


def is_deleted(rec: RawRecord) -> bool:
    return rec.author == "[deleted]" or rec.text.strip() in ("[removed]", "[deleted]")


def _split_deleted(records: Sequence[RawRecord]) -> tuple[list[RawRecord], int]:
    kept = [r for r in records if not is_deleted(r)]
    return kept, len(records) - len(kept)


# ---------------------------------------------------------------------------
# Stage-level operations
# ---------------------------------------------------------------------------

def snapshot(stage_id: int, records: Iterable[RawRecord], manifest: dict[str, int] | None = None) -> StageSnapshot:
    ordered = tuple(sorted(records, key=record_sort_key))
    return StageSnapshot(stage_id=stage_id, records=ordered, manifest=dict(manifest or {}))


def filter_bots(
    records: Sequence[RawRecord], rule: BotRule = BotRule(), stage_id: int = 1
) -> StageSnapshot:
    """Drop bot-authored records; the manifest counts the removals."""
    kept, removed = _split_bots(records, rule)
    return snapshot(stage_id, kept, {BOT_REMOVAL: removed})


def truncate_comments(
    records: Sequence[RawRecord], max_per_post: int = 10, stage_id: int = 1
) -> StageSnapshot:
    """Keep only the earliest ``max_per_post`` comments of each post.

    Earliest by (created_utc, id); posts themselves are never dropped here.
    """
    kept, removed = _split_truncation(records, max_per_post)
    return snapshot(stage_id, kept, {COMMENT_TRUNCATION: removed})


def threshold_activity(
    records: Sequence[RawRecord], min_interactions: int = 2, stage_id: int = 2
) -> StageSnapshot:
    """Remove every record of authors with fewer than ``min_interactions`` records."""
    kept, removed = _split_activity(records, min_interactions)
    return snapshot(stage_id, kept, {ACTIVITY_THRESHOLD: removed})


def drop_deleted(records: Sequence[RawRecord], stage_id: int = 3) -> StageSnapshot:
    """Remove records authored by "[deleted]" or whose trimmed text is a
    deletion marker ("[removed]" / "[deleted]")."""
    kept, removed = _split_deleted(records)
    return snapshot(stage_id, kept, {DELETED_REMOVAL: removed})


def run_pipeline(
    records: Sequence[RawRecord],
    settings: PipelineSettings = PipelineSettings(),
) -> list[StageSnapshot]:
    """Apply stages 0..6 in order and return every snapshot.

    Record counts are non-increasing across stages; stages 4..6 never remove
    records (their work happens in the profile and inference layers) but are
    materialized so manifests line up with the stage numbering.
    """
    stages: list[StageSnapshot] = []
    stage0 = snapshot(0, records, {})
    stages.append(stage0)

    current = list(stage0.records)
    current, n_bots = _split_bots(current, settings.bot_rule)
    current, n_noise = _split_noise(current, settings.noise_min_chars)
    current, n_trunc = _split_truncation(current, settings.max_comments_per_post)
    manifest1 = {BOT_REMOVAL: n_bots, NOISE_REMOVAL: n_noise, COMMENT_TRUNCATION: n_trunc}
    stages.append(snapshot(1, current, manifest1))

    current, n_act = _split_activity(current, settings.min_interactions)
    stages.append(snapshot(2, current, {ACTIVITY_THRESHOLD: n_act}))

    current, n_del = _split_deleted(current)
    stages.append(snapshot(3, current, {DELETED_REMOVAL: n_del}))

    stages.append(snapshot(4, current, {FEATURE_EXTRACTION: 0}))
    stages.append(snapshot(5, current, {FEATURE_ENRICHMENT: 0}))
    stages.append(snapshot(6, current, {INFERENCE_HANDOFF: 0}))
    return stages


# ---------------------------------------------------------------------------
# Snapshot persistence
# ---------------------------------------------------------------------------

def records_path(out_dir: Path, stage_id: int) -> Path:
    return out_dir / f"stage{stage_id}.records.jsonl"


def manifest_path(out_dir: Path, stage_id: int) -> Path:
    return out_dir / f"stage{stage_id}.manifest.json"


def write_snapshot(snap: StageSnapshot, out_dir: str | Path, extra: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(records_path(out, snap.stage_id), "w", encoding="utf-8") as fh:
        for rec in snap.records:
            fh.write(json.dumps(rec.to_dict(), separators=(",", ":")) + "\n")
    payload = {
        "stage_id": snap.stage_id,
        "post_count": snap.post_count,
        "comment_count": snap.comment_count,
        "removed": snap.manifest,
    }
    if extra:
        payload.update(extra)
    with open(manifest_path(out, snap.stage_id), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_stages(
    stages: Sequence[StageSnapshot], out_dir: str | Path, extra: dict | None = None
) -> None:
    """Persist all snapshots; on failure, partially written files are removed."""
    out = Path(out_dir)
    written: list[Path] = []
    try:
        for snap in stages:
            # Track targets first so a mid-write crash still cleans them up.
            written.append(records_path(out, snap.stage_id))
            written.append(manifest_path(out, snap.stage_id))
            write_snapshot(snap, out, extra)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def load_records(path: str | Path) -> list[RawRecord]:
    """Read a normalized stage records file."""
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
                records.append(RawRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise SchemaError(f"{source}:{n}: bad stage record: {exc}") from exc
    return records


def latest_stage_records(directory: str | Path) -> tuple[int, list[RawRecord]]:
    """Load the highest-numbered stageK.records.jsonl in a directory."""
    base = Path(directory)
    for stage_id in range(N_STAGES - 1, -1, -1):
        candidate = records_path(base, stage_id)
        if candidate.exists():
            return stage_id, load_records(candidate)
    raise DataError(f"no stage records found under {base}")
