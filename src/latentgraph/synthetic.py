"""Deterministic synthetic dump generator with planted ground truth.

Builds a Reddit-style post/comment corpus in which every preprocessing
filter has a known, disjoint set of targets: bot-named authors, noise
texts, over-long threads, single-record authors, and deleted/removed
records.  The expected per-stage removal counts come from the generation
plan itself (category sizes chosen up front), so pipeline manifests can be
checked against an independent ground truth.

Interactions between categories are designed away rather than recomputed:
over-long threads contain only clean high-activity comments, planted
specials only go to threads with spare capacity, reply parents are only
ever clean surviving records, and threads of deleted posts get no comments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .ingest import (
    ACTIVITY_THRESHOLD,
    BOT_REMOVAL,
    COMMENT_TRUNCATION,
    DELETED_REMOVAL,
    DUPLICATE_REMOVAL,
    NOISE_REMOVAL,
    RawRecord,
    RecordKind,
    write_csv,
    write_jsonl,
)

TOPIC_VOCABULARIES = [
    (
        "kernel compiler runtime gpu shader thread cache latency packet socket "
        "firmware driver binary opcode register pipeline schedule buffer"
    ).split(),
    (
        "glacier rainfall drought carbon emission turbine solar panel biome "
        "wetland reef erosion monsoon permafrost canopy habitat aquifer"
    ).split(),
    (
        "vaccine symptom clinic dosage therapy immunity recovery screening "
        "nutrition fatigue syndrome pathogen antibody booster ward triage"
    ).split(),
    (
        "market tariff ledger bond dividend inflation startup venture audit "
        "payroll futures hedge liquidity merger subsidy commodity"
    ).split(),
]

FILLER_WORDS = "the about with into over under really maybe still quite".split()

DEMO_LEXICON = {
    "furious": "anger",
    "angry": "anger",
    "outraged": "anger",
    "happy": "joy",
    "glad": "joy",
    "delighted": "joy",
    "scared": "fear",
    "worried": "fear",
    "anxious": "fear",
}

BOT_NAMES = ["AutoModerator", "newsbot", "tickerbot", "modbot"]

_EPOCH_START = 1_577_836_800  # 2020-01-01 UTC
_SPAN_SECONDS = 2 * 365 * 86400
_SUBREDDIT = "synthetic"
_MAX_PER_POST = 10  # run_pipeline's default cap, which the over-long threads exceed


@dataclass
class SyntheticDump:
    posts: list[RawRecord]
    comments: list[RawRecord]
    expected_removed: dict[int, dict[str, int]]
    expected_counts: list[tuple[int, int]]  # (posts, comments) per stage 0..3
    planted: dict[str, int] = field(default_factory=dict)

    @property
    def records(self) -> list[RawRecord]:
        return self.posts + self.comments

    def write_dumps(self, out_dir: str | Path) -> tuple[Path, Path]:
        """Write raw-schema posts.jsonl and comments.jsonl dump files."""
        posts_path, comments_path = Path(out_dir) / "posts.jsonl", Path(out_dir) / "comments.jsonl"

        def post_row(rec: RawRecord) -> dict:
            title, _, selftext = rec.text.partition(" | ")
            return {"id": rec.id, "author": rec.author, "created_utc": rec.created_utc,
                    "title": title, "selftext": selftext, "subreddit": rec.subreddit}

        write_jsonl(posts_path, map(post_row, self.posts))
        write_jsonl(comments_path, (
            {"id": rec.id, "author": rec.author, "created_utc": rec.created_utc, "body": rec.text,
             "subreddit": rec.subreddit, "link_id": rec.link_id, "parent_id": rec.parent_id}
            for rec in self.comments))
        return posts_path, comments_path


def write_lexicon_csv(path: str | Path) -> Path:
    write_csv(path, ["term", "emotion"], sorted(DEMO_LEXICON.items()))
    return Path(path)


def _sentence(rng: random.Random, vocab: list[str]) -> str:
    words = [rng.choice(vocab) for _ in range(rng.randint(5, 11))]
    if rng.random() < 0.25:
        words.append(rng.choice(FILLER_WORDS))
    if rng.random() < 0.12:
        words.append(rng.choice(sorted(DEMO_LEXICON)))
    mark = rng.choice([".", ".", ".", "?", "!"])
    return " ".join(words) + mark


def make_synthetic_dump(
    n_posts: int = 100,
    n_comments: int = 600,
    seed: int = 42,
) -> SyntheticDump:
    """Generate a dump with planted removals and known expected manifests.

    The plan, in ``rng`` order: the posts; ``_MAX_PER_POST`` plus 2-5 clean
    comments in each over-long thread; base comments round-robin over the
    normal threads, at most ``_MAX_PER_POST - 1`` each; planted comments,
    each in a random normal thread with a free slot; self-replies last, their
    texts drawn once all are placed.  ``n_comments`` is a target: planted
    categories have fixed minimums and full threads take no more comments.
    Raises ``ValueError`` when the planted layout does not fit.
    """
    rng = random.Random(seed)

    n_prolific = max(4, n_posts // 8)
    prolific = [f"user{i:05d}" for i in range(n_prolific)]
    topic_of = {name: i % len(TOPIC_VOCABULARIES) for i, name in enumerate(prolific)}

    # Planted category sizes.
    n_bots = max(3, n_comments // 80)
    n_noise = max(3, n_comments // 80)
    n_singles = max(3, n_comments // 60)
    n_deleted_comments = max(3, n_comments // 80)
    n_removed_body = max(2, n_comments // 100)
    n_self_replies = max(2, n_comments // 100)
    n_deleted_posts = max(1, n_posts // 50)
    n_overlong = max(1, n_posts // 50)

    # --- posts -----------------------------------------------------------
    first_deleted = 3 * n_prolific
    if n_posts < first_deleted + n_deleted_posts + n_overlong:
        raise ValueError("n_posts too small for the planted layout")
    posts: list[RawRecord] = []
    post_times = sorted(
        rng.randrange(_EPOCH_START, _EPOCH_START + _SPAN_SECONDS) for _ in range(n_posts)
    )
    for i, created in enumerate(post_times):
        if i < first_deleted:
            author = prolific[i % n_prolific]
        elif i < first_deleted + n_deleted_posts:
            author = "[deleted]"
        else:
            author = rng.choice(prolific)
        vocab = TOPIC_VOCABULARIES[topic_of.get(author, i % len(TOPIC_VOCABULARIES))]
        posts.append(
            RawRecord(
                id=f"p{i:06d}",
                kind=RecordKind.POST,
                author=author,
                created_utc=created,
                text=f"{_sentence(rng, vocab)} | {_sentence(rng, vocab)}",
                subreddit=_SUBREDDIT,
            )
        )
    clean_posts = posts[:first_deleted] + posts[first_deleted + n_deleted_posts:]
    overlong_posts, normal_posts = clean_posts[:n_overlong], clean_posts[n_overlong:]

    # --- comments ---------------------------------------------------------
    comments: list[RawRecord] = []
    clock = {post.id: post.created_utc for post in clean_posts}
    parents = {post.id: [post] for post in clean_posts}  # clean records, the post first

    def add_comment(post: RawRecord, author: str, text: str, parent_id: str) -> RawRecord:
        clock[post.id] += rng.randint(120, 10_800)
        rec = RawRecord(
            id=f"c{len(comments):07d}",
            kind=RecordKind.COMMENT,
            author=author,
            created_utc=clock[post.id],
            text=text,
            subreddit=_SUBREDDIT,
            link_id=post.id,
            parent_id=parent_id,
        )
        comments.append(rec)
        return rec

    def pick_parent(post: RawRecord, exclude_author: str | None = None) -> RawRecord:
        """A clean record of the thread not by ``exclude_author``, the first
        with probability 0.55; with none, the post itself, so a planted noise
        or ``[removed]`` comment by the post's author may reply to its own
        post (such comments are removed before events are extracted)."""
        candidates = [rec for rec in parents[post.id] if rec.author != exclude_author]
        if not candidates:
            return post
        return candidates[0] if rng.random() < 0.55 else rng.choice(candidates)

    def prolific_comment(post: RawRecord) -> None:
        parent = pick_parent(post)
        author = rng.choice(prolific)
        while author == parent.author:
            author = rng.choice(prolific)
        text = _sentence(rng, TOPIC_VOCABULARIES[topic_of[author]])
        parents[post.id].append(add_comment(post, author, text, parent.id))

    truncated_total = 0
    for post in overlong_posts:
        excess = rng.randint(2, 5)
        truncated_total += excess
        for _ in range(_MAX_PER_POST + excess):
            prolific_comment(post)

    n_planted = (
        n_bots + n_noise + n_singles + n_deleted_comments + n_removed_body + n_self_replies
    )
    base_slots = normal_posts * (_MAX_PER_POST - 1)  # round-robin, one slot left per thread
    n_base = max(0, min(n_comments - len(comments) - n_planted, len(base_slots)))
    n_free = _MAX_PER_POST * len(normal_posts) - n_base
    if n_planted > n_free:
        raise ValueError(f"n_comments too large for the planted layout: {n_planted} "
                         f"planted comments, {n_free} free slots in the normal threads")
    free = {post.id: _MAX_PER_POST for post in normal_posts}
    for post in base_slots[:n_base]:
        prolific_comment(post)
        free[post.id] -= 1

    room = list(normal_posts)  # the threads with a free slot

    def take_slot() -> RawRecord:
        slot = rng.randrange(len(room))
        post = room[slot]
        free[post.id] -= 1
        if not free[post.id]:
            room[slot] = room[-1]
            room.pop()
        return post

    def plant(author: str, text: str) -> None:
        post = take_slot()
        add_comment(post, author, text, pick_parent(post, exclude_author=author).id)

    mixed_vocab = [w for vocab in TOPIC_VOCABULARIES for w in vocab]
    for i in range(n_bots):
        plant(BOT_NAMES[i % len(BOT_NAMES)], _sentence(rng, mixed_vocab))
    for i in range(n_noise):
        plant(rng.choice(prolific), "ok" if i % 2 == 0 else f"https://example.com/x{i}")
    for i in range(n_singles):
        plant(f"lone{i:05d}", _sentence(rng, mixed_vocab))
    for _ in range(n_deleted_comments):
        plant("[deleted]", _sentence(rng, mixed_vocab))
    for _ in range(n_removed_body):
        plant(rng.choice(prolific), "[removed]")
    for _ in range(n_self_replies):
        post = take_slot()
        add_comment(post, post.author, "", post.id)
    comments[-n_self_replies:] = [
        replace(rec, text=_sentence(rng, TOPIC_VOCABULARIES[topic_of[rec.author]]))
        for rec in comments[-n_self_replies:]
    ]

    # --- expected manifests ------------------------------------------------
    stage1_comments = len(comments) - n_bots - n_noise - truncated_total
    stage2_comments = stage1_comments - n_singles
    stage3_comments = stage2_comments - n_deleted_comments - n_removed_body

    expected_removed = {
        0: {DUPLICATE_REMOVAL: 0},
        1: {
            BOT_REMOVAL: n_bots,
            NOISE_REMOVAL: n_noise,
            COMMENT_TRUNCATION: truncated_total,
        },
        2: {ACTIVITY_THRESHOLD: n_singles},
        3: {DELETED_REMOVAL: n_deleted_posts + n_deleted_comments + n_removed_body},
    }
    expected_counts = [
        (n_posts, len(comments)),
        (n_posts, stage1_comments),
        (n_posts, stage2_comments),
        (n_posts - n_deleted_posts, stage3_comments),
    ]

    planted = {
        "bots": n_bots,
        "noise": n_noise,
        "truncated": truncated_total,
        "singles": n_singles,
        "deleted_posts": n_deleted_posts,
        "deleted_comments": n_deleted_comments,
        "removed_body": n_removed_body,
        "self_replies": n_self_replies,
        "overlong_threads": n_overlong,
    }
    return SyntheticDump(
        posts=posts,
        comments=comments,
        expected_removed=expected_removed,
        expected_counts=expected_counts,
        planted=planted,
    )
