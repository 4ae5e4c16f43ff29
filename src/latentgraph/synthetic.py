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
from dataclasses import dataclass, field
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
    """Generate a dump with planted removals and known expected manifests."""
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

    singles = [f"lone{i:05d}" for i in range(n_singles)]

    # --- posts -----------------------------------------------------------
    # The first 3*P posts go round-robin to the prolific pool so every one
    # of them clears the activity threshold on posts alone.
    if n_posts < 3 * n_prolific + n_deleted_posts + n_overlong:
        raise ValueError("n_posts too small for the planted layout")
    posts: list[RawRecord] = []
    post_times = sorted(
        rng.randrange(_EPOCH_START, _EPOCH_START + _SPAN_SECONDS) for _ in range(n_posts)
    )
    deleted_post_ids: set[str] = set()
    for i in range(n_posts):
        pid = f"p{i:06d}"
        if i < 3 * n_prolific:
            author = prolific[i % n_prolific]
        elif i < 3 * n_prolific + n_deleted_posts:
            author = "[deleted]"
            deleted_post_ids.add(pid)
        else:
            author = rng.choice(prolific)
        vocab = TOPIC_VOCABULARIES[topic_of.get(author, i % len(TOPIC_VOCABULARIES))]
        title = _sentence(rng, vocab)
        body = _sentence(rng, vocab)
        posts.append(
            RawRecord(
                id=pid,
                kind=RecordKind.POST,
                author=author,
                created_utc=post_times[i],
                text=f"{title} | {body}",
                subreddit=_SUBREDDIT,
            )
        )

    # Over-long threads come from clean posts only.
    overlong_ids = [p.id for p in posts if p.id not in deleted_post_ids][:n_overlong]
    overlong_set = set(overlong_ids)

    # --- comments ---------------------------------------------------------
    comments: list[RawRecord] = []
    comment_seq = 0
    # Per-thread state: next timestamp, comment budget left, clean parents.
    state: dict[str, dict] = {
        p.id: {"time": p.created_utc, "post": p, "cap": 0, "parents": []}
        for p in posts
    }

    def next_comment(
        post: RawRecord,
        author: str,
        text: str,
        parent_id: str,
        clean: bool,
    ) -> RawRecord:
        nonlocal comment_seq
        st = state[post.id]
        st["time"] += rng.randint(120, 10_800)
        rec = RawRecord(
            id=f"c{comment_seq:07d}",
            kind=RecordKind.COMMENT,
            author=author,
            created_utc=st["time"],
            text=text,
            subreddit=_SUBREDDIT,
            link_id=post.id,
            parent_id=parent_id,
        )
        comment_seq += 1
        comments.append(rec)
        if clean:
            st["parents"].append(rec)
        return rec

    def pick_parent(post: RawRecord, exclude_author: str | None = None) -> tuple[str, str]:
        """Clean parent (id, author); never produces accidental self-replies."""
        st = state[post.id]
        candidates = [post] + st["parents"]
        if exclude_author is not None:
            candidates = [c for c in candidates if c.author != exclude_author]
        if not candidates:
            return post.id, post.author
        chosen = candidates[0] if rng.random() < 0.55 else rng.choice(candidates)
        return chosen.id, chosen.author

    def prolific_comment(post: RawRecord) -> None:
        parent_id, parent_author = pick_parent(post)
        author = rng.choice(prolific)
        while author == parent_author:
            author = rng.choice(prolific)
        vocab = TOPIC_VOCABULARIES[topic_of[author]]
        next_comment(post, author, _sentence(rng, vocab), parent_id, clean=True)

    truncated_total = 0
    for pid in overlong_ids:
        post = state[pid]["post"]
        excess = rng.randint(2, 5)
        truncated_total += excess
        for _ in range(_MAX_PER_POST + excess):
            prolific_comment(post)

    # Base clean comments in normal threads, leaving room for the specials.
    special_budget = (
        n_bots + n_noise + n_singles + n_deleted_comments + n_removed_body + n_self_replies
    )
    base_budget = max(0, n_comments - len(comments) - special_budget)
    normal_posts = [p for p in posts if p.id not in overlong_set and p.id not in deleted_post_ids]
    for post in normal_posts:
        state[post.id]["cap"] = _MAX_PER_POST
    idx = 0
    while base_budget > 0 and normal_posts:
        post = normal_posts[idx % len(normal_posts)]
        st = state[post.id]
        # Keep one slot free per thread for planted specials.
        if st["cap"] > 1:
            prolific_comment(post)
            st["cap"] -= 1
            base_budget -= 1
        idx += 1
        if idx > 20 * len(normal_posts):
            break

    room = [p for p in normal_posts if state[p.id]["cap"] > 0]

    def place_special(author: str, text: str, clean: bool, self_reply: bool = False) -> None:
        slot = rng.randrange(len(room))
        post = room[slot]
        st = state[post.id]
        if self_reply:
            parent_id, author = post.id, post.author
        else:
            parent_id, _ = pick_parent(post, exclude_author=author)
        next_comment(post, author, text, parent_id, clean=clean)
        st["cap"] -= 1
        if st["cap"] <= 0:
            room[slot] = room[-1]
            room.pop()

    mixed_vocab = [w for vocab in TOPIC_VOCABULARIES for w in vocab]
    for i in range(n_bots):
        place_special(BOT_NAMES[i % len(BOT_NAMES)], _sentence(rng, mixed_vocab), clean=False)
    for i in range(n_noise):
        text = "ok" if i % 2 == 0 else f"https://example.com/x{i}"
        place_special(rng.choice(prolific), text, clean=False)
    for name in singles:
        place_special(name, _sentence(rng, mixed_vocab), clean=False)
    for _ in range(n_deleted_comments):
        place_special("[deleted]", _sentence(rng, mixed_vocab), clean=False)
    for _ in range(n_removed_body):
        place_special(rng.choice(prolific), "[removed]", clean=False)
    for _ in range(n_self_replies):
        place_special("", "", clean=True, self_reply=True)

    # Self-reply texts need real content; regenerate them with topic words.
    for pos, rec in enumerate(comments):
        if rec.text == "" and rec.author:
            vocab = TOPIC_VOCABULARIES[topic_of.get(rec.author, 0)]
            comments[pos] = RawRecord(
                id=rec.id,
                kind=rec.kind,
                author=rec.author,
                created_utc=rec.created_utc,
                text=_sentence(rng, vocab),
                subreddit=rec.subreddit,
                link_id=rec.link_id,
                parent_id=rec.parent_id,
            )

    # --- expected manifests ------------------------------------------------
    n_posts_actual = len(posts)
    n_comments_actual = len(comments)
    stage1_comments = n_comments_actual - n_bots - n_noise - truncated_total
    stage2_comments = stage1_comments - n_singles
    stage3_posts = n_posts_actual - n_deleted_posts
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
        (n_posts_actual, n_comments_actual),
        (n_posts_actual, stage1_comments),
        (n_posts_actual, stage2_comments),
        (stage3_posts, stage3_comments),
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
