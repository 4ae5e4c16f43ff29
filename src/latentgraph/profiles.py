"""User-to-agent aggregation.

Users are represented by hashed term-frequency vectors over their combined
post/comment text, kept as sparse CSR rows (``UserVectors``), grouped with
seeded spherical k-means over those rows, and each cluster becomes one agent
profile carrying keywords, emotion frequencies, and style features.
Everything is deterministic for a fixed (input, dim, seed): the token hash
is FNV-1a 64-bit modulo the vector dimension, numpy's RNG is seeded, all
tie-breaks go through sorted ids, and every dot product adds a row's
nonzero products left to right in bucket order, whatever the BLAS.

Precomputed per-user embeddings can be clustered instead of the hashed
vectors (``load_embeddings``); keywords still come from the members' term
rows.
"""

from __future__ import annotations

import csv
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import RawRecord, decode_lines, open_input, read_id, read_json, write_json

DEFAULT_DIM = 4096
RESIDUAL_LABEL = "GeneralChat"
KMEANS_MAX_ITER = 100
TOP_KEYWORDS = 10

# Records per ``term_table`` block.  A block's texts are joined and read in
# one pass, so its transients (the joined text, its tokens) stay a few
# hundred KiB on texts of forum length.
TEXT_BLOCK = 1 << 9

# Every byte that is not in ``[a-z0-9]`` becomes a space.
_WORD_BYTES = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32
                    for c in range(256))
# In texts joined by "\0", and closed by one: a sentence break is a '.', '!'
# or '?' that whitespace and more of its text follow; a text's last sentence
# ends in '?' or '!' when only whitespace follows that mark.  Two patterns,
# since ``re`` scans for the first character of each apart but not of an
# alternation of them.
_BREAK_RE = re.compile(r"[.!?](?=\s+[^\s\0])")
_FINAL_RE = re.compile(r"[?!](?=\s*\0)")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 1 << 64


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash; the fixed token hash of the vector space."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) % _U64
    return h


def _joined(texts: Sequence[str]) -> str:
    """``texts`` joined by "\0"; a "\0" inside a text becomes "\1", which
    tokenizes and splits sentences the same."""
    joined = "\0".join(texts)
    if joined.count("\0") >= len(texts):
        joined = "\0".join(text.replace("\0", "\1") for text in texts)
    return joined


def tokenize(texts: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The lowercased alphanumeric tokens of ``texts``, text after text, and
    each text's token count (int64).

    One pass over the joined texts: lowercased once, encoded to UTF-8 (lone
    surrogates included), every byte outside ``[a-z0-9]`` made a space, and
    split.  A token starts where a space byte is followed by another byte,
    so each text's count is the number of starts before the "\0" that ends
    it.
    """
    data = _joined(texts).lower().encode("utf-8", "surrogatepass")
    words = data.translate(_WORD_BYTES)
    inside = np.frombuffer(b" " + words, np.uint8) != 32
    starts = np.flatnonzero(inside[1:] > inside[:-1])
    ends = np.append(np.flatnonzero(np.frombuffer(data, np.uint8) == 0), len(data))
    counts = np.diff(np.searchsorted(starts, ends[:len(texts)]), prepend=0)
    return words.decode("ascii").split(), counts


def _sentence_counts(texts: Sequence[str]) -> np.ndarray:
    """Each text's sentences, questions and exclamations, as columns (int64).

    A text splits into sentences after each '.', '!' or '?' that whitespace
    follows, once its ends are stripped; a sentence is a question or an
    exclamation when it ends in '?' or '!'.
    """
    joined = _joined(texts) + "\0"
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    ends = np.cumsum(lengths + 1) - 1  # the "\0" after each text
    blank = np.fromiter(map(str.isspace, texts), bool, len(texts)) | (lengths == 0)
    counts = np.zeros((len(texts), 3), dtype=np.int64)
    counts[:, 0] = ~blank
    for regex in (_BREAK_RE, _FINAL_RE):
        matches = list(regex.finditer(joined))
        text_of = np.searchsorted(ends, np.fromiter(map(re.Match.start, matches), np.int64,
                                                    len(matches)))
        mark = np.frombuffer("".join(map(re.Match.group, matches)).encode("ascii"), np.uint8)
        if regex is _BREAK_RE:
            np.add.at(counts[:, 0], text_of, 1)
        np.add.at(counts[:, 1], text_of[mark == ord("?")], 1)
        np.add.at(counts[:, 2], text_of[mark == ord("!")], 1)
    return counts


def token_bucket(token: str, dim: int) -> int:
    return fnv1a_64(token.encode("utf-8")) % dim


class UserVectors(NamedTuple):
    """One L2-normalized row per user, in sorted user order, as CSR arrays.

    Row ``i`` holds ``values[indptr[i]:indptr[i + 1]]`` at the strictly
    ascending ``buckets`` of the same slice; no zero is stored, so a user
    without text has an empty row.
    """

    users: tuple[str, ...]
    dim: int
    indptr: np.ndarray  # int64, one more entry than there are users
    buckets: np.ndarray  # int32
    values: np.ndarray  # float64

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as a dense vector."""
        vec = np.zeros(self.dim, dtype=np.float64)
        start, end = self.indptr[i], self.indptr[i + 1]
        vec[self.buckets[start:end]] = self.values[start:end]
        return vec

    def mean_of(self, users: Sequence[str]) -> np.ndarray:
        """The L2-normalized mean of the rows of ``users`` (all in these
        vectors), each bucket summed in row order: for a cluster's members,
        bit for bit the centroid ``cluster_users`` gives it."""
        rows = np.array(sorted(bisect_left(self.users, u) for u in users), dtype=np.int64)
        take = _spans(self.indptr[rows], self.indptr[rows + 1] - self.indptr[rows])
        sums = np.bincount(self.buckets[take], weights=self.values[take], minlength=self.dim)
        return _normalize(sums / max(len(rows), 1))


@dataclass(frozen=True)
class TextCounts:
    """Integer counts over one user's texts; enrichment sums them per agent."""

    tokens: int
    sentences: int
    questions: int
    exclamations: int
    hits: Counter  # lexicon hits per emotion


class TermTable(NamedTuple):
    """Every record's hashed terms, tokenized once.

    Record ``r``'s token buckets, in token order, are
    ``buckets[offsets[r]:offsets[r + 1]]``; ``user_of[r]`` is the row of its
    author in the sorted ``users``.  ``counts`` is the one term count of
    both stages: agents sum it per user and chains per record.
    """

    dim: int
    buckets: np.ndarray  # int32, all records' token buckets concatenated
    offsets: np.ndarray  # int64, one more entry than there are records
    users: tuple[str, ...]
    user_of: np.ndarray  # int32, one entry per record

    def vector(self, row: int) -> np.ndarray:
        """One record's term counts, L2-normalized; no tokens gives the zero vector."""
        start, end = self.offsets[row], self.offsets[row + 1]
        counts = np.bincount(self.buckets[start:end], minlength=self.dim)
        return _normalize(counts.astype(np.float64))

    def counts(self, rows: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, ...]:
        """(owner, bucket, count) of every distinct term of the records at
        ``rows``, each summed over the records of one owner, ``owner[i] >= 0``
        owning ``rows[i]``; sorted by owner, then bucket."""
        first = self.offsets[rows]
        lengths = self.offsets[rows + 1] - first
        keys, count = np.unique(np.repeat(np.asarray(owner, np.int64), lengths) * self.dim
                                + self.buckets[_spans(first, lengths)], return_counts=True)
        return *np.divmod(keys, self.dim), count


class _TokenIds(dict):
    """token -> id, numbered in order of first sight."""

    def __missing__(self, token: str) -> int:
        token_id = self[token] = len(self)
        return token_id


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``start .. start + length - 1`` of each span, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lengths), lengths)


def _normalize(vec: np.ndarray) -> np.ndarray:
    """Scale ``vec`` to unit L2 norm in place; the zero vector stays zero."""
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def _check_dim(dim: int) -> None:
    if dim < 16:
        raise ConfigError(f"vector dimension must be >= 16, got {dim}")


def term_table(
    records: Sequence[RawRecord],
    dim: int = DEFAULT_DIM,
    lexicon: Mapping[str, str] | None = None,
) -> tuple[TermTable, dict[int, Counter], dict[str, TextCounts]]:
    """One pass over the records' texts: term table, vocabulary and counts.

    Each block of ``TEXT_BLOCK`` records goes through ``tokenize`` once and
    has its sentences counted once; each distinct token is hashed once.
    Token ids and the vocabulary follow the order in which tokens first
    appear.  The bucket -> original-token dictionary is what lets keywords
    come back out of the hashed space.  Sentences split on whitespace only,
    so a text's tokens are its sentences' tokens.  Counts are keyed by
    author and summed per author within each block.
    """
    _check_dim(dim)
    emotions = sorted(set((lexicon or {}).values()))
    emotion_code = {term: emotions.index(emotion) for term, emotion in (lexicon or {}).items()}
    id_of = _TokenIds()
    # One growing buffer, kept as the table: large temporaries freed here
    # would stay resident through clustering.
    token_ids = array("i")
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    users = tuple(sorted(set(map(attrgetter("author"), records))))
    user_of = np.fromiter(map({user: i for i, user in enumerate(users)}.__getitem__,
                              map(attrgetter("author"), records)), np.int32, len(records))
    tallies = np.zeros((len(users), 4), dtype=np.int64)  # tokens, sentences, ?, !
    hits = np.zeros((len(users), len(emotions)), dtype=np.int64)
    for first in range(0, len(records), TEXT_BLOCK):
        texts = [rec.text for rec in records[first:first + TEXT_BLOCK]]
        owners = user_of[first:first + len(texts)]
        tokens, counts = tokenize(texts)
        token_ids.extend(map(id_of.__getitem__, tokens))
        offsets[first + 1:first + len(texts) + 1] = offsets[first] + np.cumsum(counts)
        np.add.at(tallies, owners, np.column_stack((counts, _sentence_counts(texts))))
        if emotions:
            emotion = np.fromiter(map(emotion_code.get, tokens, repeat(-1)), np.int64,
                                  len(tokens))
            hit = emotion >= 0
            np.add.at(hits, (np.repeat(owners, counts)[hit], emotion[hit]), 1)
    tokens = list(id_of)
    bucket_of_id = np.fromiter((token_bucket(t, dim) for t in tokens), np.int32, len(tokens))
    totals = np.zeros(len(tokens), dtype=np.int64)
    ids = np.frombuffer(token_ids, dtype=np.int32)
    for first in range(0, len(ids), 1 << 16):
        chunk = ids[first:first + (1 << 16)]
        totals += np.bincount(chunk, minlength=len(tokens))
        chunk[:] = bucket_of_id[chunk]  # token ids become bucket ids
    vocab: dict[int, Counter] = {}
    for token, bucket, n in zip(tokens, bucket_of_id.tolist(), totals.tolist()):
        vocab.setdefault(bucket, Counter())[token] = n
    table = TermTable(dim, ids, offsets, users, user_of)
    return table, vocab, {
        user: TextCounts(*tally, Counter({emotions[e]: n for e, n in enumerate(row) if n}))
        for user, tally, row in zip(users, tallies.tolist(), hits.tolist())}


def build_user_vectors(table: TermTable) -> UserVectors:
    """Each user's row: the summed term counts of its records, L2-normalized.

    Records are sorted by user once, and each block of whole users is
    counted per (user, bucket) by ``TermTable.counts`` on its own, so no
    temporary outgrows a block.  The counts are integers, so the sums, and
    each row's sum of squares, are exact in any order: scaling only the
    nonzeros gives the bytes of the normalized dense row.
    """
    n_users = len(table.users)
    order = np.argsort(table.user_of, kind="stable")
    user_of = table.user_of[order]
    first_record = np.searchsorted(user_of, np.arange(n_users + 1))
    first_token = np.concatenate(([0], np.cumsum(np.diff(table.offsets)[order])))[first_record]
    row_nnz, bucket_parts, value_parts = [], [], []
    low = 0
    while low < n_users:
        # As many whole users as fit in 2^14 tokens, and at least one.
        high = max(low + 1, int(np.searchsorted(first_token, first_token[low] + (1 << 14),
                                                side="right")) - 1)
        records = slice(first_record[low], first_record[high])
        owner, bucket, counts = table.counts(order[records], user_of[records] - low)
        counts = counts.astype(np.float64)
        nnz = np.bincount(owner, minlength=high - low)
        norms = np.sqrt(np.bincount(owner, weights=counts * counts, minlength=high - low))
        row_nnz.append(nnz)
        bucket_parts.append(bucket.astype(np.int32))
        value_parts.append(counts / np.repeat(norms, nnz))
        low = high
    return _stack_rows(table.users, table.dim, row_nnz, bucket_parts, value_parts)


def _stack_rows(users: tuple[str, ...], dim: int, row_nnz: list, bucket_parts: list,
                value_parts: list) -> UserVectors:
    """UserVectors from consecutive runs of rows: their nonzero counts, and
    their buckets and values in row order."""
    indptr = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.zeros(0, np.int64), *row_nnz]), out=indptr[1:])
    buckets = np.concatenate([np.zeros(0, np.int32), *bucket_parts])
    values = np.concatenate([np.zeros(0, np.float64), *value_parts])
    return UserVectors(users, dim, indptr, buckets, values)


def _finite_vector(value) -> np.ndarray:
    """``value`` as a float vector if it is a non-empty list of finite numbers."""
    if not (isinstance(value, list) and value and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    )):
        raise ValueError("vector must be a non-empty list of numbers")
    try:
        vec = np.asarray(value, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"vector entry out of range: {exc}") from exc
    if not np.isfinite(vec).all():
        raise ValueError("vector has a NaN or infinite entry")
    return vec


def load_embeddings(path: str | Path, users: Sequence[str]) -> UserVectors:
    """Load per-user embedding vectors from JSONL lines {"user", "vector"}.

    Vectors are L2-normalized on load and only their nonzeros kept, so a
    -0.0 entry reads as 0.0; users missing from the file get an empty row
    and end up in the residual agent.  A bad row, a ``user`` that
    is not a non-empty string, a user given a second row, or a vector whose
    length differs from the first row's, is a DataError naming its line.
    """
    source = Path(path)
    if not source.exists():
        raise ConfigError(f"embeddings file not found: {source}")
    dim: int | None = None
    seen: set[str] = set()

    def decode(obj: object) -> tuple[str, np.ndarray]:
        nonlocal dim
        if not (isinstance(obj, dict) and "user" in obj and "vector" in obj):
            raise ValueError('expected an object with "user" and "vector"')
        user = read_id(obj, "user")
        if user in seen:
            raise ValueError(f"user {user!r} already has a row")
        seen.add(user)
        vec = _normalize(_finite_vector(obj["vector"]))
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValueError("inconsistent embedding dimension")
        buckets = np.flatnonzero(vec)
        return user, (buckets.astype(np.int32), vec[buckets])

    table = dict(decode_lines(source, "embedding row", decode))
    ordered = tuple(sorted(users))
    empty = (np.zeros(0, np.int32), np.zeros(0, np.float64))
    rows = [table.get(user, empty) for user in ordered]
    row_nnz = np.array([len(buckets) for buckets, _ in rows], dtype=np.int64)
    return _stack_rows(ordered, dim or DEFAULT_DIM, [row_nnz],
                       [b for b, _ in rows], [v for _, v in rows])


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentProfile:
    """One aggregated agent: a disjoint set of users plus derived features."""

    agent_id: str
    label: str
    members: tuple[str, ...]
    centroid: np.ndarray
    keywords: tuple[str, ...] = ()
    emotion: dict[str, float] | None = None
    style: dict[str, float] | None = None

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "label": self.label,
            "members": list(self.members),
            "centroid": [float(x) for x in self.centroid],
            "keywords": list(self.keywords),
            "emotion": dict(self.emotion or {}),
            "style": dict(self.style or {}),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "AgentProfile":
        """Read a profile under the id (``ingest.read_id``) and vector field rules."""
        for key, kind in (("label", str), ("members", list), ("keywords", list)):
            if not isinstance(obj.get(key, kind()), kind):
                raise TypeError(f"{key} must be a JSON {kind.__name__}, got {obj[key]!r:.40}")
        return cls(
            agent_id=read_id(obj, "agent_id"),
            label=obj["label"],
            members=tuple(read_id({"member": m}, "member") for m in obj["members"]),
            centroid=_finite_vector(obj["centroid"]),
            keywords=tuple(obj.get("keywords", ())),
            emotion=dict(obj.get("emotion") or {}),
            style=dict(obj.get("style") or {}),
        )


def _dots(vectors: UserVectors, row_of: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Each row's dot product with the dense ``vec``: its nonzero products
    added left to right in bucket order, from 0.0 (``row_of`` names each
    nonzero's row)."""
    return np.bincount(row_of, weights=vectors.values * vec[vectors.buckets],
                       minlength=len(vectors.users))


def _kmeans_pp_init(vectors: UserVectors, row_of: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding in cosine space (squared distance = 2 - 2*sim);
    the first centroids are the chosen rows, densified."""
    n = len(vectors.users)
    centers = [int(rng.integers(n))]
    dist = 2.0 - 2.0 * _dots(vectors, row_of, vectors.row(centers[0]))
    dist = np.maximum(dist, 0.0)
    for _ in range(1, k):
        total = float(dist.sum())
        if total <= 0.0:
            # All remaining points coincide with a center; pick the first
            # index not already chosen to keep things deterministic.
            taken = set(centers)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=dist / total))
        centers.append(nxt)
        sims = _dots(vectors, row_of, vectors.row(nxt))
        dist = np.minimum(dist, np.maximum(2.0 - 2.0 * sims, 0.0))
    return np.array([vectors.row(c) for c in centers])


def cluster_users(vectors: UserVectors, k: int, seed: int) -> list[AgentProfile]:
    """Spherical k-means over the nonempty user rows.

    No dense ``users × dim`` array is built.  Dropping the empty rows (no
    usable text) only drops their ``indptr`` entries.  Every similarity,
    in the seeding and in each assignment, adds a row's nonzero products
    left to right in bucket order (``_dots``), so it does not depend on the
    BLAS.  Each centroid update sums the nonzeros per (cluster, bucket) in
    row order with one ``np.bincount``, the order in which
    ``rows.mean(axis=0)`` of the cluster's densified rows adds them, so the
    centroids are that mean's bit for bit; a profile's centroid is a copy
    of its cluster's last one.  Zero-vector users go to a dedicated
    residual agent appended after the k clusters.  Raises ConfigError when
    k exceeds the usable user count.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    users, dim, indptr = vectors.users, vectors.dim, vectors.indptr
    nonzero = np.diff(indptr) > 0
    usable = np.flatnonzero(nonzero)
    if len(usable) < k:
        raise ConfigError(
            f"k={k} exceeds the {len(usable)} users with nonzero vectors"
        )
    kept = vectors._replace(users=tuple(users[i] for i in usable),
                            indptr=np.append(indptr[usable], indptr[-1]))
    row_of = np.repeat(np.arange(len(usable)), np.diff(kept.indptr))

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(kept, row_of, k, rng)
    sims = np.empty((len(usable), k), dtype=np.float64)

    assign = np.full(len(usable), -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        for cluster in range(k):
            sims[:, cluster] = _dots(kept, row_of, centroids[cluster])
        new_assign = np.argmax(sims, axis=1)
        # Revive empty clusters with the point that fits its own cluster
        # worst, never a cluster's last member (that cluster would empty in
        # turn); pinning its sims high keeps it from being grabbed again
        # when several clusters empty in the same iteration.
        for cluster in range(k):
            if not np.any(new_assign == cluster):
                fit = sims[np.arange(len(usable)), new_assign]
                fit[np.bincount(new_assign, minlength=k)[new_assign] == 1] = np.inf
                loner = int(np.argmin(fit))
                new_assign[loner] = cluster
                sims[loner, :] = 2.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # Revival leaves no cluster empty.
        centroids = np.bincount(assign[row_of] * dim + kept.buckets, weights=kept.values,
                                minlength=k * dim).reshape(k, dim)
        centroids /= np.bincount(assign, minlength=k)[:, None]
        for centroid in centroids:
            _normalize(centroid)

    groups = [np.flatnonzero(assign == cluster) for cluster in range(k)]
    # Stable agent numbering: clusters ordered by their smallest member id,
    # which is their first row because rows are in sorted user order.
    order = sorted(range(k), key=lambda c: kept.users[groups[c][0]])

    profiles = []
    for rank, cluster in enumerate(order):
        profiles.append(
            AgentProfile(
                agent_id=f"A{rank:03d}",
                label=f"Agent{rank:03d}",
                members=tuple(kept.users[i] for i in groups[cluster]),
                centroid=centroids[cluster].copy(),
            )
        )
    if len(usable) < len(users):
        profiles.append(
            AgentProfile(
                agent_id=f"A{k:03d}",
                label=RESIDUAL_LABEL,
                members=tuple(users[i] for i in np.flatnonzero(~nonzero)),
                centroid=np.zeros(dim, dtype=np.float64),
            )
        )
    return profiles


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------

def _camel(token: str) -> str:
    return token[:1].upper() + token[1:]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def top_terms(centroid: np.ndarray, vocab: Mapping[int, Counter]) -> list[str]:
    """The ``TOP_KEYWORDS`` highest-weight centroid buckets as their dominant tokens."""
    nonzero = [(float(-centroid[b]), b) for b in np.flatnonzero(centroid)]
    nonzero.sort()
    terms = []
    for _, bucket in nonzero[:TOP_KEYWORDS]:
        counter = vocab.get(int(bucket))
        if not counter:
            continue
        # Most frequent original token for the bucket, ties by spelling.
        token = min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        terms.append(token)
    return terms


def enrich(
    agent: AgentProfile,
    member_counts: Sequence[TextCounts],
    lexicon: Mapping[str, str],
    vocab: Mapping[int, Counter],
    terms: UserVectors,
) -> AgentProfile:
    """Fill keywords, emotion frequencies, and style features for one agent.

    Keywords are the top buckets of the normalized mean of the members'
    term rows ``terms`` (on hashed vectors, the agent's centroid; on
    embeddings, not the embedding dimensions).  Emotion is lexicon hits per
    emotion over tokens; style is tokens per sentence and the share of
    sentences ending in '?' or '!'.
    """
    keywords = tuple(top_terms(terms.mean_of(agent.members), vocab))
    label = agent.label
    if keywords:
        label = "".join(_camel(t) for t in keywords[:2])
    tokens = sum(c.tokens for c in member_counts)
    sentences = sum(c.sentences for c in member_counts)
    emotion = {
        e: _share(sum(c.hits[e] for c in member_counts), tokens)
        for e in sorted(set(lexicon.values()))
    }
    style = {
        "avg_sentence_length": _share(tokens, sentences),
        "question_rate": _share(sum(c.questions for c in member_counts), sentences),
        "exclamation_rate": _share(sum(c.exclamations for c in member_counts), sentences),
    }
    return replace(agent, label=label, keywords=keywords, emotion=emotion, style=style)


def load_lexicon(path: str | Path) -> dict[str, str]:
    """Read a term,emotion CSV, quoted fields included, into a lowercase
    term -> emotion map; blank lines and lines starting with ``#`` are skipped."""
    source = Path(path)
    if not source.exists():
        raise ConfigError(f"emotion lexicon not found: {source}")
    with open_input(source, "emotion lexicon", newline="") as fh:
        rows = [(n, next(csv.reader([line]))) for n, line in enumerate(fh, 1)
                if line.strip() and not line.lstrip().startswith("#")]
    if rows and [field.lower().replace(" ", "") for field in rows[0][1]] == ["term", "emotion"]:
        del rows[0]  # the header, the first line that is neither blank nor a comment
    table: dict[str, str] = {}
    for n, fields in rows:
        if len(fields) != 2:
            raise DataError(f"{source}:{n}: expected 'term,emotion'")
        table[fields[0].strip().lower()] = fields[1].strip().lower()
    return table


# ---------------------------------------------------------------------------
# Lookup and persistence
# ---------------------------------------------------------------------------

def build_member_index(profiles: Sequence[AgentProfile]) -> dict[str, str]:
    index: dict[str, str] = {}
    for profile in profiles:
        for user in profile.members:
            index[user] = profile.agent_id
    return index


def save_profiles(profiles: Sequence[AgentProfile], path: str | Path) -> None:
    write_json(path, [p.to_dict() for p in profiles])


def load_profiles(path: str | Path) -> list[AgentProfile]:
    """The profiles of an agents.json; a malformed file, a repeated
    ``agent_id`` or a user listed under two agents is a DataError naming it."""
    data = read_json(path, "agents")
    try:
        if not isinstance(data, list):
            raise TypeError("expected a JSON list of agent profiles")
        profiles = [AgentProfile.from_dict(obj) for obj in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad agent profile: {exc!r}") from exc
    agent_ids = _repeated(p.agent_id for p in profiles)
    if agent_ids:
        raise DataError(f"{path}: repeated agent ids {agent_ids[:5]}")
    users = _repeated(user for p in profiles for user in set(p.members))
    if users:
        raise DataError(f"{path}: users {users[:5]} are listed under two or more agents")
    return profiles


def _repeated(items: Iterable[str]) -> list[str]:
    return sorted(item for item, n in Counter(items).items() if n > 1)
