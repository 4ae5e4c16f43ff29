import ast
import functools
import gzip
import json
import random
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import latentgraph.ingest as ingestmod
from latentgraph.chains import extract_chains, group_threads
from latentgraph.errors import DataError, SchemaError
from latentgraph.inference import extract_events
from latentgraph.ingest import (
    COMMENT_TRUNCATION,
    DELETED_AUTHOR,
    DUPLICATE_REMOVAL,
    N_STAGES,
    BURST_LIMIT,
    BURST_WINDOW_SECONDS,
    RawRecord,
    RecordKind,
    activity_mask,
    atomic_write,
    bot_mask,
    compact_json,
    decode_record,
    deleted_mask,
    latest_stage_records,
    load_dump,
    load_records,
    noise_mask,
    parse_line,
    records_path,
    row_dict,
    run_pipeline,
    snapshot,
    sort_records,
    truncation_mask,
    write_stages,
)
from latentgraph.synthetic import make_synthetic_dump
from oracles import oracle_decode_record, oracle_stage_text, record_sort_key


def post(id, author="alice", t=100, text="a decent chunk of text", sub="s"):
    return RawRecord(id=id, kind=RecordKind.POST, author=author, created_utc=t,
                     text=text, subreddit=sub)


def comment(id, author="bob", t=200, text="a fine reply here", link="p1", parent="p1"):
    return RawRecord(id=id, kind=RecordKind.COMMENT, author=author, created_utc=t,
                     text=text, subreddit="s", link_id=link, parent_id=parent)


def kept(records, mask):
    """The records a drop mask does not flag, in order."""
    assert len(mask) == len(records)
    return [rec for rec, drop in zip(records, mask) if not drop]


# ---------------------------------------------------------------------------
# load_dump and the record decoder
# ---------------------------------------------------------------------------

class TestParseDump:
    def test_post_field_mapping(self, tmp_path):
        line = {"id": "p1", "author": "u1", "created_utc": 100, "title": "t",
                "selftext": "s", "subreddit": "climate"}
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(line) + "\n")
        records, skipped = load_dump(path, RecordKind.POST)
        assert skipped == 0
        assert len(records) == 1
        rec = records[0]
        assert rec.kind is RecordKind.POST
        assert rec.text == "t s"
        assert rec.author == "u1"
        assert rec.created_utc == 100
        assert rec.link_id is None and rec.parent_id is None

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_byte_order_mark_keeps_the_first_record(self, tmp_path, suffix):
        lines = [json.dumps({"id": f"p{i}", "author": "u", "created_utc": 10 + i,
                             "title": "t", "selftext": "", "subreddit": "s"}) for i in range(2)]
        data = ("\ufeff" + "\n".join(lines) + "\n").encode("utf-8")
        path = tmp_path / f"posts{suffix}"
        path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        records, skipped = load_dump(path, RecordKind.POST)
        assert [r.id for r in records] == ["p0", "p1"]
        assert skipped == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text("")
        records, skipped = load_dump(path, RecordKind.POST)
        assert records == []
        assert skipped == 0

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        lines = [
            json.dumps({"id": f"p{i}", "author": "u", "created_utc": 10 + i,
                        "title": "t", "selftext": "", "subreddit": "s"})
            for i in range(3)
        ]
        lines.insert(1, "{this is not json")
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, skipped = load_dump(path, RecordKind.POST)
        assert len(records) == 3
        assert skipped == 1

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_dump(tmp_path / "nope.jsonl", RecordKind.POST)

    def test_majority_malformed_is_schema_error(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        good = json.dumps({"id": "p", "author": "u", "created_utc": 1,
                           "title": "t", "selftext": "", "subreddit": "s"})
        path.write_text("\n".join(["garbage", "more garbage", good]) + "\n")
        with pytest.raises(SchemaError):
            load_dump(path, RecordKind.POST)

    def test_comment_requires_linkage(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        bad = {"id": "c1", "author": "u", "created_utc": 5, "body": "hi", "subreddit": "s"}
        good = dict(bad, id="c2", link_id="p1", parent_id="p1")
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        records, skipped = load_dump(path, RecordKind.COMMENT)
        assert [r.id for r in records] == ["c2"]
        assert skipped == 1

    def test_pushshift_fullnames_link_comments(self, tmp_path):
        posts_path = tmp_path / "posts.jsonl"
        posts_path.write_text(json.dumps(
            {"id": "abc", "author": "A", "created_utc": 100, "title": "t",
             "selftext": "s", "subreddit": "x"}) + "\n")
        comments_path = tmp_path / "comments.jsonl"
        comments_path.write_text("".join(json.dumps(c) + "\n" for c in [
            {"id": "xyz", "author": "B", "created_utc": 200, "body": "hi",
             "subreddit": "x", "link_id": "t3_abc", "parent_id": "t3_abc"},
            {"id": "c2", "author": "C", "created_utc": 300, "body": "yo",
             "subreddit": "x", "link_id": "t3_abc", "parent_id": "t1_xyz"},
        ]))
        posts, _ = load_dump(posts_path, RecordKind.POST)
        comments, _ = load_dump(comments_path, RecordKind.COMMENT)
        assert [(c.link_id, c.parent_id) for c in comments] == [("abc", "abc"), ("abc", "xyz")]
        events, stats = extract_events(posts, comments)
        assert (stats.events, stats.orphans) == (2, 0)
        (thread,) = group_threads(posts + comments)
        assert [r.id for r in thread.records] == ["abc", "xyz", "c2"]

    def test_gzip_dump(self, tmp_path):
        path = tmp_path / "posts.jsonl.gz"
        line = json.dumps({"id": "p1", "author": "u", "created_utc": 9,
                           "title": "t", "selftext": "x", "subreddit": "s"})
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(line + "\n")
        records, skipped = load_dump(path, RecordKind.POST)
        assert len(records) == 1 and skipped == 0

    def test_order_independence(self, tmp_path):
        recs = [post(f"p{i}", t=50 + i) for i in range(20)]
        lines = [
            json.dumps({"id": r.id, "author": r.author, "created_utc": r.created_utc,
                        "title": r.text, "selftext": "", "subreddit": r.subreddit})
            for r in recs
        ]
        shuffled = list(lines)
        random.Random(3).shuffle(shuffled)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("\n".join(lines) + "\n")
        b.write_text("\n".join(shuffled) + "\n")
        snap_a = snapshot(load_dump(a, RecordKind.POST)[0])
        snap_b = snapshot(load_dump(b, RecordKind.POST)[0])
        assert snap_a.records == snap_b.records


GOOD_COMMENT = {"id": "c1", "author": "u", "created_utc": 1578720488, "body": "hi there",
                "subreddit": "s", "link_id": "p1", "parent_id": "p1"}


@pytest.mark.parametrize("change, field, value", [
    pytest.param({"author": None}, "author", "[deleted]", id="null-author-is-deleted"),
    pytest.param({"created_utc": "1578720488.0"}, "created_utc", 1578720488, id="string-time"),
    pytest.param({"created_utc": 1578720488.0}, "created_utc", 1578720488, id="float-time"),
    pytest.param({"body": None, "subreddit": None}, "text", "", id="null-text"),
    pytest.param({"link_id": "t3_t1_x"}, "link_id", "t1_x", id="prefix-stripped-once"),
    pytest.param({"created_utc": True}, None, None, id="bool-time"),
    pytest.param({"body": {"x": 1}}, None, None, id="dict-body"),
    pytest.param({"id": 7}, None, None, id="int-id"),
    pytest.param({"author": ""}, None, None, id="empty-author"),
    pytest.param({"created_utc": 1578720488.5}, None, None, id="fractional-time"),
    pytest.param({"created_utc": "inf"}, None, None, id="inf-time"),
    pytest.param({"link_id": ""}, None, None, id="empty-link-id"),
    pytest.param({"parent_id": "t1_"}, None, None, id="bare-prefix-parent-id"),
])
def test_field_rules(tmp_path, change, field, value):
    """A probe line between two good ones is kept with ``field == value``, or,
    when ``field`` is None, skipped and counted."""
    path = tmp_path / "comments.jsonl"
    lines = [dict(GOOD_COMMENT, id="a"), dict(GOOD_COMMENT, **change), dict(GOOD_COMMENT, id="b")]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    records, skipped = load_dump(path, RecordKind.COMMENT)
    if field is None:
        assert ([r.id for r in records], skipped) == (["a", "b"], 1)
    else:
        assert skipped == 0
        assert getattr(records[1], field) == value


@pytest.mark.parametrize("selftext, text", [
    ("[removed]", "title"),
    (" [deleted] ", "title"),
    ("kept body", "title kept body"),
])
def test_placeholder_selftext_adds_no_text(tmp_path, selftext, text):
    line = {"id": "p1", "author": "u", "created_utc": 9, "title": "title",
            "selftext": selftext, "subreddit": "s"}
    path = tmp_path / "posts.jsonl"
    path.write_text(json.dumps(line) + "\n")
    (rec,), _ = load_dump(path, RecordKind.POST)
    assert rec.text == text
    assert not deleted_mask([rec]).any()


def test_placeholder_comment_body_is_still_deleted(tmp_path):
    path = tmp_path / "comments.jsonl"
    path.write_text(json.dumps(dict(GOOD_COMMENT, body="[removed]")) + "\n")
    (rec,), _ = load_dump(path, RecordKind.COMMENT)
    assert rec.text == "[removed]"
    assert deleted_mask([rec]).tolist() == [True]


_ids = st.one_of(st.text(min_size=1), st.text().map(lambda s: "t1_" + s))


@st.composite
def raw_records(draw):
    kind = draw(st.sampled_from(RecordKind))
    comment = kind is RecordKind.COMMENT
    return RawRecord(
        id=draw(_ids),
        kind=kind,
        author=draw(st.text(min_size=1)),
        created_utc=draw(st.integers(1, 2**53)),
        text=draw(st.text()),
        subreddit=draw(st.text()),
        link_id=draw(_ids) if comment else None,
        parent_id=draw(_ids) if comment else None,
    )


@given(raw_records())
def test_stage_row_decodes_to_the_encoded_record(rec):
    assert decode_record(json.loads(compact_json(row_dict(rec)))) == rec


# ---------------------------------------------------------------------------
# The stage-0 codec: the decoder's guard, the line parser and the row templates
# ---------------------------------------------------------------------------

class Text(str):
    """A str subclass: the rules accept it where they accept a str, the guard never."""


RECORD_KEYS = ("id", "kind", "author", "created_utc", "text", "title", "selftext", "body",
               "subreddit", "link_id", "parent_id")
ABSENT = object()

# Values a field may hold that the rules may read differently from a plain one.
ODD_VALUES = st.one_of(
    st.sampled_from(["", "t1_", "t3_", "t1_x", "t3_t1_x", "12", "12.0", "-3", "1.5", "inf",
                     "post", "comment", "POST", "[removed]", " [deleted] ", ABSENT]),
    st.text(max_size=3).map(Text),
    st.booleans(),
    st.none(),
    st.integers(-2**64, 2**64),
    st.integers(-10**6, 10**6).map(float),
    st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_LINK_VALUES = st.one_of(_ids, st.text().map(lambda s: "t3_" + s))
VALID_VALUES = {
    "id": st.text(min_size=1), "kind": st.sampled_from(["post", "comment"]),
    "author": st.text(min_size=1), "created_utc": st.integers(1, 2**64),
    "link_id": _LINK_VALUES, "parent_id": _LINK_VALUES,
}


class Row(dict):
    """A dict subclass, as an ``object_hook`` might give."""


@st.composite
def parsed_lines(draw, odd_key):
    """A parsed JSON line: mostly a record dict whose fields hold valid values
    but ``odd_key`` and maybe one more, which hold odd values or are absent;
    sometimes a dict subclass or no dict."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2)))
    odd = {odd_key} | draw(st.sets(st.sampled_from(RECORD_KEYS), max_size=1))
    values = {key: draw(ODD_VALUES if key in odd else VALID_VALUES.get(key, st.text()))
              for key in RECORD_KEYS}
    obj = {key: value for key, value in values.items() if value is not ABSENT}
    return Row(obj) if draw(st.integers(0, 19)) == 0 else obj


def decoded(decode, obj, dump_kind):
    """What ``decode`` makes of ``obj``: each field's type and value, or the
    type and message of the error it raises."""
    try:
        rec = decode(obj, dump_kind)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(type(value), value) for value in row_dict(rec).values()]


@pytest.mark.parametrize("odd_key", RECORD_KEYS)
@settings(max_examples=200)
@given(data=st.data(), dump_kind=st.sampled_from([None, RecordKind.POST, RecordKind.COMMENT]))
def test_decoder_matches_the_rule_reader_oracle(odd_key, data, dump_kind):
    """The guard takes only lines that the rule readers would take unchanged:
    every line decodes to the oracle's record, or fails with its error."""
    obj = data.draw(parsed_lines(odd_key))
    assert decoded(decode_record, obj, dump_kind) == decoded(oracle_decode_record, obj, dump_kind)


def outcome(parse, line):
    """What ``parse`` makes of ``line``: its value's repr, or its error."""
    try:
        return repr(parse(line))
    except ValueError as exc:
        return type(exc), str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6)
# Lines that parse as three items of one batch, yet each fails alone.
BATCH_ONLY_LINES = ['{"a":[1', '2]}', '{},{}']
LINE_PIECES = st.one_of(
    st.builds(lambda value, ascii: json.dumps(value, ensure_ascii=ascii), JSON_VALUES,
              st.booleans()),
    st.sampled_from(["1,2", "{}x", "{} {}", '{"a":1}{"b":2}', "[]]", "nul", '"', "",
                     *BATCH_ONLY_LINES]),
)
WHITESPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\ufeff"), max_size=2)


@settings(max_examples=400)
@given(WHITESPACE, LINE_PIECES, WHITESPACE, st.one_of(st.just(""), LINE_PIECES), WHITESPACE)
def test_line_parser_matches_json_loads(lead, piece, gap, extra, trail):
    line = lead + piece + gap + extra + trail
    assert outcome(parse_line, line) == outcome(json.loads, line)


def test_lines_that_parse_only_as_a_batch_are_each_rejected():
    assert json.loads("[" + ",".join(BATCH_ONLY_LINES) + "]") == [{"a": [1, 2]}, {}, {}]
    for line in BATCH_ONLY_LINES:
        with pytest.raises(ValueError):
            parse_line(line + "\n")


# Strings that JSON must escape: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates.
ESCAPED_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé😀'),
                                 st.characters(blacklist_categories=())), max_size=6)


@st.composite
def codec_records(draw):
    kind = draw(st.sampled_from(RecordKind))
    comment = kind is RecordKind.COMMENT
    return RawRecord(
        id=draw(ESCAPED_TEXT), kind=kind,
        author=draw(st.one_of(st.sampled_from(["alice", DELETED_AUTHOR]), ESCAPED_TEXT)),
        created_utc=draw(st.integers(-2**70, 2**70)),
        text=draw(st.one_of(st.sampled_from(["a decent chunk of text", "[removed]"]),
                            ESCAPED_TEXT)),
        subreddit=draw(ESCAPED_TEXT),
        link_id=draw(ESCAPED_TEXT) if comment else None,
        parent_id=draw(ESCAPED_TEXT) if comment else None,
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(codec_records(), max_size=12))
def test_stage_files_are_the_per_row_json_bytes(records):
    """The row templates write the bytes of ``json.dumps`` of each stage-0 row's
    dict and each removal-ledger row's ``{"kind", "id", "reason"}``."""
    stages = run_pipeline(records)
    with tempfile.TemporaryDirectory() as tmp:
        write_stages(stages, Path(tmp))
        for snap in stages:
            assert records_path(Path(tmp), snap.stage_id).read_bytes() == \
                oracle_stage_text(snap).encode("ascii")


# ---------------------------------------------------------------------------
# Individual filters
# ---------------------------------------------------------------------------

class TestFilterBots:
    def test_deny_list(self):
        recs = [comment("c1", author="AutoModerator"), comment("c2", author="alice")]
        mask = bot_mask(recs)
        assert [r.author for r in kept(recs, mask)] == ["alice"]
        assert mask.sum() == 1

    def test_suffix_rule(self):
        recs = [comment("c1", author="TickerBot"), comment("c2", author="robotics_fan")]
        # Case-insensitive suffix match on the full name only.
        assert [r.author for r in kept(recs, bot_mask(recs))] == ["robotics_fan"]

    def test_plain_author_kept(self):
        assert bot_mask([comment("c1", author="alice")]).sum() == 0

    @staticmethod
    def burst(author, n, span, start=1000):
        """``n`` records of ``author``, the first at ``start`` and the last ``span`` s later."""
        return [comment(f"{author}{i}", author=author, t=start + i * span // (n - 1))
                for i in range(n)]

    def test_burst_rule(self):
        assert (BURST_LIMIT, BURST_WINDOW_SECONDS) == (500, 86400)
        flood = self.burst("flooder", BURST_LIMIT + 1, BURST_WINDOW_SECONDS - 1)
        calm = self.burst("casual", 6, 6000)
        mask = bot_mask(flood + calm)
        assert {r.author for r in kept(flood + calm, mask)} == {"casual"}
        assert mask.sum() == BURST_LIMIT + 1

    @pytest.mark.parametrize("n, span", [(BURST_LIMIT + 1, BURST_WINDOW_SECONDS),
                                         (BURST_LIMIT, 60)], ids=["whole-window", "at-limit"])
    def test_burst_at_the_limits_is_not_a_bot(self, n, span):
        assert bot_mask(self.burst("steady", n, span)).sum() == 0

    @pytest.mark.parametrize("start", [10**9, 2**63 - 100], ids=["epoch", "straddling-2^63"])
    @pytest.mark.parametrize("span, flagged", [(BURST_WINDOW_SECONDS, 0),
                                               (BURST_WINDOW_SECONDS - 1, BURST_LIMIT + 1)])
    def test_burst_span_is_compared_exactly_at_any_time(self, start, span, flagged):
        """Times are Python ints; a float cast would round a span near 2^63."""
        assert bot_mask(self.burst("steady", BURST_LIMIT + 1, span, start)).sum() == flagged

    def test_fixture_count(self):
        recs = [comment(f"c{i}", author="spambot") for i in range(4)]
        recs += [comment(f"k{i}", author=f"user{i}") for i in range(6)]
        mask = bot_mask(recs)
        assert len(kept(recs, mask)) == 6
        assert mask.sum() == 4


def test_noise_mask_flags_short_and_url_only_texts():
    texts = ["abc", " ab ", "", "https://example.com/x", "see https://example.com/x", "ok!"]
    recs = [comment(f"c{i}", text=text) for i, text in enumerate(texts)]
    assert noise_mask(recs).tolist() == [False, True, True, True, False, False]


class TestTruncateComments:
    def test_over_limit(self):
        recs = [post("p1", t=10)]
        recs += [comment(f"c{i:02d}", t=100 + i) for i in range(15)]
        mask = truncation_mask(recs, 10)
        comments = [r for r in kept(recs, mask) if r.kind is RecordKind.COMMENT]
        assert [r.id for r in comments] == [f"c{i:02d}" for i in range(10)]
        assert mask.sum() == 5

    def test_under_limit(self):
        recs = [post("p1")] + [comment(f"c{i}", t=100 + i) for i in range(3)]
        assert truncation_mask(recs, 10).sum() == 0

    def test_tie_broken_by_id(self):
        """The ledger breaks a tie at the cutoff time by id, whatever the input
        order; the mask itself counts comments in the order it is given."""
        recs = [post("p1", t=1)]
        # Nine comments at distinct times, then two tied at the cutoff time.
        recs += [comment(f"c{i:02d}", t=10 + i) for i in range(9)]
        recs += [comment("czz", t=100), comment("caa", t=100)]
        for seed in range(5):
            shuffled = list(recs)
            random.Random(seed).shuffle(shuffled)
            stages = run_pipeline(shuffled, min_interactions=1)
            assert stages[1].manifest[COMMENT_TRUNCATION] == 1
            ids = {r.id for r in stages[1].records}
            assert "caa" in ids and "czz" not in ids


class TestThresholdActivity:
    def test_below_threshold_removed(self):
        assert activity_mask([comment("c1", author="once")], 2).tolist() == [True]

    def test_boundary_kept(self):
        recs = [comment("c1", author="twice"), comment("c2", author="twice", t=300)]
        assert activity_mask(recs, 2).sum() == 0

    def test_author_census(self):
        counts = {"a": 1, "b": 1, "c": 2, "d": 3, "e": 7}
        recs = []
        for author, n in counts.items():
            recs += [comment(f"{author}{i}", author=author, t=10 + i) for i in range(n)]
        mask = activity_mask(recs, 2)
        assert len({r.author for r in kept(recs, mask)}) == 3
        assert mask.sum() == 2


class TestDropDeleted:
    def test_deleted_author(self):
        assert deleted_mask([comment("c1", author="[deleted]")]).tolist() == [True]

    def test_removed_body(self):
        assert deleted_mask([comment("c1", text="[removed]")]).tolist() == [True]

    def test_mention_inside_text_kept(self):
        assert deleted_mask([comment("c1", text="they [removed] it later")]).tolist() == [False]


class TestDuplicates:
    def test_repeated_comment_counted_once(self):
        recs = [post("p1"), comment("c1"), comment("c1")]
        stages = run_pipeline(recs, min_interactions=1)
        assert stages[0].manifest == {DUPLICATE_REMOVAL: 1}
        final = stages[-1].records
        assert [r.id for r in final] == ["p1", "c1"]
        _, stats = extract_events(
            [r for r in final if r.kind is RecordKind.POST],
            [r for r in final if r.kind is RecordKind.COMMENT],
        )
        assert stats.events == 1

    def test_earliest_copy_kept_first_in_input_on_tie(self):
        early = comment("c1", t=100, text="the first words")
        late = comment("c1", t=300, text="some later words")
        tie = comment("c1", t=100, text="tied with the first")
        snap = snapshot([late, early, tie])
        assert snap.records == [early]
        assert snap.manifest == {DUPLICATE_REMOVAL: 2}
        assert snapshot([late, tie, early]).records == [tie]

    def test_post_and_comment_may_share_an_id(self):
        snap = snapshot([post("x1"), comment("x1")])
        assert snap.total == 2
        assert snap.manifest == {DUPLICATE_REMOVAL: 0}


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class TestRunPipeline:
    def test_synthetic_manifests_match_plants(self):
        dump = make_synthetic_dump(100, 600, seed=5)
        stages = run_pipeline(dump.records)
        assert len(stages) == N_STAGES
        for snap in stages:
            assert snap.manifest == dump.expected_removed[snap.stage_id]
            assert (snap.post_count, snap.comment_count) == dump.expected_counts[snap.stage_id]

    def test_monotone_counts(self):
        dump = make_synthetic_dump(60, 300, seed=8)
        stages = run_pipeline(dump.records)
        for prev, cur in zip(stages, stages[1:]):
            assert cur.post_count <= prev.post_count
            assert cur.comment_count <= prev.comment_count

    def test_already_clean_input_identity(self):
        recs = [post(f"p{i}", author=f"user{i % 3:02d}", t=100 + i) for i in range(9)]
        recs += [
            comment(f"c{i}", author=f"user{i % 3:02d}", t=200 + i, link=f"p{i % 9}",
                    parent=f"p{i % 9}")
            for i in range(9)
        ]
        stages = run_pipeline(recs)
        for snap in stages[1:4]:
            assert snap.total == len(recs)
            assert all(v == 0 for v in snap.manifest.values())

    def test_idempotence_of_each_stage(self):
        dump = make_synthetic_dump(60, 300, seed=9)
        stages = run_pipeline(dump.records)
        stage1 = stages[1].records
        assert bot_mask(stage1).sum() == 0
        assert truncation_mask(stage1, 10).sum() == 0
        assert activity_mask(stages[2].records, 2).sum() == 0
        assert deleted_mask(stages[3].records).sum() == 0

    def test_manifest_conservation(self):
        dump = make_synthetic_dump(80, 400, seed=10)
        stages = run_pipeline(dump.records)
        for prev, cur in zip(stages, stages[1:]):
            assert prev.total == cur.total + sum(cur.manifest.values())

    def test_shuffle_invariance(self):
        dump = make_synthetic_dump(50, 250, seed=12)
        records = list(dump.records)
        shuffled = list(records)
        random.Random(1).shuffle(shuffled)
        a = run_pipeline(records)
        b = run_pipeline(shuffled)
        for snap_a, snap_b in zip(a, b):
            assert snap_a.records == snap_b.records
            assert snap_a.manifest == snap_b.manifest


class TestPersistence:
    def test_snapshot_round_trip(self, tmp_path):
        dump = make_synthetic_dump(30, 150, seed=2)
        stages = run_pipeline(dump.records)
        write_stages(stages, tmp_path)
        assert load_records(tmp_path / "stage0.records.jsonl") == stages[0].records
        for snap in reversed(stages):
            manifest = json.loads(
                (tmp_path / f"stage{snap.stage_id}.manifest.json").read_text()
            )
            assert manifest["stage_id"] == snap.stage_id
            assert manifest["post_count"] == snap.post_count
            assert manifest["comment_count"] == snap.comment_count
            assert manifest["removed"] == snap.manifest
            assert latest_stage_records(tmp_path) == (snap.stage_id, snap.records)
            if snap.stage_id == 0:
                break
            ledger_path = tmp_path / f"stage{snap.stage_id}.removed.jsonl"
            ledger = [json.loads(line) for line in ledger_path.read_text().splitlines()]
            reasons = Counter(row["reason"] for row in ledger)
            assert reasons == {key: n for key, n in snap.manifest.items() if n}
            ledger_path.unlink()

    def test_fewer_stages_remove_the_later_stages_files(self, tmp_path):
        """Stage 0 written over a preprocessed directory removes the older run's
        later ledgers and manifests, so the directory reads as the new stage 0."""
        write_stages(run_pipeline(make_synthetic_dump(60, 360, seed=1).records), tmp_path)
        stage0 = snapshot(make_synthetic_dump(60, 360, seed=2).records)
        write_stages([stage0], tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "stage0.manifest.json", "stage0.records.jsonl"]
        assert latest_stage_records(tmp_path) == (0, stage0.records)

    def test_older_per_stage_record_files_rejected(self, tmp_path):
        stages = run_pipeline(make_synthetic_dump(30, 150, seed=3).records)
        write_stages(stages, tmp_path)
        (tmp_path / "stage6.records.jsonl").write_text("")
        with pytest.raises(DataError):
            latest_stage_records(tmp_path)

    def test_atomic_write_keeps_old_file_on_failure(self, tmp_path):
        target = tmp_path / "metrics.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("new")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_sort_key_total_order(self):
        records = [post("b", t=5), post("a", t=5), post("c", t=1)]
        assert [r.id for r in sort_records(records)] == ["c", "a", "b"]

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        dump = make_synthetic_dump(30, 150, seed=13)
        stages = run_pipeline(dump.records)

        real_write = ingestmod.atomic_write
        calls = {"n": 0}

        def failing_write(path, newline=None):
            calls["n"] += 1
            if calls["n"] > 3:
                raise OSError("disk full")
            return real_write(path, newline)

        monkeypatch.setattr(ingestmod, "atomic_write", failing_write)
        with pytest.raises(OSError):
            write_stages(stages, tmp_path)
        assert list(tmp_path.iterdir()) == []


# Small pools, so random lists hold repeated (kind, id) pairs, a post and a
# comment sharing an id, bots, noise, deleted records and over-long threads.
LEDGER_AUTHORS = ["alice", "bob", "carol", "dave", "erin", "AutoModerator", "newsbot",
                  "[deleted]"]
LEDGER_TEXTS = ["a decent chunk of text", "a fine reply here", "more words here",
                "ok", "https://example.com/x", "[removed]", " [deleted] "]


@st.composite
def ledger_records(draw):
    kind = draw(st.sampled_from(list(RecordKind)))
    link = f"{draw(st.integers(0, 1))}" if kind is RecordKind.COMMENT else None
    return RawRecord(
        id=f"{draw(st.integers(0, 15))}",
        kind=kind,
        author=draw(st.sampled_from(LEDGER_AUTHORS)),
        created_utc=draw(st.integers(1, 40)),
        text=draw(st.sampled_from(LEDGER_TEXTS)),
        subreddit="s",
        link_id=link,
        parent_id=link,
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(ledger_records(), max_size=40))
def test_ledger_replay_gives_every_stage(records):
    with mock.patch.multiple(ingestmod, BURST_LIMIT=3, BURST_WINDOW_SECONDS=2):
        stages = run_pipeline(records, max_comments_per_post=2)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_stages(stages, out)
        for snap in reversed(stages):
            assert latest_stage_records(out) == (snap.stage_id, snap.records)
            records_path(out, snap.stage_id).unlink()


def test_only_ingest_opens_files():
    """Every file the package reads or writes is opened in ingest.py, so a bad
    input always becomes the same DataError and every artifact is atomic."""
    src = Path(ingestmod.__file__).parent
    openers = [path.name for path in sorted(src.glob("*.py"))
               if "open(" in path.read_text(encoding="utf-8") and path.name != "ingest.py"]
    assert openers == []


def with_planted_repeats(records):
    """``records`` plus an exact copy of a post and of a comment, and a later
    copy of a comment with other words: each repeat either equals its original
    or comes after it, so the copy stage 0 keeps is the same in any order."""
    posts = [r for r in records if r.kind is RecordKind.POST]
    comments = [r for r in records if r.kind is RecordKind.COMMENT]
    later = replace(comments[1], created_utc=comments[1].created_utc + 1000,
                    text="a later copy with other words")
    return [*records, posts[0], comments[0], later]


PERMUTED_DUMP = with_planted_repeats(make_synthetic_dump(16, 96, seed=4).records)


def ledger_views(records):
    """Every stage view and manifest, then the final stage's events and chains."""
    stages = run_pipeline(records)
    final = stages[-1].records
    events, stats = extract_events([r for r in final if r.kind is RecordKind.POST],
                                   [r for r in final if r.kind is RecordKind.COMMENT])
    return ([(snap.records, snap.manifest) for snap in stages], (list(events), stats),
            extract_chains(final, top_k=100))


@functools.cache
def unpermuted_views():
    return ledger_views(PERMUTED_DUMP)


@settings(max_examples=20, deadline=None)
@given(st.permutations(PERMUTED_DUMP))
def test_any_input_order_gives_the_same_run(records):
    """The ledger's sort is the only order of a run's records: a permutation
    of the input changes no stage, event, event order or chain."""
    stages, events, chains = unpermuted_views()
    assert stages[0][1] == {DUPLICATE_REMOVAL: 3}
    assert chains[0] and events[0]
    assert ledger_views(records) == (stages, events, chains)


def test_only_the_ledger_orders_records():
    """``sort_records`` is the one (created_utc, id) order: no other function
    sorts or builds a key on ``created_utc``, and the ledger and a thread's
    time order both call it."""
    def scoped(node, scope):
        """Every node under ``node`` with the dotted name of its enclosing def."""
        for child in ast.iter_child_nodes(node):
            yield child, scope
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            yield from scoped(child, f"{scope}.{child.name}" if named else scope)

    def on_created_utc(node):
        """``node`` names ``created_utc``: as an attribute or as a string."""
        return (isinstance(node, ast.Attribute) and node.attr == "created_utc"
                or isinstance(node, ast.Constant) and node.value == "created_utc")

    src = Path(ingestmod.__file__).parent
    sorts, callers = set(), set()
    for path in sorted(src.glob("*.py")):
        for node, scope in scoped(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            if ((isinstance(node, ast.keyword) and node.arg == "key"
                 and any(map(on_created_utc, ast.walk(node.value))))
                    or (isinstance(node, ast.Tuple) and node.elts
                        and on_created_utc(node.elts[0]))):
                sorts.add(scope)
            if isinstance(node, ast.Call) and "sort_records" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add(scope)
    assert sorts == {"ingest.sort_records"}
    assert callers == {"ingest.build_ledger", "chains.group_threads"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 3),
                          st.sampled_from(RecordKind)), max_size=30))
def test_the_ledger_sorts_by_record_sort_key(rows):
    """``sort_records``, and so the ledger's order, is one stable sort by the
    oracle's ``record_sort_key`` over repeated times and ids of both kinds:
    ties of time and id keep their input order, so a post that leads its
    list wins a tie."""
    records = [RawRecord(rec_id, kind, f"u{i}", time, "text", "s")
               for i, (rec_id, time, kind) in enumerate(rows)]
    want = list(map(id, sorted(records, key=record_sort_key)))
    assert list(map(id, sort_records(records))) == want
    assert list(map(id, ingestmod.build_ledger(records, []).records)) == want
