"""The synthetic generator: its corpora pinned byte for byte, its planted
removals checked at any legal size, and its refusal of a layout that does
not fit.

The digests were recorded before the generator became a straight plan; a
change to any draw from its ``random.Random``, to a record or to the plan
it reports shows here as a changed hash.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from latentgraph.ingest import run_pipeline
from latentgraph.synthetic import make_synthetic_dump

# (n_posts, n_comments, seed) -> sha256 of posts.jsonl, of comments.jsonl,
# and of [expected_removed, expected_counts, planted] as JSON.
PINNED = {
    (14, 0, 42): (  # the smallest legal layout
        "f26ebeea775489c53d9aaef817f5812c6df7bb27d1639476c2d4f5ae954eb256",
        "98c579c0f46f50d5a87a2a5477ca677384e782ee37b68a6adb0efb483347c530",
        "3aa30d3cb41e1bebc82fff0056dae67d4ee77e789974cd0d3cfb1944d1cfd8f9",
    ),
    (14, 100, 42): (
        "f26ebeea775489c53d9aaef817f5812c6df7bb27d1639476c2d4f5ae954eb256",
        "744a73aa2e685625fa4c25c0cf6415bbf6299d20f4caa4edfec02625d15f74e6",
        "00490e7e0132fde218d8e3c30be3fdc1fc875e62d232768f3efb8c16d8a6790b",
    ),
    (100, 600, 42): (  # the defaults
        "77715955de3983c7b2b8559ab9efeb34604d4bcc2c405fecbcf0937e55087a8c",
        "ad0c2f2a1136429dfd651357a29700b824d34cd9a276d0424781df466191b16e",
        "48a12b5fc51053228b50840f95eb67feafa1801a54a420f1f399c880bf483728",
    ),
    (200, 1200, 3): (  # the golden corpus
        "42b27885bad37b8d50aeade3e0b530c5258304a77592b22df7bd5a43d7da2810",
        "ae0a56535405532e9a3346ed820c27aefe45ca1d222d33de2bffeab9aec5b075",
        "f4eecfdf3bc11dffc010df8c31a52af1273ba4192f4742f306c700cd427ea072",
    ),
    (100, 1300, 42): (  # full normal threads: 987 comments
        "77715955de3983c7b2b8559ab9efeb34604d4bcc2c405fecbcf0937e55087a8c",
        "c5f3002cea5f29530efea32aed0ebc293e93e8c575028788cc7c53361d530d86",
        "ffbb9a44b2aa0785cdd47b1df00638d865f4e6992e6b00992c0e7dbd32404586",
    ),
    (10_000, 60_000, 0): (  # the benchmark's corpus
        "8d9aced174d8a78e13af34c959d1ab7d9995adfc3ace8b2ed1feacf1c491542d",
        "27aec91b125e8b84ee07470f8890e04ec409882930f83c94498fbc84f7d42d2e",
        "872534b673f925b82fedc7784957f16cc6c5073345fdf795f4c2b52359be0aa5",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("size", list(PINNED), ids=lambda size: "-".join(map(str, size)))
def test_the_generator_keeps_its_bytes(tmp_path, size):
    n_posts, n_comments, seed = size
    dump = make_synthetic_dump(n_posts, n_comments, seed=seed)
    plan = json.dumps([dump.expected_removed, dump.expected_counts, dump.planted])
    got = tuple(sha256(path.read_bytes()) for path in dump.write_dumps(tmp_path))
    assert got + (sha256(plan.encode()),) == PINNED[size]


@st.composite
def legal_sizes(draw):
    """A size whose planted comments fit: at most 12 comments per post, or 9
    below 18 posts, where the 16 planted comments every corpus holds at
    least outnumber the normal threads sooner."""
    n_posts = draw(st.integers(14, 150))
    n_comments = draw(st.integers(0, (12 if n_posts >= 18 else 9) * n_posts))
    return n_posts, n_comments, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(legal_sizes())
def test_every_stage_removes_what_was_planted(size):
    n_posts, n_comments, seed = size
    dump = make_synthetic_dump(n_posts, n_comments, seed=seed)
    stages = run_pipeline(dump.records)
    assert [snap.manifest for snap in stages] == [
        dump.expected_removed[snap.stage_id] for snap in stages]
    assert [(snap.post_count, snap.comment_count) for snap in stages] == dump.expected_counts


@pytest.mark.parametrize("size", [(40, 560), (100, 1360), (1000, 13_000)])
def test_planted_comments_that_do_not_fit_are_refused(size):
    with pytest.raises(ValueError, match="n_comments too large for the planted layout"):
        make_synthetic_dump(*size, seed=1)
