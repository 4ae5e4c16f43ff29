"""Byte pins on the six CSV artifacts, the agent profiles, the chains and the
JSON and JSONL artifacts.

A fixed user-level run (NONE, maybe and forsure pairs, coverage that drops
edges) plus a two-cell sweep over its events.  The CSV digests were recorded
before the CSV writers were merged into one, those of ``agents.json`` and
``chains.jsonl`` before one term table replaced the per-record vectors, and
the JSON and JSONL ones before every JSON writer went through
``ingest.write_json``/``write_jsonl`` (the stage 0 manifest and the stage 2
and 3 files before the stages became views of one ledger); any change to a
column, a number format, a row order, a profile or a chain shows here as a
changed hash.
"""

import hashlib
from dataclasses import replace

import pytest

from latentgraph import inference, temporal
from latentgraph.cli import run_all
from latentgraph.config import default_config
from latentgraph.synthetic import make_synthetic_dump

GOLDEN_SHA256 = {
    "edges.csv": "54c659ec427d4cd1594d87dd7991d26ce72783eca001a543c7c6d70bee2f8dde",
    "timeline.csv": "b4efe5c092f94ac280807768c7a6151418805a43b4641ea0d02750aa9b1ac2d6",
    "graph.edges.csv": "156438384e06531d3fd9a6895b8038bdbeecc9dc92be924df3a04aa594c2e87a",
    "triads.csv": "bbcd66168dec066d339739ccb8be4f5b4ed5577b0bbec9c730303f06da43271f",
    "sweep.csv": "207bcc7278f38d9ad767f58e6c0c29f4c2976c4be56a9f48a0fc54585e84f774",
    "census.csv": "b479a52725b4098cc013a38e475402171b2522ea950e4e9db6203b82d35058f4",
}
TERM_SHA256 = {
    "agents.json": "78fca4d1b37bce6611ebb03adb53f7b4fc74ac41e64890b078b4e450a05a4f40",
    "chains.jsonl": "ae5dfb863ae84abc9018237e5b30f37e145f1914852f0163e46f2daa1f88a443",
}
JSON_SHA256 = {
    "events.jsonl": "71d67d121d22ab75c4f669001bb8ee326b8c56949f699fc8fc40fdc4c7eeae11",
    "metrics.json": "f9623da328e5c80be0ab8486eb4866628a900fc7663d2fd7d7913c5334e6aac3",
    "agents.json.manifest.json": "44d61b551a09cfb3bf6ed431f723e6630a8ffe1259afb79eb8b426e72ea04711",
    "stage0.records.jsonl": "9043797dafb976ed81848aeaa934aed300990b3a9d3fd072ce3d72fcc7786d95",
    "stage1.removed.jsonl": "5608bb8ebfcc8e880b9f5aefd19f408d183b3282d305c9f00fb5e8635453acb0",
    "stage1.manifest.json": "c9f656e07d64936ea81dcda1dcc071ea2e43db6a1721a2b969ef182444f415b7",
    "stage0.manifest.json": "e67d356955aefbec8d64015678eeb98fa53a664ea4de6e2ecaa1d76fcd87914e",
    "stage2.removed.jsonl": "251ced4cd29ad03d842abfecd9f59749c4933afb72aea6d0e2d4b0e03e43a70e",
    "stage2.manifest.json": "9caf5efb60b4c2811e133a7cdfa6392332ca5e5018973a6864812a418230d142",
    "stage3.removed.jsonl": "83b1e647ec02cde2256d7a6f7ebcd1bdb58a2498b59f2390c4a859f7c3fc57fe",
    "stage3.manifest.json": "1006c9af45f51f8f56d96779d11877d92ec1bab3425860e09bf4bd63de40b822",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    posts, comments = make_synthetic_dump(200, 1200, seed=3).write_dumps(base / "dump")
    out = base / "out"
    config = replace(default_config(), k_agents=4, level="user", coverage=0.003,
                     posts_path=str(posts), comments_path=str(comments), out_dir=str(out))
    assert run_all(config) == 0
    events = inference.load_events_jsonl(out / "events.jsonl")
    report = temporal.sweep(events, [7, 30], coverage_list=[0.005])
    temporal.write_sweep_csv(report, out / "sweep.csv")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_csv_bytes_pinned(artifacts, name):
    assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(TERM_SHA256))
def test_term_artifacts_pinned(artifacts, name):
    assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() == TERM_SHA256[name]


@pytest.mark.parametrize("name", sorted(JSON_SHA256))
def test_json_artifacts_pinned(artifacts, name):
    assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() == JSON_SHA256[name]
