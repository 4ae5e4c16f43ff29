import ast
import csv
import gzip
import json
import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latentgraph import cli
from latentgraph.cli import _merge_config, build_parser, main, run_all
from latentgraph.config import (
    DOMAIN_AGENT_COUNTS,
    FIELD_NAMES,
    REFERENCE_METRICS,
    RunConfig,
    config_digest,
    default_config,
    load_config,
    validate,
)
from latentgraph.errors import ConfigError
from latentgraph.inference import FollowEdge, FollowStatus
from latentgraph.ingest import N_STAGES
from latentgraph.metrics import community_restarts
from latentgraph.synthetic import make_synthetic_dump, write_lexicon_csv
from oracles import oracle_write_edges_csv


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def small_dump(tmp_path_factory):
    base = tmp_path_factory.mktemp("dump")
    dump = make_synthetic_dump(60, 360, seed=17)
    posts, comments = dump.write_dumps(base)
    return dump, posts, comments, base


class TestValidate:
    def test_default_config_valid(self):
        assert validate(default_config()) == []

    def test_coverage_out_of_range(self):
        config = replace(default_config(), coverage=1.5)
        problems = validate(config)
        assert len(problems) == 1
        assert "coverage" in problems[0]

    def test_two_violations_stable_order(self):
        config = replace(default_config(), maybe_min=5, forsure_min=2, coverage=-1)
        first = validate(config)
        assert len(first) == 2
        assert first == validate(config)
        assert "maybe_min" in first[0] and "coverage" in first[1]

    def test_validate_subcommand_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"domain": "climate"}))
        assert main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"coverage": 2.0}))
        assert main(["validate", "--config", str(bad)]) == 1

    def test_domain_defaults(self):
        assert default_config("technology").k_agents == 33
        assert default_config("climate").k_agents == 14
        assert default_config("covid").k_agents == 7

    def test_config_byte_order_mark_is_not_text(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("\ufeff" + json.dumps({"domain": "climate"}), encoding="utf-8")
        assert load_config(path).domain == "climate"
        assert main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_is_valid_for_its_domain(self, path):
        config = load_config(path)
        assert validate(config) == []
        assert config.k_agents == DOMAIN_AGENT_COUNTS[config.domain]
        assert config.domain in REFERENCE_METRICS

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"no_such_knob": 1}))
        with pytest.raises(ConfigError):
            load_config(path)


def first_given(*values):
    return next(v for v in values if v is not None)


DOMAINS = ["technology", "climate", "covid", "generic", "other"]


@settings(max_examples=150, deadline=None)
# A domain flag beside a file that sets no domain still picks the domain's k.
@example(flag_domain="covid", file_domain=None, flag_k=None, file_k=None,
         flag_seed=None, file_seed=1, with_file=True)
@given(
    flag_domain=st.none() | st.sampled_from(DOMAINS),
    file_domain=st.none() | st.sampled_from(DOMAINS),
    flag_k=st.none() | st.integers(1, 50),
    file_k=st.none() | st.integers(1, 50),
    flag_seed=st.none() | st.integers(0, 99),
    file_seed=st.none() | st.integers(0, 99),
    with_file=st.booleans(),
)
def test_precedence_flag_then_file_then_domain_default(
    flag_domain, file_domain, flag_k, file_k, flag_seed, file_seed, with_file
):
    argv = ["run-all"]
    for flag, value in (("--domain", flag_domain), ("--k-agents", flag_k),
                        ("--seed", flag_seed)):
        if value is not None:
            argv += [flag, str(value)]
    file_keys = {}
    if with_file:
        file_keys = {key: value for key, value in (("domain", file_domain),
                     ("k_agents", file_k), ("seed", file_seed)) if value is not None}
    else:
        file_domain = file_k = file_seed = None
    with tempfile.TemporaryDirectory() as tmp:
        if with_file:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(file_keys))
            argv += ["--config", str(path)]
        config = _merge_config(build_parser().parse_args(argv))
    domain = first_given(flag_domain, file_domain, "generic")
    assert config.domain == domain
    assert config.k_agents == first_given(flag_k, file_k, DOMAIN_AGENT_COUNTS.get(domain, 8))
    assert config.seed == first_given(flag_seed, file_seed, RunConfig().seed)


@pytest.mark.parametrize("argv, field, value", [
    (["agents", "--in", "w", "--out", "a.json", "--k", "5"], "k_agents", 5),
    (["agents", "--in", "w", "--out", "a.json", "--embeddings", "e.jsonl"],
     "embeddings_path", "e.jsonl"),
    (["agents", "--in", "w", "--out", "a.json", "--lexicon", "l.csv"], "lexicon_path", "l.csv"),
    (["run-all", "--embeddings", "e.jsonl"], "embeddings_path", "e.jsonl"),
    (["run-all", "--lexicon", "l.csv"], "lexicon_path", "l.csv"),
    (["chains", "--in", "w", "--out", "c.jsonl", "--threshold", "0.3"], "sim_threshold", 0.3),
    (["run-all", "--posts", "p.jsonl"], "posts_path", "p.jsonl"),
    (["run-all", "--comments", "c.jsonl"], "comments_path", "c.jsonl"),
    (["run-all", "--out", "work"], "out_dir", "work"),
    (["graph", "build", "--edges", "e.csv", "--out", "g.csv", "--coverage", "0.2"],
     "coverage", 0.2),
])
def test_flag_reaches_its_field(argv, field, value):
    config = _merge_config(build_parser().parse_args(argv))
    assert getattr(config, field) == value
    assert replace(config, **{field: getattr(default_config(), field)}) == default_config()


@pytest.mark.parametrize("keys", [
    {"coverage": "0.1"},
    {"coverage": True},
    {"sim_threshold": False},
    {"seed": "7"},
    {"seed": -1},
    {"seed": 1.0},
    {"k_agents": True},
    {"window_days": 1.5},
    {"domain": 7},
    {"posts_path": 5},
])
@pytest.mark.parametrize("command", ["validate", "run-all"])
def test_mistyped_config_exits_1(tmp_path, command, keys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(keys))
    assert main([command, "--config", str(path)]) == 1


def test_negative_seed_flag_exits_1():
    assert main(["validate", "--seed", "-1"]) == 1


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path):
        rc = main([
            "ingest", "--posts", str(tmp_path / "nope.jsonl"),
            "--comments", str(tmp_path / "nope2.jsonl"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_invalid_config_before_work(self, tmp_path, small_dump):
        _, posts, comments, _ = small_dump
        config = tmp_path / "broken.json"
        config.write_text(json.dumps({"maybe_min": 5, "forsure_min": 2}))
        out = tmp_path / "out"
        rc = main([
            "run-all", "--config", str(config), "--posts", str(posts),
            "--comments", str(comments), "--out", str(out),
        ])
        assert rc == 1
        assert not out.exists() or not list(out.iterdir())

    def test_usage_error(self):
        assert main(["no-such-command"]) == 1

    def test_ingest_invalid_config_writes_nothing(self, tmp_path, small_dump):
        _, posts, comments, _ = small_dump
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"coverage": "0.1"}))
        out = tmp_path / "out"
        rc = main(["ingest", "--config", str(config), "--posts", str(posts),
                   "--comments", str(comments), "--out", str(out)])
        assert rc == 1
        assert not out.exists() or not list(out.iterdir())


# What run-all and the stage subcommands both write, compared byte for byte.
STAGE_ARTIFACTS = [
    *(f"stage{k}.{kind}" for k in range(N_STAGES)
      for kind in ("records.jsonl" if k == 0 else "removed.jsonl", "manifest.json")),
    "agents.json", "edges.csv", "timeline.csv", "graph.graphml", "graph.edges.csv",
    "metrics.json", "triads.csv", "chains.jsonl", "census.csv",
]


def staged_flow(posts, comments, tmp_path, seed=3):
    """``run-all`` into run/, and every stage subcommand on the same config
    (four agents, the given ``seed``): ``ingest`` into raw/, then
    ``preprocess`` and the later stages into staged/.  Returns (stage
    runner, run, raw, staged); artifacts that differ from run-all's are
    reported by ``differing``."""
    run, raw, staged = tmp_path / "run", tmp_path / "raw", tmp_path / "staged"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "level": "agent", "k_agents": 4, "seed": seed, "posts_path": str(posts),
        "comments_path": str(comments), "out_dir": str(run),
    }))

    def stage(*argv):
        assert main([*map(str, argv), "--config", str(config)]) == 0, argv

    stage("run-all")
    agents, edges = staged / "agents.json", staged / "edges.csv"
    stage("ingest", "--posts", posts, "--comments", comments, "--out", raw)
    stage("preprocess", "--in", raw, "--out", staged)
    stage("agents", "--in", staged, "--out", agents)
    stage("infer", "--events", run / "events.jsonl", "--out", edges)
    for name in ("graph.graphml", "graph.edges.csv"):
        stage("graph", "build", "--edges", edges, "--agents", agents, "--out", staged / name)
    stage("metrics", "--graph", staged / "graph.graphml", "--out", staged / "metrics.json")
    stage("triads", "--edges", edges, "--out", staged / "triads.csv")
    stage("chains", "--in", staged, "--agents", agents, "--out", staged / "chains.jsonl",
          "--census-thresholds", default_config().sim_threshold)
    return stage, run, raw, staged


def differing(run, raw, staged):
    """The stage artifacts, and raw/'s stage-0 files, whose bytes differ from run-all's."""
    differ = [name for name in STAGE_ARTIFACTS
              if (staged / name).read_bytes() != (run / name).read_bytes()]
    return differ + [f"raw/{name}" for name in ("stage0.records.jsonl", "stage0.manifest.json")
                     if (raw / name).read_bytes() != (run / name).read_bytes()]


class TestSubcommandFlow:
    def test_staged_cli_flow(self, small_dump, tmp_path):
        """Chained subcommands write the same bytes as their stages in run-all."""
        dump, posts, comments, _ = small_dump
        stage, run, raw, staged = staged_flow(posts, comments, tmp_path)
        assert differing(run, raw, staged) == []
        # The compared artifacts are not trivially equal.
        manifest = json.loads((staged / "stage1.manifest.json").read_text())
        assert manifest["removed"] == dump.expected_removed[1]
        assert len(json.loads((staged / "agents.json").read_text())) == 4
        assert "forsure" in (staged / "edges.csv").read_text()
        assert (staged / "chains.jsonl").read_text()

        sweep_path = tmp_path / "sweep.csv"
        stage("sweep", "--events", run / "events.jsonl", "--windows", "7,30",
              "--forsure", "2,3", "--out", sweep_path)
        assert len(sweep_path.read_text().splitlines()) == 1 + 4

    def test_chained_subcommands_keep_the_repeats(self, small_dump, tmp_path):
        """On a dump with repeated posts and comments, the chained subcommands,
        with ``preprocess`` writing into another directory than ``ingest``,
        write run-all's bytes, ``duplicate_removal`` included."""
        _, posts, comments, _ = small_dump
        dumps = []
        for source in (posts, comments):
            lines = source.read_text().splitlines(keepends=True)
            repeat = json.loads(lines[3])
            if source is comments:
                repeat.update(created_utc=repeat["created_utc"] + 500, body="a later copy")
            dumps.append(tmp_path / source.name)
            dumps[-1].write_text("".join(lines) + lines[0] + json.dumps(repeat) + "\n")
        _, run, raw, staged = staged_flow(*dumps, tmp_path)
        assert differing(run, raw, staged) == []
        manifest = json.loads((run / "stage0.manifest.json").read_text())
        assert manifest["removed"] == {"duplicate_removal": 4}

    def test_subcommands_reproduce_every_run_all_artifact(self, tmp_path):
        """On a 200-post / 1,200-comment agent-level corpus the chained
        subcommands write every artifact of run-all byte for byte; the agents
        sidecar differs only by the stage it names as its source."""
        posts, comments = make_synthetic_dump(200, 1200, seed=4).write_dumps(tmp_path)
        _, run, raw, staged = staged_flow(posts, comments, tmp_path, seed=7)
        assert differing(run, raw, staged) == []
        ran, chained = (json.loads((d / "agents.json.manifest.json").read_text())
                        for d in (run, staged))
        assert chained.pop("source_stage") == N_STAGES - 1
        assert chained == ran

    def test_seven_stage_directory_reads_as_stage_3(self, small_dump, tmp_path):
        """A directory preprocessed when stages 4-6 still existed holds their
        empty ledgers and manifests beside stages 0-3; it reads as stage 3."""
        from latentgraph import ingest as ingestmod

        stages = ingestmod.run_pipeline(small_dump[0].records)
        ingestmod.write_stages(stages, tmp_path)
        final = stages[-1]
        for stage_id, key in ((4, "feature_extraction"), (5, "feature_enrichment"),
                              (6, "inference_handoff")):
            ingestmod.records_path(tmp_path, stage_id).write_text("")
            ingestmod.write_json(ingestmod.manifest_path(tmp_path, stage_id), {
                "stage_id": stage_id, "post_count": final.post_count,
                "comment_count": final.comment_count, "removed": {key: 0}})
        assert ingestmod.latest_stage_records(tmp_path) == (3, final.records)
        agents = tmp_path / "agents.json"
        assert main(["agents", "--in", str(tmp_path), "--k", "4", "--out", str(agents)]) == 0
        sidecar = json.loads((tmp_path / "agents.json.manifest.json").read_text())
        assert sidecar["source_stage"] == 3

    def test_ingest_only_directory_reads_stage_0(self, small_dump, tmp_path):
        from latentgraph import ingest as ingestmod

        _, posts, comments, _ = small_dump
        assert main(["ingest", "--posts", str(posts), "--comments", str(comments),
                     "--out", str(tmp_path)]) == 0
        parsed = (ingestmod.load_dump(posts, ingestmod.RecordKind.POST)[0]
                  + ingestmod.load_dump(comments, ingestmod.RecordKind.COMMENT)[0])
        stage_id, records = ingestmod.latest_stage_records(tmp_path)
        assert stage_id == 0
        assert records == ingestmod.snapshot(parsed).records


class TestRunAll:
    def run_config(self, small_dump, out_dir, lexicon=None):
        _, posts, comments, _ = small_dump
        return replace(
            default_config(),
            k_agents=4,
            posts_path=str(posts),
            comments_path=str(comments),
            out_dir=str(out_dir),
            lexicon_path=str(lexicon) if lexicon else None,
        )

    def test_completes_with_all_artifacts(self, small_dump, tmp_path):
        lexicon = write_lexicon_csv(tmp_path / "lexicon.csv")
        out = tmp_path / "out"
        assert run_all(self.run_config(small_dump, out, lexicon)) == 0
        expected = [
            "stage0.records.jsonl", "stage3.manifest.json", "agents.json",
            "events.jsonl", "edges.csv", "timeline.csv", "graph.graphml",
            "graph.edges.csv", "metrics.json", "triads.csv", "chains.jsonl",
            "census.csv", "run_manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        assert sorted(p.name for p in out.glob("stage[4-9]*")) == []
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(
            self.run_config(small_dump, out, lexicon)
        )
        assert {"posts", "comments", "lexicon"} <= set(manifest["input_digests"])
        counts = [s["comments"] for s in manifest["stage_counts"]]
        assert counts == sorted(counts, reverse=True)
        assert manifest["community_restarts"] == community_restarts(
            json.loads((out / "metrics.json").read_text())["nodes"]
        )

    def test_replicate_mode_report(self, small_dump, tmp_path):
        out = tmp_path / "rep"
        config = replace(self.run_config(small_dump, out), domain="climate", k_agents=4)
        assert run_all(config, replicate=True) == 0
        report = json.loads((out / "replication_report.json").read_text())
        assert report["reference_available"] is True
        assert report["metrics"]["density"]["reference"] == 0.192
        assert "computed" in report["metrics"]["density"]

    def test_metrics_reads_a_gzipped_graph_edges_csv(self, small_dump, tmp_path):
        """``metrics`` picks its reader by the suffix in front of ``.gz``."""
        out = tmp_path / "out"
        assert run_all(replace(self.run_config(small_dump, out), level="user")) == 0
        plain = out / "graph.edges.csv"
        packed = tmp_path / "graph.edges.csv.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        for graph, report in ((plain, "plain.json"), (packed, "packed.json")):
            assert main(["metrics", "--graph", str(graph), "--out", str(tmp_path / report)]) == 0
        assert (tmp_path / "packed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def user_level_run(self, tmp_path):
        """The output directory of a user-level run_all on a corpus where
        many pairs stay NONE, and the status counts of its edges.csv rows."""
        posts, comments = make_synthetic_dump(200, 1200, seed=1).write_dumps(tmp_path)
        out = tmp_path / "out"
        config = replace(default_config(), level="user", k_agents=4, posts_path=str(posts),
                         comments_path=str(comments), out_dir=str(out))
        assert run_all(config) == 0
        with open(out / "edges.csv", encoding="utf-8", newline="") as fh:
            return out, Counter(row["status"] for row in csv.DictReader(fh))

    def test_manifest_counts_the_edges_csv_statuses(self, tmp_path):
        out, statuses = self.user_level_run(tmp_path)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["inference"] == {"pairs": statuses.total(), "maybe": statuses["maybe"],
                                         "forsure": statuses["forsure"]}

    def test_only_follows_become_edge_objects(self, tmp_path, monkeypatch):
        """NONE pairs reach edges.csv from the pair table's blocks of rows; only
        the maybe and forsure pairs are ever built as ``FollowEdge``s."""
        built = []
        init = FollowEdge.__init__

        def counted(edge, *args, **kwargs):
            init(edge, *args, **kwargs)
            built.append(edge.status)

        monkeypatch.setattr(FollowEdge, "__init__", counted)
        _, statuses = self.user_level_run(tmp_path)
        assert statuses["none"] > 0
        assert Counter(built) == Counter({FollowStatus.MAYBE: statuses["maybe"],
                                          FollowStatus.FORSURE: statuses["forsure"]})

    def test_a_crashed_rerun_leaves_no_manifest(self, small_dump, tmp_path, monkeypatch):
        """A run on corpus A, then one on corpus B into the same directory that
        crashes before its manifest: no manifest is left to vouch for a
        directory that now mixes the two runs' artifacts."""
        out = tmp_path / "out"

        def run(posts, comments):
            return main(["run-all", "--posts", str(posts), "--comments", str(comments),
                         "--out", str(out), "--level", "user", "--k-agents", "4"])

        assert run(*small_dump[1:3]) == 0
        assert (out / "run_manifest.json").exists()

        def crash(*args, **kwargs):
            raise RuntimeError("chains crashed")

        monkeypatch.setattr(cli, "chains_stage", crash)
        assert run(*make_synthetic_dump(60, 360, seed=18).write_dumps(tmp_path)) == 3
        assert not (out / "run_manifest.json").exists()

    def test_a_plain_rerun_drops_the_replication_report(self, small_dump, tmp_path):
        out = tmp_path / "out"
        config = replace(self.run_config(small_dump, out), domain="climate")
        assert run_all(config, replicate=True) == 0
        assert (out / "replication_report.json").exists()
        assert run_all(config) == 0
        assert not (out / "replication_report.json").exists()
        assert (out / "run_manifest.json").exists()

    def test_missing_paths_is_config_error(self):
        with pytest.raises(ConfigError):
            run_all(default_config())

    def test_version_flag(self, capsys):
        rc = main(["--version"])
        assert rc == 0
        assert "latent-graph 0.1.0" in capsys.readouterr().out


class TestTriads:
    def interval_lengths(self, args, tmp_path):
        day = 86_400
        edges = [
            FollowEdge(a, b, windows_hit=3, total_comments=3, status=FollowStatus.FORSURE,
                       first_seen=t * day, last_seen=t * day, status_time=t * day)
            for a, b, t in [("a", "b", 0), ("b", "c", 40), ("a", "c", 90)]
        ]
        edges_path = tmp_path / "edges.csv"
        oracle_write_edges_csv(edges, edges_path)
        out = tmp_path / "triads.csv"
        assert main(["triads", "--edges", str(edges_path), "--out", str(out), *args]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows
        return {(int(end) - int(start)) // day
                for start, end, *_ in (row.split(",") for row in rows)}

    def test_config_interval_applies(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"interval_days": 30}))
        assert self.interval_lengths(["--config", str(config)], tmp_path) == {30}

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"interval_days": 30}))
        args = ["--config", str(config), "--interval-days", "7"]
        assert self.interval_lengths(args, tmp_path) == {7}


class TestSweep:
    def test_config_seed_reaches_communities(self, tmp_path, monkeypatch):
        from latentgraph import metrics as metricsmod
        from latentgraph.inference import InteractionEvent, write_events_jsonl

        day = 86_400
        pairs = [("a", "b", 0), ("b", "a", 1), ("a", "c", 40), ("c", "a", 41)]
        events = [InteractionEvent(a, b, t * day, "p1", f"c{i}")
                  for i, (a, b, t) in enumerate(pairs)]
        events_path = tmp_path / "events.jsonl"
        write_events_jsonl(events, events_path)
        seeds = []
        real_communities = metricsmod.communities

        def spy(graph, seed=0):
            seeds.append(seed)
            return real_communities(graph, seed)

        monkeypatch.setattr(metricsmod, "communities", spy)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 7}))
        assert main(["sweep", "--config", str(config), "--events", str(events_path),
                     "--windows", "30", "--maybe", "1", "--forsure", "1,2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        # Both cells hold the same graph, which the sweep searches once.
        assert seeds == [7]


class TestDeterminism:
    def test_two_runs_byte_identical(self, small_dump, tmp_path):
        lexicon = write_lexicon_csv(tmp_path / "lexicon.csv")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = replace(
                default_config(),
                k_agents=4,
                posts_path=str(small_dump[1]),
                comments_path=str(small_dump[2]),
                out_dir=str(out),
                lexicon_path=str(lexicon),
            )
            assert run_all(config) == 0
            outputs.append(out)
        a, b = outputs
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "run_manifest.json":
                # Wall-clock timings differ, and so does the out_dir each
                # run was pointed at; everything else must not.
                doc_a = json.loads((a / name).read_text())
                doc_b = json.loads((b / name).read_text())
                for doc in (doc_a, doc_b):
                    doc.pop("timings_seconds")
                    doc["config"].pop("out_dir")
                assert doc_a == doc_b
            else:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name


EDGE_HEADER = "source,target,status,windows_hit,total_comments,first_seen,last_seen,status_time"
GOOD_EDGE = "A,B,maybe,2,3,10,20,15"


@pytest.mark.parametrize("argv, name, text", [
    pytest.param(["triads", "--edges"], "edges.csv",
                 f"{EDGE_HEADER}\n{GOOD_EDGE}\nB,C,sometimes,2,3,10,20,15\n",
                 id="triads-unknown-status"),
    pytest.param(["triads", "--edges"], "edges.csv",
                 f"{EDGE_HEADER}\n{GOOD_EDGE}\nB,C,maybe,2,3\n",
                 id="triads-short-row"),
    pytest.param(["graph", "build", "--edges"], "edges.csv",
                 f"{EDGE_HEADER}\n{GOOD_EDGE}\nB,C,sometimes,2,3,10,20,15\n",
                 id="graph-unknown-status"),
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nB,C,maybe,two,3,10,20,15,3\n",
                 id="metrics-non-integer-windows"),
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nB,C,maybe,,3,10,20,15,3\n",
                 id="metrics-empty-windows"),
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nB,C,maybe,2,3,10,20,15,4\n",
                 id="metrics-weight-not-comments"),
    # One directed pair is one edge; a second row for it would count twice.
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nA,B,forsure,3,3,10,20,15,3\n",
                 id="metrics-repeated-pair"),
    pytest.param(["graph", "build", "--edges"], "edges.csv",
                 f"{EDGE_HEADER}\n{GOOD_EDGE}\nA,B,forsure,3,3,10,20,15\n",
                 id="graph-repeated-pair"),
    pytest.param(["triads", "--edges"], "edges.csv",
                 f"{EDGE_HEADER}\n{GOOD_EDGE}\nA,B,none,1,1,10,10,\n",
                 id="triads-repeated-pair"),
])
def test_malformed_edge_row_is_data_error(tmp_path, capsys, argv, name, text):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out" / "result.csv"
    assert main([*argv, str(path), "--out", str(out)]) == 2
    assert f"{path}:3: bad" in capsys.readouterr().err
    assert not out.parent.exists()


GOOD_STAGE_ROW = ('{"id":"p1","kind":"post","author":"A","created_utc":5,"text":"hello there",'
                  '"subreddit":"s","link_id":null,"parent_id":null}')
GOOD_EVENT = '{"source":"A","target":"B","time":86400,"post_id":"p","comment_id":"c1"}'


def graphml(nodes: str, *edges: tuple[str, str, object, str]) -> str:
    """A GraphML file declaring one node per letter of ``nodes``, with
    (source, target, weight, status) edges."""
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph edgedefault="directed">'
            + "".join(f'<node id="{n}"/>' for n in nodes)
            + "".join(f'<edge source="{a}" target="{b}"><data key="weight">{w}</data>'
                      f'<data key="status">{status}</data></edge>' for a, b, w, status in edges)
            + "</graph></graphml>\n")


@pytest.mark.parametrize("argv, name, text", [
    pytest.param(["chains", "--in"], "stage0.records.jsonl",
                 f"{GOOD_STAGE_ROW}\n{GOOD_STAGE_ROW.replace(':5,', ':true,')}\n",
                 id="stage-bool-time"),
    pytest.param(["chains", "--in"], "stage0.records.jsonl", f"{GOOD_STAGE_ROW}\n[1, 2]\n",
                 id="stage-not-an-object"),
    pytest.param(["infer", "--events"], "events.jsonl",
                 f"{GOOD_EVENT}\n{GOOD_EVENT.replace('86400', 'true')}\n", id="event-bool-time"),
    pytest.param(["metrics", "--graph"], "graph.graphml", graphml("AB", ("A", "B", "x", "maybe")),
                 id="graphml-weight"),
    pytest.param(["metrics", "--graph"], "graph.graphml",
                 graphml("AB", ("A", "B", 3, "sometimes")), id="graphml-status"),
    # A graph file may hold only what graph.build admits.
    pytest.param(["metrics", "--graph"], "graph.graphml",
                 graphml("AB", ("A", "B", 3, "maybe"), ("A", "Z", 3, "maybe")),
                 id="graphml-undeclared-endpoint"),
    pytest.param(["metrics", "--graph"], "graph.graphml",
                 graphml("ABC", ("A", "B", 3, "maybe"), ("B", "C", 3, "none")),
                 id="graphml-none-status"),
    pytest.param(["metrics", "--graph"], "graph.graphml",
                 graphml("ABC", ("A", "B", 3, "maybe"), ("B", "C", -3, "maybe")),
                 id="graphml-negative-weight"),
    pytest.param(["metrics", "--graph"], "graph.graphml",
                 graphml("AB", ("A", "B", 3, "maybe"), ("A", "B", 2, "forsure")),
                 id="graphml-repeated-pair"),
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nB,C,none,0,3,10,20,,3\n",
                 id="graph-csv-none-status"),
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nB,C,maybe,2,0,10,20,15,0\n",
                 id="graph-csv-zero-weight"),
    pytest.param(["metrics", "--graph"], "graph.edges.csv",
                 f"{EDGE_HEADER},weight\n{GOOD_EDGE},3\nC,C,maybe,2,3,10,20,15,3\n",
                 id="graph-csv-self-loop"),
])
def test_malformed_input_is_data_error(tmp_path, capsys, argv, name, text):
    path = tmp_path / "input" / name
    path.parent.mkdir()
    path.write_text(text)
    source = path.parent if argv[-1] == "--in" else path
    out = tmp_path / "out" / "result"
    assert main([*argv, str(source), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("name, text", [
    ("graph.edges.csv", f"{EDGE_HEADER},weight\nA,B,forsure,3,3,10,20,15,3\n{GOOD_EDGE},3\n"),
    ("graph.graphml", graphml("AB", ("A", "B", 3, "forsure"), ("A", "B", 3, "maybe"))),
], ids=["csv", "graphml"])
def test_repeated_graph_pair_is_named(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["metrics", "--graph", str(path), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "repeated" in err and "A -> B" in err
    assert not (tmp_path / "m.json").exists()


def pushshift_dialect(posts: Path, comments: Path, out: Path) -> tuple[Path, Path]:
    """Rewrite a synthetic dump as Pushshift writes it, gzip-compressed: fullname
    link and parent ids, times as strings, and fields no reader knows."""
    post_lines = [json.loads(line) for line in posts.read_text().splitlines()]
    post_ids = {line["id"] for line in post_lines}
    comment_lines = [json.loads(line) for line in comments.read_text().splitlines()]
    for n, line in enumerate(post_lines + comment_lines):
        line["created_utc"] = f"{line['created_utc']}{'.0' if n % 2 else ''}"
        line.update(score=n, edited=False, name=f"t9_{line['id']}")
    for line in comment_lines:
        line["link_id"] = "t3_" + line["link_id"]
        parent = line["parent_id"]
        line["parent_id"] = ("t3_" if parent in post_ids else "t1_") + parent
    paths = []
    for lines, name in ((post_lines, "posts.jsonl.gz"), (comment_lines, "comments.jsonl.gz")):
        with gzip.open(out / name, "wt", encoding="utf-8") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in lines)
        paths.append(out / name)
    return paths[0], paths[1]


def test_pushshift_dialect_gives_identical_artifacts(small_dump, tmp_path):
    _, posts, comments, _ = small_dump
    lexicon = write_lexicon_csv(tmp_path / "lexicon.csv")
    dumps = {"plain": (posts, comments), "pushshift": pushshift_dialect(posts, comments, tmp_path)}
    for name, (posts_path, comments_path) in dumps.items():
        config = replace(default_config(), k_agents=4, posts_path=str(posts_path),
                         comments_path=str(comments_path), out_dir=str(tmp_path / name),
                         lexicon_path=str(lexicon))
        assert run_all(config) == 0
    a, b = tmp_path / "plain", tmp_path / "pushshift"
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "run_manifest.json":
            docs = [json.loads((d / name).read_text()) for d in (a, b)]
            for doc in docs:
                for key in ("input_digests", "timings_seconds"):
                    doc.pop(key)
                for key in ("posts_path", "comments_path", "out_dir"):
                    doc["config"].pop(key)
            assert docs[0] == docs[1]
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture(scope="module")
def stage_dir(small_dump, tmp_path_factory):
    _, posts, comments, _ = small_dump
    out = tmp_path_factory.mktemp("stage0")
    assert main(["ingest", "--posts", str(posts), "--comments", str(comments),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def events_path(tmp_path_factory):
    from latentgraph.inference import InteractionEvent, write_events_jsonl

    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    write_events_jsonl([InteractionEvent("A", "B", day * 86400, "p", f"c{day}")
                        for day in (1, 40, 80)], path)
    return path


@pytest.mark.parametrize("command, flags", [
    ("sweep", ["--coverage", "1.5"]),
    ("sweep", ["--coverage", "-0.1"]),
    ("sweep", ["--windows", "-7"]),
    ("sweep", ["--windows", "0"]),
    ("sweep", ["--windows", "x"]),
    ("sweep", ["--maybe", "2.5"]),
    ("chains", ["--top", "-1"]),
    ("chains", ["--census-thresholds", "abc"]),
    ("sweep", ["--windows", "0.000001"]),
    ("chains", ["--census-thresholds", "0,0.5"]),
])
def test_bad_number_flag_exits_1(tmp_path, stage_dir, events_path, command, flags):
    out = tmp_path / "out" / "result"
    source = ["--events", str(events_path)] if command == "sweep" else ["--in", str(stage_dir)]
    assert main([command, *source, *flags, "--out", str(out)]) == 1
    assert not out.parent.exists()


def test_graph_build_unknown_suffix_exits_1(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"{EDGE_HEADER}\n{GOOD_EDGE}\n")
    assert main(["graph", "build", "--edges", str(edges), "--out", str(tmp_path / "g.gexf")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.csv"]


def test_graph_build_refuses_the_removed_dot_export(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"{EDGE_HEADER}\n{GOOD_EDGE}\n")
    assert main(["graph", "build", "--edges", str(edges), "--out", str(tmp_path / "g.dot")]) == 1
    assert "(use .csv or .graphml)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.csv"]



GOOD_EDGES = f"{EDGE_HEADER}\n{GOOD_EDGE}\n".encode()
AGENT = {"agent_id": "A000", "label": "a", "members": ["A"], "centroid": [1.0], "keywords": []}
LEDGER_ROW = b'{"kind":"post","id":"nope","reason":"bot_removal"}\n'
LEDGER = "{tmp}/stages/stage1.removed.jsonl"
BOT_ROW = b'{"kind":"post","id":"p000000","reason":"bot_removal"}\n'
GRAPHML = graphml("AB", ("A", "B", 3, "maybe"))
# A node named "", which an edge end left out must not stand for.
GRAPHML_EMPTY_ID = GRAPHML.replace('<node id="A"/>', '<node id="A"/><node id=""/>')


@pytest.mark.parametrize("files, argv, code, named", [
    pytest.param({"edges.csv": GOOD_EDGES + b"B,C,maybe,2,3,10,20,15\xff\n"},
                 ["triads", "--edges", "{tmp}/edges.csv"], 2, "{tmp}/edges.csv",
                 id="triads-edges-bad-byte"),
    pytest.param({"edges.csv": GOOD_EDGES + b"B,C,maybe,2,3,10,20,15\xff\n"},
                 ["graph", "build", "--edges", "{tmp}/edges.csv"], 2, "{tmp}/edges.csv",
                 id="graph-edges-bad-byte"),
    pytest.param({"graph.edges.csv": f"{EDGE_HEADER},weight\n".encode() + b"\xff,B,maybe,2,3,1,2,1,3\n"},
                 ["metrics", "--graph", "{tmp}/graph.edges.csv"], 2, "{tmp}/graph.edges.csv",
                 id="metrics-graph-edges-bad-byte"),
    pytest.param({"edges.csv": GOOD_EDGES, "a.json": b"[{"},
                 ["graph", "build", "--edges", "{tmp}/edges.csv", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-file-not-json"),
    pytest.param({"edges.csv": GOOD_EDGES,
                  "a.json": b'[{"agent_id": "A000", "members": ["A"], "centroid": [1.0]}]'},
                 ["graph", "build", "--edges", "{tmp}/edges.csv", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-file-missing-key"),
    pytest.param({"edges.csv": GOOD_EDGES,
                  "a.json": json.dumps([dict(AGENT, members="alice")]).encode()},
                 ["graph", "build", "--edges", "{tmp}/edges.csv", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-members-not-a-list"),
    pytest.param({"edges.csv": GOOD_EDGES,
                  "a.json": json.dumps([AGENT, dict(AGENT, members=["B"])]).encode()},
                 ["graph", "build", "--edges", "{tmp}/edges.csv", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-repeated-agent-id"),
    pytest.param({"a.json": json.dumps([AGENT, dict(AGENT, agent_id="A001")]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-user-under-two-agents"),
    pytest.param({"a.json": json.dumps([dict(AGENT, centroid=1.0)]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-centroid-not-a-list"),
    pytest.param({"a.json": json.dumps([{"agent_id": 5, "label": None, "members": [7, "u1"],
                                         "centroid": [1.0]}]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-fields-not-strings"),
    pytest.param({"a.json": json.dumps([dict(AGENT, label=None)]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-label-null"),
    pytest.param({"a.json": json.dumps([dict(AGENT, members=["A", 7])]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-member-not-a-string"),
    pytest.param({"a.json": json.dumps([dict(AGENT, members=["A", ""])]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-member-empty"),
    pytest.param({"a.json": json.dumps([dict(AGENT, centroid=[True])]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-centroid-bool"),
    pytest.param({"a.json": json.dumps([dict(AGENT, keywords="climate")]).encode()},
                 ["chains", "--in", "{stage}", "--agents", "{tmp}/a.json"],
                 2, "{tmp}/a.json", id="agents-keywords-not-a-list"),
    pytest.param({"edges.csv": f"{EDGE_HEADER}\n{'A' * 200_000},B,maybe,2,3,10,20,15\n".encode()},
                 ["triads", "--edges", "{tmp}/edges.csv"], 2, "{tmp}/edges.csv:2",
                 id="triads-edges-field-over-csv-limit"),
    pytest.param({"c.json": b'{"seed": 1, "domain": "\xff"}'},
                 ["run-all", "--config", "{tmp}/c.json"], 1, "{tmp}/c.json",
                 id="config-bad-byte"),
    pytest.param({"lex.csv": b"term,emotion\nangry,anger\xff\n"},
                 ["agents", "--in", "{stage}", "--lexicon", "{tmp}/lex.csv"], 2, "{tmp}/lex.csv",
                 id="lexicon-bad-byte"),
    pytest.param({"emb.jsonl": b'{"user": "u\xff", "vector": [1.0]}\n'},
                 ["agents", "--in", "{stage}", "--embeddings", "{tmp}/emb.jsonl"], 2,
                 "{tmp}/emb.jsonl", id="embeddings-bad-byte"),
    pytest.param({"emb.jsonl": b'{"user": "a", "vector": [1.0]}\n{"user": "b", "vector": [1, 2]}\n'},
                 ["agents", "--in", "{stage}", "--embeddings", "{tmp}/emb.jsonl"], 2,
                 "{tmp}/emb.jsonl:2", id="embeddings-dimension"),
    pytest.param({"emb.jsonl": b'{"user": "a", "vector": [1.0]}\n{"user": "a", "vector": [2.0]}\n'},
                 ["agents", "--in", "{stage}", "--embeddings", "{tmp}/emb.jsonl"], 2,
                 "{tmp}/emb.jsonl:2", id="embeddings-repeated-user"),
    pytest.param({"emb.jsonl": b'{"user": "a", "vector": [1.0]}\n{"user": 5, "vector": [2.0]}\n'},
                 ["agents", "--in", "{stage}", "--embeddings", "{tmp}/emb.jsonl"], 2,
                 "{tmp}/emb.jsonl:2", id="embeddings-user-not-a-string"),
    pytest.param({"stages/stage1.removed.jsonl": LEDGER_ROW + b'{"kind":"post","reason":"r"}\n'},
                 ["chains", "--in", "{tmp}/stages"], 2, LEDGER + ":2", id="ledger-row-without-id"),
    pytest.param({"stages/stage1.removed.jsonl": LEDGER_ROW + b'{"kind":"x","id":"p","reason":"r"}\n'},
                 ["agents", "--in", "{tmp}/stages"], 2, LEDGER + ":2", id="ledger-row-bad-kind"),
    pytest.param({"stages/stage1.removed.jsonl": LEDGER_ROW + b'["post", "p"]\n'},
                 ["chains", "--in", "{tmp}/stages"], 2, LEDGER + ":2", id="ledger-row-not-an-object"),
    pytest.param({"stages/stage1.removed.jsonl":
                  LEDGER_ROW + b'{"kind":"post","id":"p000000","reason":"activity_threshold"}\n'},
                 ["chains", "--in", "{tmp}/stages"], 2, LEDGER + ":2",
                 id="ledger-row-reason-of-another-stage"),
    # A row naming a record that an earlier row removed, in its own ledger or
    # in an earlier stage's.
    pytest.param({"stages/stage1.removed.jsonl": BOT_ROW + BOT_ROW},
                 ["agents", "--in", "{tmp}/stages"], 2, LEDGER + ":2",
                 id="ledger-row-repeated-in-one-ledger"),
    pytest.param({"stages/stage1.removed.jsonl": BOT_ROW,
                  "stages/stage2.removed.jsonl":
                  b'\n{"kind":"post","id":"p000000","reason":"activity_threshold"}\n'},
                 ["chains", "--in", "{tmp}/stages"], 2, "{tmp}/stages/stage2.removed.jsonl:2",
                 id="ledger-row-repeated-across-stages"),
    # A row naming no stage-0 record is refused once every ledger row is read.
    pytest.param({"stages/stage1.removed.jsonl": LEDGER_ROW},
                 ["agents", "--in", "{tmp}/stages"], 2, LEDGER, id="ledger-row-matching-nothing"),
    # metrics reads back only what graph build writes.
    pytest.param({"g.graphml": graphml("AB").replace(
                     "</graph>", '<edge source="A" target="B"></edge></graph>').encode()},
                 ["metrics", "--graph", "{tmp}/g.graphml"], 2, "{tmp}/g.graphml",
                 id="graphml-edge-without-data"),
    pytest.param({"g.graphml": GRAPHML.replace('<node id="A"/>', '<node id="A"/><node/>').encode()},
                 ["metrics", "--graph", "{tmp}/g.graphml"], 2, "{tmp}/g.graphml",
                 id="graphml-node-without-id"),
    pytest.param({"g.graphml": GRAPHML_EMPTY_ID.replace(' source="A"', "").encode()},
                 ["metrics", "--graph", "{tmp}/g.graphml"], 2, "{tmp}/g.graphml",
                 id="graphml-edge-without-source"),
    pytest.param({"g.graphml": GRAPHML_EMPTY_ID.replace(' target="B"', "").encode()},
                 ["metrics", "--graph", "{tmp}/g.graphml"], 2, "{tmp}/g.graphml",
                 id="graphml-edge-without-target"),
    pytest.param({"g.graphml": GRAPHML.replace('<data key="weight">3</data>', "").encode()},
                 ["metrics", "--graph", "{tmp}/g.graphml"], 2, "{tmp}/g.graphml",
                 id="graphml-edge-without-weight"),
    pytest.param({"g.graphml": GRAPHML.replace('<data key="status">maybe</data>', "").encode()},
                 ["metrics", "--graph", "{tmp}/g.graphml"], 2, "{tmp}/g.graphml",
                 id="graphml-edge-without-status"),
    pytest.param({}, ["run-all", "--posts", "{tmp}/nope.jsonl", "--comments", "{comments}"], 2,
                 "{tmp}/nope.jsonl", id="run-all-missing-posts"),
    pytest.param({}, ["run-all", "--posts", "{posts}", "--comments", "{comments}",
                      "--lexicon", "{tmp}/nolex.csv"], 1, "{tmp}/nolex.csv",
                 id="run-all-missing-lexicon"),
    pytest.param({}, ["run-all", "--posts", "{posts}", "--comments", "{comments}",
                      "--embeddings", "{tmp}/noemb.jsonl"], 1, "{tmp}/noemb.jsonl",
                 id="run-all-missing-embeddings"),
])
def test_faulty_input_exits_with_its_code_and_names_the_file(
        tmp_path, capsys, stage_dir, small_dump, files, argv, code, named):
    """A bad user-supplied file exits 1 (config) or 2 (data) naming the file,
    and its line for a row error; never 3."""
    _, posts, comments, _ = small_dump
    if any(name.startswith("stages/") for name in files):
        shutil.copytree(stage_dir, tmp_path / "stages")
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    fill = dict(tmp=tmp_path, stage=stage_dir, posts=posts, comments=comments)
    out = str(tmp_path / "out" / "result.csv")
    assert main([arg.format(**fill) for arg in argv] + ["--out", out]) == code
    err = capsys.readouterr().err
    assert named.format(**fill) in err
    assert "internal error" not in err


@pytest.mark.parametrize("argv, out, named", [
    (["run-all", "--posts", "{posts}", "--comments", "{comments}"], "{file}", "{file}"),
    (["infer", "--events", "{events}"], "{file}/edges.csv", "{file}"),
    (["ingest", "--posts", "{posts}", "--comments", "{comments}"], "{file}/sub", "{file}"),
    (["infer", "--events", "{events}"], "{dir}", "{dir}"),
], ids=["run-all-out-is-a-file", "infer-out-under-a-file", "ingest-out-under-a-file",
        "infer-out-is-a-directory"])
def test_unwritable_output_path_exits_1(tmp_path, capsys, small_dump, events_path, argv, out,
                                        named):
    """An output path that cannot be made a directory or file exits 1 naming it; never 3."""
    _, posts, comments, _ = small_dump
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    taken = tmp_path / "taken"
    taken.mkdir()
    fill = dict(posts=posts, comments=comments, events=events_path, file=blocker, dir=taken)
    assert main([arg.format(**fill) for arg in argv] + ["--out", out.format(**fill)]) == 1
    err = capsys.readouterr().err
    assert named.format(**fill) in err
    assert "internal error" not in err
    assert blocker.read_text() == "a file, not a directory\n"
    assert list(taken.iterdir()) == []


def _attributes_read(tree: ast.AST, owner: str) -> set[str]:
    """Every ``<owner>.<attr>`` that ``tree`` reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def test_every_setting_and_flag_is_read():
    """No flag does nothing: every RunConfig field is read as ``config.<field>``
    outside config.py, and every other parser dest as ``args.<dest>`` in cli.py."""
    package = Path(cli.__file__).parent
    read = set().union(*(_attributes_read(ast.parse(path.read_text(encoding="utf-8")), "config")
                         for path in package.glob("*.py") if path.name != "config.py"))
    assert FIELD_NAMES - read == set()
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    dests = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            keywords = {k.arg: k.value for k in node.keywords}
            if "action" in keywords and keywords["action"].value in ("help", "version"):
                continue
            dest = keywords.get("dest")
            dests.add(dest.value if dest else node.args[0].value.lstrip("-").replace("-", "_"))
    assert {"indir", "max_comments_per_post"} <= dests  # the walk found the parser
    assert dests - FIELD_NAMES - _attributes_read(tree, "args") == set()


def test_every_parameter_is_read():
    """No parameter does nothing: every function in the package reads each of
    its parameters, save a subcommand handler's ``args`` that it has no use for."""
    unread = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            spec = node.args
            params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs, spec.vararg, spec.kwarg]
            body = node.body if isinstance(node, ast.Lambda) else ast.Module(node.body, [])
            read = {name.id for name in ast.walk(body)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}:{param.arg}"
                       for param in params if param and param.arg not in read]
    assert unread == ["cli.cmd_validate:args"]
