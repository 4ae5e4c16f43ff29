"""``latent-graph`` command line front-end.

Each pipeline stage is one ``*_stage`` function that takes its inputs and
the ``RunConfig``, writes the stage's artifacts and returns its outputs.
``run-all`` calls them in order; each stage subcommand reads its inputs from
files and calls its one stage.  ``main`` turns the flags and the config file
into one ``RunConfig`` (``config.merge_config``) and validates it once for
every command but ``validate``.  ``metrics`` loads only graph files that
``graph.build`` could have written.  Exit codes: 0 success, 1 usage or
config error (an output path that cannot be made among them), 2 data error,
3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from . import chains as chainsmod
from . import graph as graphmod
from . import ingest as ingestmod
from . import inference as infermod
from . import metrics as metricsmod
from . import profiles as profilesmod
from . import temporal as temporalmod
from .config import (
    FIELD_NAMES,
    REFERENCE_METRICS,
    RunConfig,
    config_digest,
    merge_config,
    read_config_file,
    require_valid,
    validate,
)
from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

def _write_sidecar(out_path: Path, config: RunConfig, extra: dict | None = None) -> None:
    """Companion manifest declaring which config produced an artifact."""
    payload = {"tool": f"latent-graph {__version__}", "config_digest": config_digest(config)}
    if extra:
        payload.update(extra)
    ingestmod.write_json(out_path.with_suffix(out_path.suffix + ".manifest.json"), payload)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Every given flag whose ``dest`` names a ``RunConfig`` field overrides it."""
    flags = {k: v for k, v in vars(args).items() if k in FIELD_NAMES and v is not None}
    file_keys = read_config_file(args.config) if args.config else {}
    return merge_config(flags, file_keys)


def _numbers(text: str, kind=float) -> list:
    """A comma-separated flag value as a list of numbers (an argparse ``type=``,
    so a bad number is a usage error)."""
    return [kind(v) for v in text.split(",") if v]


def _integers(text: str) -> list[int]:
    return _numbers(text, int)


def _graph_path(text: str) -> Path:
    """An export path whose suffix names a graph format (an argparse ``type=``)."""
    path = Path(text)
    if path.suffix not in graphmod.GRAPH_SUFFIXES:
        raise argparse.ArgumentTypeError(
            f"cannot infer export format from {path.name!r} (use .csv or .graphml)")
    return path


# ---------------------------------------------------------------------------
# Pipeline stages, shared by run-all and the subcommands
# ---------------------------------------------------------------------------

def ingest_stage(posts_path, comments_path) -> tuple[list[ingestmod.RawRecord], dict[str, int]]:
    """Records of both dumps and the lines skipped in each; stage 0 is written later."""
    posts, skipped_posts = ingestmod.load_dump(posts_path, ingestmod.RecordKind.POST)
    comments, skipped_comments = ingestmod.load_dump(comments_path, ingestmod.RecordKind.COMMENT)
    return posts + comments, {"posts": skipped_posts, "comments": skipped_comments}


def preprocess_stage(records, config: RunConfig, out: Path) -> list[ingestmod.StageSnapshot]:
    """Filter stages 0..3, written to ``out`` as one record ledger."""
    stages = ingestmod.run_pipeline(records, config.max_comments_per_post,
                                    config.min_interactions)
    ingestmod.write_stages(stages, out, {"config_digest": config_digest(config)})
    return stages


def agents_stage(records, config: RunConfig, out: Path, source_stage: int | None = None
                 ) -> tuple[list[profilesmod.AgentProfile], profilesmod.TermTable]:
    """Enriched agent profiles of the records' users, saved to ``out`` with a
    sidecar that names ``source_stage`` when it is given, and the records'
    term table."""
    lexicon = profilesmod.load_lexicon(config.lexicon_path) if config.lexicon_path else {}
    table, vocab, counts = profilesmod.term_table(records, lexicon=lexicon)
    terms = profilesmod.build_user_vectors(table)
    vectors = (profilesmod.load_embeddings(config.embeddings_path, table.users)
               if config.embeddings_path else terms)
    profiles = [
        profilesmod.enrich(p, [counts[user] for user in p.members], lexicon, vocab, terms)
        for p in profilesmod.cluster_users(vectors, config.k_agents, config.seed)
    ]
    profilesmod.save_profiles(profiles, out)
    source = {} if source_stage is None else {"source_stage": source_stage}
    _write_sidecar(out, config, {**source, "agents": len(profiles)})
    return profiles, table


def events_stage(records, id_map, out: Path
                 ) -> tuple[infermod.EventTable, infermod.ExtractionStats]:
    """Interaction events of the records' replies, between agents when
    ``id_map`` maps users to agents, written to ``out``, and their counts."""
    posts = [r for r in records if r.kind is ingestmod.RecordKind.POST]
    comments = [r for r in records if r.kind is ingestmod.RecordKind.COMMENT]
    events, stats = infermod.extract_events(posts, comments, id_map)
    infermod.write_events_jsonl(events, out)
    return events, stats


def infer_stage(events, config: RunConfig, edges_out: Path, timeline_out: Path
                ) -> tuple[list[infermod.FollowEdge], dict[str, int]]:
    """Classify every pair, write the edge list of all pairs and the event
    timeline of the follows, and return the follows (the maybe and forsure
    edges, the only ones built) with the pair and status counts.  The pairs
    are classified twice: once for edges.csv, once for the follows."""
    grid = infermod.WindowGrid.from_events(events, config.window_days * infermod.SECONDS_PER_DAY)
    edges = infermod.infer_all(events, grid, config.maybe_min, config.forsure_min)
    infermod.write_edges_csv(edges, edges_out)
    follows = edges.follows()
    infermod.write_timeline_csv(infermod.event_timeline(follows), timeline_out)
    statuses = Counter(edge.status for edge in follows)
    return follows, {"pairs": len(edges), "maybe": statuses[infermod.FollowStatus.MAYBE],
                     "forsure": statuses[infermod.FollowStatus.FORSURE]}


def graph_stage(edges, config: RunConfig, outs, include=graphmod.EdgeClass.ALL,
                known_agents=()) -> graphmod.InteractionGraph:
    """The graph after coverage, written to each path in ``outs`` in the
    format its suffix names."""
    built = graphmod.build(edges, include, known_agents=known_agents)
    covered = graphmod.apply_coverage(built, config.coverage)
    for path in outs:
        graphmod.write_graph(covered, path)
    return covered


def metrics_stage(graph, config: RunConfig, out: Path) -> metricsmod.MetricsReport:
    """Full metric report stamped with the config digest and seed, written to ``out``."""
    stamp = {"config_digest": config_digest(config), "seed": config.seed}
    report = metricsmod.full_report(graph, config.seed, config.degree_top_k, config=stamp)
    metricsmod.write_report(report, out)
    return report


def triads_stage(edges, config: RunConfig, out: Path,
                 use_status_time: bool = False) -> temporalmod.TriadSeries:
    interval = config.interval_days * infermod.SECONDS_PER_DAY
    series = temporalmod.triad_series(edges, interval, use_status_time)
    temporalmod.write_triads_csv(series, out)
    return series


def chains_stage(records, config: RunConfig, out: Path, agent_of=None,
                 top_k: int = chainsmod.DEFAULT_TOP_K, census_thresholds=None, table=None):
    """The top chains, written to ``out``, and ``census.csv`` beside it, the
    census rows ``extract_chains`` gives for ``census_thresholds``, all from
    one similarity pass over ``table``, the records' term table
    (``extract_chains`` builds it when none is given).  Both are computed
    before either is written."""
    selected, manifest = chainsmod.extract_chains(records, config.sim_threshold, top_k, agent_of,
                                                  table, census_thresholds)
    census = manifest.pop("census_rows")
    chainsmod.write_chains_jsonl(selected, out)
    chainsmod.write_census_csv(census, out.parent / "census.csv")
    return selected, manifest


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    records, skipped = ingest_stage(args.posts, args.comments)
    stage0 = ingestmod.snapshot(records)
    ingestmod.write_stages([stage0], args.out, {"config_digest": config_digest(config)})
    summary = {
        "posts": stage0.post_count,
        "comments": stage0.comment_count,
        "skipped_lines": sum(skipped.values()),
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace, config: RunConfig) -> int:
    records = ingestmod.load_records(ingestmod.records_path(args.indir, 0))
    for snap in preprocess_stage(records, config, args.out):
        print(
            f"stage {snap.stage_id}: posts={snap.post_count} "
            f"comments={snap.comment_count} removed={snap.manifest}"
        )
    return EXIT_OK


def cmd_agents(args: argparse.Namespace, config: RunConfig) -> int:
    stage_id, records = ingestmod.latest_stage_records(args.indir)
    profiles, _ = agents_stage(records, config, args.out, source_stage=stage_id)
    print(f"wrote {len(profiles)} agent profiles to {args.out}")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace, config: RunConfig) -> int:
    events = infermod.load_events_jsonl(args.events)
    timeline = args.timeline or args.out.parent / "timeline.csv"
    follows, counts = infer_stage(events, config, args.out, timeline)
    _write_sidecar(args.out, config, {"events": len(events), "pairs": counts["pairs"]})
    print(f"classified {counts['pairs']} pairs ({len(follows)} with follow relations)")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace, config: RunConfig) -> int:
    edges = infermod.load_edges_csv(args.edges)
    known: list[str] = []
    if args.agents:
        known = [p.agent_id for p in profilesmod.load_profiles(args.agents)]
    graph = graph_stage(edges, config, [args.out], graphmod.EdgeClass(args.edge_class), known)
    _write_sidecar(args.out, config, {"nodes": graph.node_count, "edges": graph.edge_count})
    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges -> {args.out}")
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace, config: RunConfig) -> int:
    print(metrics_stage(graphmod.load_graph(args.graph), config, args.out).to_json(), end="")
    return EXIT_OK


def cmd_triads(args: argparse.Namespace, config: RunConfig) -> int:
    edges = infermod.load_edges_csv(args.edges)
    series = triads_stage(edges, config, args.out, args.use_status_time)
    _write_sidecar(args.out, config, {"intervals": series.n_intervals})
    total = series.cumulative_all[-1] if series.n_intervals else 0
    print(f"{series.n_intervals} intervals, {total} closed triads -> {args.out}")
    return EXIT_OK


def cmd_chains(args: argparse.Namespace, config: RunConfig) -> int:
    _, records = ingestmod.latest_stage_records(args.indir)
    agent_of = None
    if args.agents:
        agent_of = profilesmod.build_member_index(profilesmod.load_profiles(args.agents))
    selected, manifest = chains_stage(records, config, args.out, agent_of, args.top,
                                      args.census_thresholds)
    _write_sidecar(args.out, config, manifest)
    print(f"{manifest['chains_total']} chains extracted, kept top {len(selected)} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    events = infermod.load_events_jsonl(args.events)
    report = temporalmod.sweep(
        events,
        window_days_list=args.windows,
        maybe_min_list=args.maybe,
        forsure_min_list=args.forsure,
        coverage_list=args.coverage_list,
        seed=config.seed,
    )
    temporalmod.write_sweep_csv(report, args.out)
    _write_sidecar(args.out, config, {"cells": len(report.cells)})
    print(f"{len(report.cells)} sweep cells -> {args.out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, config: RunConfig) -> int:
    problems = validate(config)
    for problem in problems:
        print(problem)
    if problems:
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-all orchestration
# ---------------------------------------------------------------------------

def run_all(config: RunConfig, replicate: bool = False) -> int:
    require_valid(config)
    if not config.posts_path or not config.comments_path or not config.out_dir:
        raise ConfigError("run-all needs posts_path, comments_path, and out_dir")
    out = ingestmod.output_dir(config.out_dir)
    # Every other artifact is rewritten by a run that completes, so a directory
    # with a manifest holds one whole run, and one without it an unfinished run.
    for name in ("run_manifest.json", "replication_report.json"):
        (out / name).unlink(missing_ok=True)
    timings: dict[str, float] = {}

    @contextmanager
    def timed(name: str):
        t0 = time.perf_counter()
        yield
        timings[name] = round(time.perf_counter() - t0, 3)

    agent_level = config.level == "agent"

    with timed("ingest"):
        records, skipped_lines = ingest_stage(config.posts_path, config.comments_path)
    with timed("preprocess"):
        stages = preprocess_stage(records, config, out)
    stage_counts = [{"stage": s.stage_id, "posts": s.post_count, "comments": s.comment_count}
                    for s in stages]
    final_records = stages[-1].records
    # No later stage reads the input or the ledger: the records every filter
    # removed are let go before the agents stage.
    del records, stages
    with timed("agents"):
        profiles, table = agents_stage(final_records, config, out / "agents.json")
    with timed("infer"):
        id_map = profilesmod.build_member_index(profiles) if agent_level else None
        events, stats = events_stage(final_records, id_map, out / "events.jsonl")
        follows, inference = infer_stage(events, config, out / "edges.csv",
                                         out / "timeline.csv")
        del events  # no later stage reads the events
    with timed("graph"):
        known = [p.agent_id for p in profiles] if agent_level else []
        graph = graph_stage(follows, config, [out / "graph.graphml", out / "graph.edges.csv"],
                            known_agents=known)
    with timed("metrics"):
        report = metrics_stage(graph, config, out / "metrics.json")
    with timed("triads"):
        triads_stage(follows, config, out / "triads.csv")
    with timed("chains"):
        _, chain_manifest = chains_stage(final_records, config, out / "chains.jsonl",
                                         agent_of=id_map, table=table)

    # Digested after the stages that read them, so a bad input is named by its reader.
    inputs = {"posts": config.posts_path, "comments": config.comments_path,
              "lexicon": config.lexicon_path, "embeddings": config.embeddings_path}
    input_digests = {name: ingestmod.file_digest(path) for name, path in inputs.items() if path}
    manifest = {
        "config": config.to_dict(),
        "config_digest": config_digest(config),
        "input_digests": input_digests,
        "skipped_lines": skipped_lines,
        "extraction": stats.to_dict(),
        "inference": inference,
        "chains": chain_manifest,
        # Greedy modularity runs behind metrics.json; none on an edgeless graph.
        "community_restarts": (
            metricsmod.community_restarts(graph.node_count) if graph.edge_count else 0
        ),
        "stage_counts": stage_counts,
        "timings_seconds": timings,
    }
    if replicate:
        _write_replication_report(config, report, out)
    ingestmod.write_json(out / "run_manifest.json", manifest)
    return EXIT_OK


def _write_replication_report(config: RunConfig, report, out: Path) -> None:
    """Side-by-side comparison against the published reference metrics."""
    reference = REFERENCE_METRICS.get(config.domain)
    computed = {**report.to_dict(), "n_communities": len(report.communities)}
    rows = {}
    for name in next(iter(REFERENCE_METRICS.values())):  # every domain compares these
        value = computed[name]
        ref = reference.get(name) if reference else None
        delta = None
        if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
            delta = round(value - ref, 6)
        rows[name] = {"computed": value, "reference": ref, "delta": delta}
    payload = {
        "domain": config.domain,
        "reference_available": reference is not None,
        "note": (
            "reference values describe the published datasets; matching them "
            "requires that data and its exact preprocessing conventions"
        ),
        "metrics": rows,
    }
    ingestmod.write_json(out / "replication_report.json", payload)


def cmd_run_all(args: argparse.Namespace, config: RunConfig) -> int:
    return run_all(config, replicate=args.replicate)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--domain", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-graph",
        description="Interaction-graph pipeline for post/comment dumps",
    )
    parser.add_argument(
        "--version", action="version", version=f"latent-graph {__version__} (python {sys.version.split()[0]})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw dumps into a stage-0 snapshot")
    _add_common(p)
    p.add_argument("--posts", required=True)
    p.add_argument("--comments", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="run filter stages 0..3")
    _add_common(p)
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--max-comments-per-post", dest="max_comments_per_post", type=int)
    p.add_argument("--min-interactions", dest="min_interactions", type=int)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("agents", help="cluster users into agent profiles")
    _add_common(p)
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--k", dest="k_agents", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--embeddings", dest="embeddings_path", default=None)
    p.add_argument("--lexicon", dest="lexicon_path", default=None)
    p.set_defaults(func=cmd_agents)

    p = sub.add_parser("infer", help="classify follow relations from events")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--window-days", dest="window_days", type=int, default=None)
    p.add_argument("--maybe-min", dest="maybe_min", type=int, default=None)
    p.add_argument("--forsure-min", dest="forsure_min", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--timeline", type=Path, default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("graph", help="graph operations")
    graph_sub = p.add_subparsers(dest="graph_command", required=True)
    g = graph_sub.add_parser("build", help="build and export the graph")
    _add_common(g)
    g.add_argument("--edges", required=True)
    g.add_argument("--class", dest="edge_class", choices=["all", "forsure", "maybe"], default="all")
    g.add_argument("--coverage", type=float, default=None)
    g.add_argument("--agents", default=None, help="agents.json for isolated nodes")
    g.add_argument("--out", type=_graph_path, required=True)
    g.set_defaults(func=cmd_graph)

    p = sub.add_parser("metrics", help="full structural metric report")
    _add_common(p)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("triads", help="triadic closure time series")
    _add_common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--interval-days", dest="interval_days", type=int, default=None)
    p.add_argument("--use-status-time", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_triads)

    p = sub.add_parser("chains", help="extract linear interaction chains")
    _add_common(p)
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--threshold", dest="sim_threshold", type=float, default=None)
    p.add_argument("--top", type=int, default=chainsmod.DEFAULT_TOP_K)
    p.add_argument("--agents", default=None)
    p.add_argument("--census-thresholds", type=_numbers, default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("sweep", help="parameter robustness sweep")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--windows", type=_numbers, default="7,30,90")
    p.add_argument("--maybe", type=_integers, default="2")
    p.add_argument("--forsure", type=_integers, default="2,3,4")
    p.add_argument("--coverage", dest="coverage_list", type=_numbers, default="0.0")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a config and list violations")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run-all", help="full pipeline from one config")
    _add_common(p)
    p.add_argument("--posts", dest="posts_path", default=None)
    p.add_argument("--comments", dest="comments_path", default=None)
    p.add_argument("--out", dest="out_dir", default=None)
    p.add_argument("--lexicon", dest="lexicon_path", default=None)
    p.add_argument("--embeddings", dest="embeddings_path", default=None)
    p.add_argument("--window-days", dest="window_days", type=int, default=None)
    p.add_argument("--maybe-min", dest="maybe_min", type=int, default=None)
    p.add_argument("--forsure-min", dest="forsure_min", type=int, default=None)
    p.add_argument("--coverage", type=float, default=None)
    p.add_argument("--sim-threshold", dest="sim_threshold", type=float, default=None)
    p.add_argument("--k-agents", dest="k_agents", type=int, default=None)
    p.add_argument("--level", choices=["agent", "user"], default=None)
    p.add_argument("--replicate", action="store_true",
                   help="emit a side-by-side report against published reference metrics")
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the config/usage code.
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_CONFIG if code else EXIT_OK
    try:
        config = _merge_config(args)
        if args.func is not cmd_validate:
            require_valid(config)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
