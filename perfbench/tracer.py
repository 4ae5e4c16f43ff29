"""Span recorder for the traced run.

Spans are recorded from outside the program: ``Tracer.install`` replaces each
wrapped public function in every ``latentgraph`` namespace that holds it, so a
caller that imported the function by name (``temporal.infer_all``) is traced
as well as one that looks it up on its module (``inference.infer_all``).
Spans stay in memory and are written once, when the pass ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.  The pass itself is the root span, so the self times of
all spans add up to the traced pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = "pass"

# (module, function) pairs wrapped in a traced pass, in report order.
LAYER_FUNCTIONS = (
    ("ingest", "load_dump"),
    ("ingest", "run_pipeline"),
    ("ingest", "write_stages"),
    ("ingest", "latest_stage_records"),
    ("profiles", "build_user_vectors"),
    ("profiles", "cluster_users"),
    ("profiles", "enrich"),
    ("inference", "extract_events"),
    ("inference", "infer_all"),
    ("graph", "build"),
    ("graph", "apply_coverage"),
    ("graph", "write_graphml"),
    ("metrics", "full_report"),
    ("metrics", "communities"),
    ("temporal", "sweep"),
    ("temporal", "snapshot_series"),
    ("temporal", "triad_series"),
    ("chains", "extract_chains"),
    ("chains", "connect"),
    ("chains", "linearize"),
    ("chains", "chain_census"),
    ("cli", "run_all"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS)
SPAN_FIELDS = ("calls", "wall_s", "self_s", "cpu_s", "wait_s")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Counters:
    """Counts read from return values and artifacts at span boundaries."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)

    def get(self, key: str) -> float:
        return self.values.get(key, 0)


def _observe(name: str, parent: str | None, args: tuple, kwargs: dict, result,
             counters: Counters) -> None:
    """Accumulate the counts behind the per-layer ratios; ``parent`` is the
    name of the span that called ``name``."""
    # The program is imported here, not at the top: run.py imports this
    # module for the metric names before it has checked that the program exists.
    if name == "ingest.load_dump":
        records, skipped = result
        counters.add("load_dump.records", len(records))
        counters.add("load_dump.skipped", skipped)
    elif name == "ingest.run_pipeline":
        counters.add("run_pipeline.in", result[0].total)
        counters.add("run_pipeline.out", result[-1].total)
    elif name == "ingest.write_stages":
        from latentgraph import ingest

        out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
        for snap in args[0]:
            for path in (ingest.records_path(out, snap.stage_id),
                         ingest.manifest_path(out, snap.stage_id)):
                counters.add("write_stages.bytes", path.stat().st_size)
    elif name == "inference.extract_events":
        comments = args[1] if len(args) > 1 else kwargs["comments"]
        _, stats = result
        counters.add("extract_events.comments", len(comments))
        counters.add("extract_events.orphans", stats.orphans)
        counters.add("extract_events.self_replies", stats.self_replies)
    elif name == "inference.infer_all":
        counters.add("infer_all.pairs", len(result))
        from latentgraph.inference import FollowStatus

        counters.add("infer_all.follows",
                     sum(1 for e in result if e.status is not FollowStatus.NONE))
    elif name == "graph.apply_coverage":
        graph = args[0] if args else kwargs["graph"]
        counters.add("apply_coverage.weight_in", graph.total_weight())
        counters.add("apply_coverage.weight_out", result.total_weight())
    elif name == "metrics.communities":
        graph = args[0] if args else kwargs["graph"]
        counters.maximum("communities.max_nodes", graph.node_count)
    elif name == "temporal.sweep":
        counters.add("sweep.cells", len(result.cells))
    elif name == "chains.extract_chains":
        selected, manifest = result
        counters.add("extract_chains.kept", len(selected))
        counters.add("extract_chains.total", manifest["chains_total"])
    elif name == "chains.connect" and parent == "chains.extract_chains":
        # chain_census connects the same threads again at each census
        # threshold; only the extraction's comparisons are counted, so the
        # figure is the sum of n(n-1)/2 over group_threads.
        thread = args[0] if args else kwargs["thread"]
        n = len(thread.records)
        counters.add("connect.comparisons", n * (n - 1) // 2)
        counters.add("connect.edges", result.edge_count)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(),
                    cpu_start=time.process_time())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.cpu_end = time.process_time()
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _maxrss_mb() if name == "chains.extract_chains" else 0.0
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if name == "chains.extract_chains":
                tracer.counters.maximum("extract_chains.peak_rss_growth_mb",
                                        _maxrss_mb() - rss_before)
            parent = None if span.parent is None else tracer.spans[span.parent].name
            _observe(name, parent, args, kwargs, result, tracer.counters)
            return result

        return traced

    def install(self) -> None:
        """Replace each wrapped function in every namespace that holds it."""
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"latentgraph.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for name, module in list(sys.modules.items()):
                if name != "latentgraph" and not name.startswith("latentgraph."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "cpu": s.cpu}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: Counters) -> dict[str, float]:
    """Per-function calls and times, the ratios, and the root's self time."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s.name == name]
        wall = sum(s.duration for s in mine)
        cpu = sum(s.cpu for s in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.wall_s"] = wall
        out[f"{name}.self_s"] = sum(own[s.id] for s in mine)
        out[f"{name}.cpu_s"] = cpu
        out[f"{name}.wait_s"] = wall - cpu
    c = counters.get
    out["ingest.load_dump.skipped_ratio"] = _ratio(
        c("load_dump.skipped"), c("load_dump.records") + c("load_dump.skipped"))
    out["ingest.run_pipeline.kept_ratio"] = _ratio(c("run_pipeline.out"), c("run_pipeline.in"))
    out["ingest.write_stages.bytes"] = c("write_stages.bytes")
    out["inference.extract_events.orphan_ratio"] = _ratio(
        c("extract_events.orphans"), c("extract_events.comments"))
    out["inference.extract_events.self_reply_ratio"] = _ratio(
        c("extract_events.self_replies"), c("extract_events.comments"))
    out["inference.infer_all.pairs"] = c("infer_all.pairs")
    out["inference.infer_all.follow_ratio"] = _ratio(c("infer_all.follows"), c("infer_all.pairs"))
    out["graph.apply_coverage.weight_kept_ratio"] = _ratio(
        c("apply_coverage.weight_out"), c("apply_coverage.weight_in"))
    out["metrics.communities.max_nodes"] = c("communities.max_nodes")
    out["temporal.sweep.cells"] = c("sweep.cells")
    out["chains.extract_chains.peak_rss_growth_mb"] = c("extract_chains.peak_rss_growth_mb")
    out["chains.connect.comparisons"] = c("connect.comparisons")
    out["chains.connect.edge_ratio"] = _ratio(c("connect.edges"), c("connect.comparisons"))
    out["chains.kept_ratio"] = _ratio(c("extract_chains.kept"), c("extract_chains.total"))
    roots = [s for s in spans if s.name == ROOT]
    out["pass.self_s"] = sum(own[s.id] for s in roots)
    return out
