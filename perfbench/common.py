"""Constants, digests and result checks shared by the benchmark scripts.

Nothing here imports the program, so the orchestrating process stays small;
the program runs only in worker processes.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

WORKLOADS = ("agent-pipeline", "user-pipeline", "agent-sweep")
# Level of the cli.run_all call a pipeline workload times.  agent-sweep
# makes an agent-level run during set-up and reads it back in every pass.
RUN_LEVEL = {"agent-pipeline": "agent", "user-pipeline": "user"}

N_POSTS = 10_000
N_COMMENTS = 60_000
K_AGENTS = 12
# Generator seeds whose artifact digests are recorded in digests.json; the
# --seed argument picks one of them, so every run can be checked byte for
# byte against the output of the seed commit.
CORPUS_SEEDS = tuple(range(10))
SETUP_REPEATS = 3

# Artifacts whose bytes do not change between runs.  Stage snapshots are
# left out on purpose: their format is expected to change.
RUN_ARTIFACTS = (
    "agents.json",
    "events.jsonl",
    "edges.csv",
    "timeline.csv",
    "graph.graphml",
    "graph.edges.csv",
    "metrics.json",
    "triads.csv",
    "chains.jsonl",
    "census.csv",
)

SWEEP_GRID = {
    "window_days_list": (7.0, 14.0, 30.0, 60.0, 90.0),
    "maybe_min_list": (1, 2),
    "forsure_min_list": (2, 3, 4),
    "coverage_list": (0.0, 0.0001, 0.001),
}
SWEEP_CELLS = 5 * 2 * 3 * 3
SNAPSHOT_CUTOFFS = 24
SNAPSHOT_STEP_DAYS = 30


def corpus_seed(seed: int) -> int:
    return CORPUS_SEEDS[seed % len(CORPUS_SEEDS)]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_reference(path: Path = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest_problems(found: dict[str, str | None], expected: dict[str, str] | None) -> list[str]:
    """Artifacts missing (``None`` in ``found``) or with other bytes than recorded."""
    if expected is None:
        return ["no recorded digests for this corpus seed"]
    problems = []
    for name, sha in sorted(found.items()):
        want = expected.get(name)
        if sha is None:
            problems.append(f"{name}: missing")
        elif want is None:
            problems.append(f"{name}: no recorded digest")
        elif sha != want:
            problems.append(f"{name}: sha256 {sha[:12]} != recorded {want[:12]}")
    return problems


class Ops:
    """Operations attempted and the problems found with each.

    An operation is one call into a public function of the program.  It
    fails when it raises, returns a failure code, or when a check of its
    output finds a problem.
    """

    def __init__(self, items: list | None = None) -> None:
        self.items: list[list] = items if items is not None else []

    def attempt(self, name: str) -> None:
        self.items.append([name, []])

    def check(self, name: str, problems: list[str]) -> None:
        """Attach problems to the most recent operation called ``name``, or
        count them as one more failed operation when there is none."""
        for item in reversed(self.items):
            if item[0] == name:
                item[1].extend(problems)
                return
        if problems:
            self.items.append([name, list(problems)])

    def merge(self, other: "Ops") -> None:
        self.items.extend(other.items)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.items if problems)

    def problems(self) -> list[str]:
        return [f"{name}: {p}" for name, problems in self.items for p in problems]


def check_reference_digests(ops: Ops, digest_groups: list[dict], reference: dict | None) -> None:
    """Compare artifact digests reported by a worker with the recorded ones."""
    for group in digest_groups:
        expected = None if reference is None else reference.get(group["ref"])
        ops.check(group["op"], digest_problems(group["files"], expected))


def timing_summary(values: list[float]) -> dict:
    """Median plus the highest percentile the sample count supports.

    A percentile is supported when at least ten samples lie beyond it; with
    fewer samples the maximum is given instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered)}
    for permille in (999, 990, 900):
        if n * (1000 - permille) >= 10 * 1000:
            cuts = statistics.quantiles(ordered, n=1000, method="inclusive")
            summary[f"p{permille / 10:g}"] = cuts[permille - 1]
            break
    else:
        summary["max"] = ordered[-1]
    return summary


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons two result files may not be compared; empty when they may."""
    reasons = []
    for key in ("workload", "corpus_seed", "trace"):
        if a.get(key) != b.get(key):
            reasons.append(f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    if a.get("input_digests") != b.get("input_digests"):
        reasons.append("input digests differ: the generated corpus is not the same")
    return reasons
