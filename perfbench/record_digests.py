"""Record the digests that every benchmark run is checked against.

    python3 perfbench/record_digests.py

For every corpus seed in ``CORPUS_SEEDS`` this generates the corpus, runs the agent-level and
user-level pipelines and the agent-sweep re-analysis, each in a worker
process, and writes the sha256 of the inputs and of every byte-stable
artifact, and replaces ``digests.json`` with them once every seed is done.
Run it only on a commit whose outputs are the reference; when the outputs of
any seed fail another check, nothing is written.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

from common import CORPUS_SEEDS, DIGESTS_PATH, N_COMMENTS, N_POSTS, K_AGENTS, Ops
from run import OUT_DIR, run_worker


def record_seed(seed: int) -> dict:
    work = OUT_DIR / f"record-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--seed", str(seed), "--work", str(work)]
    try:
        setup = run_worker("setup", ["--workload", "agent-pipeline", *base], work / "setup.json")
        entry = {"inputs": setup["input_digests"]}
        # The agent-level run goes where agent-sweep reads its stored run.
        for workload, pass_dir in (("agent-pipeline", "stored"), ("user-pipeline", "user"),
                                   ("agent-sweep", "sweep")):
            res = run_worker("pass", ["--workload", workload, *base,
                                      "--pass-dir", str(work / pass_dir)],
                             work / f"{pass_dir}.json")
            if res is None:
                raise RuntimeError(f"seed {seed}: {workload} worker failed")
            problems = Ops(setup["ops"] + res["ops"]).problems()
            if problems:
                raise RuntimeError(f"seed {seed}: {workload}: {problems}")
            for group in res["digests"]:
                if None in group["files"].values():
                    raise RuntimeError(f"seed {seed}: {workload}: missing {group['files']}")
                entry.setdefault(group["ref"], {}).update(group["files"])
        return entry
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    seeds = {}
    for seed in CORPUS_SEEDS:
        seeds[str(seed)] = record_seed(seed)
        print(f"recorded corpus seed {seed}", file=sys.stderr)
    table = {
        "corpus": {"posts": N_POSTS, "comments": N_COMMENTS, "k_agents": K_AGENTS},
        "python": platform.python_version(),
        "seeds": seeds,
    }
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
