"""The benchmark's agent-sweep pass calls the program through
``perfbench/worker.py``; no other test takes that call path, so a change to
``latest_stage_records``, ``extract_events``, ``sweep``, ``snapshot_series``,
``load_edges_csv`` or ``triad_series`` that broke it would otherwise show
only when the benchmark runs.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from latentgraph import cli
from latentgraph.config import default_config
from latentgraph.synthetic import make_synthetic_dump

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py loaded by path, with perfbench/ on sys.path for its
    own imports; the modules it imports by bare name go when the test ends."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in ("common", "tracer"):
            sys.modules.pop(name, None)


def test_sweep_pass_runs_on_a_stored_agent_level_run(worker, tmp_path):
    posts, comments = make_synthetic_dump(200, 1200, seed=1).write_dumps(tmp_path / "corpus")
    config = replace(default_config(), k_agents=3, level="agent", posts_path=str(posts),
                     comments_path=str(comments), out_dir=str(tmp_path / "stored"))
    assert cli.run_all(config) == 0
    ops = worker.Ops()
    worker.sweep_body(0, tmp_path, tmp_path / "out", ops)
    assert ops.attempted > 0 and ops.failed == 0, ops.problems()
