"""The benchmark's tracer wraps program functions by name; they must exist.

A rename in ``latentgraph`` would otherwise leave ``perfbench/run.py --trace 1``
failing only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.LAYER_FUNCTIONS
    missing = [
        f"{mod}.{fn}"
        for mod, fn in tracer.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"latentgraph.{mod}"), fn, None))
    ]
    assert missing == []
