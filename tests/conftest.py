import functools

import pytest

from latentgraph.graph import InteractionGraph


@pytest.fixture
def projection_builds(monkeypatch):
    """The graphs whose ``InteractionGraph.projection`` is built, one entry per
    build, while the test runs."""
    built = []
    build = InteractionGraph.projection.func

    def counted(graph):
        built.append(graph)
        return build(graph)

    spy = functools.cached_property(counted)
    spy.__set_name__(InteractionGraph, "projection")
    monkeypatch.setattr(InteractionGraph, "projection", spy)
    return built
