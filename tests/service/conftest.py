"""Shared fixtures for the planner-service tests."""

import pytest


@pytest.fixture
def rewrite_calls(monkeypatch):
    """Graphs handed to ``rewrite_stage``, wherever it is called from.

    The planner service, the batch optimizer and ``optimize`` each import
    the stage by name, so all three bindings are replaced.
    """
    from repro.core import batch as batch_mod
    from repro.core import optimizer as optimizer_mod
    from repro.service import planner as planner_mod

    calls = []
    real = optimizer_mod.rewrite_stage

    def counting(graph, *args, **kwargs):
        calls.append(graph)
        return real(graph, *args, **kwargs)

    for module in (optimizer_mod, batch_mod, planner_mod):
        monkeypatch.setattr(module, "rewrite_stage", counting)
    return calls
