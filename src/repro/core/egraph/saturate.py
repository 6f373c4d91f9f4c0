"""Budgeted equality saturation over a compute graph.

:func:`saturate_graph` seeds an :class:`~repro.core.egraph.EGraph` from a
:class:`~repro.core.graph.ComputeGraph`, applies every rule in the shared
:data:`~repro.core.egraph.rules.RULE_TABLE` until a fixpoint (no rule
produces a new merge) or a :class:`SaturationBudget` runs out, then hands
the e-graph to the catalog-cost-guided extractor and returns the cheapest
represented graph plus a
:class:`~repro.core.rewrites.base.SaturationReport`.

Budgets make saturation total: associativity and distributivity are
productive rules that can grow the e-graph combinatorially on long matmul
chains, so the loop is bounded by iterations, e-nodes and e-classes.  Every
budget counts work, none reads a clock, so where saturation stops is a pure
function of the graph and the budget.  Stopping early is always safe — the
seed term is never removed, so extraction can at worst return the original
graph.

The default budget is part of the engine's observable behaviour: bump
:data:`~repro.core.egraph.rules.RULESET_VERSION` when changing it, so plan
caches never serve plans across budget revisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ...obs.tracer import NULL_TRACER, Tracer, as_tracer
from ..graph import ComputeGraph
from ..registry import OptimizerContext
from ..rewrites.base import SaturationReport
from .egraph import EGraph
from .extract import extract
from .rules import RULE_TABLE, Done


@dataclass(frozen=True)
class SaturationBudget:
    """Stop conditions for the saturation loop.

    ``max_e_nodes`` is the e-node cap :meth:`EGraph.add_op` enforces: the
    loop ends after the rebuild that follows the first rule sweep in which
    the cap refused a new e-node.  ``max_e_classes`` is checked before the
    first iteration and after every rule sweep.
    """

    max_iterations: int = 8
    max_e_nodes: int = 5_000
    max_e_classes: int = 2_500


#: Budget used by ``optimize(rewrites="egraph")``.
DEFAULT_BUDGET = SaturationBudget()


def saturate(eg: EGraph, budget: SaturationBudget = DEFAULT_BUDGET,
             tracer: Tracer = NULL_TRACER
             ) -> tuple[int, dict[str, int], bool, str | None]:
    """Run the rule loop on ``eg`` in place.

    Returns ``(iterations, per-rule merge counts, saturated,
    budget_exhausted)``.  Rules run in table order within an iteration and
    the e-graph is rebuilt (congruence closure restored) after each rule,
    so the merge sequence is deterministic.  Each rule keeps its record of
    matches applied in full for the whole run (see
    :mod:`repro.core.egraph.rules`).
    """
    applied: dict[str, int] = {}
    done: dict[str, Done] = {rule.name: {} for rule in RULE_TABLE}
    saturated = False
    exhausted: str | None = None
    iterations = 0
    # The node cap is enforced inside add_op: a budget checked between
    # rules alone cannot stop one explosive rule sweep (associativity on a
    # deep matmul DAG can otherwise add hundreds of thousands of nodes in
    # one scan).
    eg.growth_limit = budget.max_e_nodes
    with tracer.span("egraph:saturate", kind="egraph") as span:
        while iterations < budget.max_iterations:
            if eg.n_classes >= budget.max_e_classes:
                exhausted = "e_classes"
                break
            iterations += 1
            round_total = 0
            for rule in RULE_TABLE:
                refused = eg.refused
                count = rule.apply(eg, done[rule.name])
                eg.rebuild()
                if count:
                    applied[rule.name] = applied.get(rule.name, 0) + count
                    round_total += count
                if eg.refused != refused:
                    exhausted = "e_nodes"
                elif eg.n_classes >= budget.max_e_classes:
                    exhausted = "e_classes"
                if exhausted:
                    break
            if exhausted:
                break
            if round_total == 0:
                saturated = True
                break
        else:
            exhausted = "iterations"
        span.set(iterations=iterations, e_nodes=eg.n_nodes,
                 e_classes=eg.n_classes, saturated=saturated,
                 budget_exhausted=exhausted or "")
    eg.growth_limit = None
    return iterations, applied, saturated, exhausted


def saturate_graph(graph: ComputeGraph, ctx: OptimizerContext,
                   budget: SaturationBudget = DEFAULT_BUDGET,
                   tracer: Tracer | None = None
                   ) -> tuple[ComputeGraph, SaturationReport]:
    """Saturate ``graph`` and extract the catalog-cheapest equivalent.

    The returned report records e-graph size, per-rule merge counts (with
    hash-consing CSE charged to the ``cse`` table entry), whether a
    fixpoint or a budget ended saturation, and the extracted term's
    estimated operator cost.
    """
    tracer = as_tracer(tracer)
    started = time.perf_counter()
    eg = EGraph.from_graph(graph)
    iterations, applied, saturated, exhausted = saturate(
        eg, budget, tracer)
    if eg.cse_merges:
        applied["cse"] = applied.get("cse", 0) + eg.cse_merges
    with tracer.span("egraph:extract", kind="egraph") as span:
        extracted, cost = extract(eg, ctx)
        span.set(cost=cost, vertices=len(extracted))
    rules_applied = tuple(
        (rule.name, applied[rule.name])
        for rule in RULE_TABLE if rule.name in applied)
    report = SaturationReport(
        iterations=iterations, e_nodes=eg.n_nodes, e_classes=eg.n_classes,
        rules_applied=rules_applied, saturated=saturated,
        budget_exhausted=exhausted, extraction_cost=cost,
        seconds=time.perf_counter() - started)
    return extracted, report
