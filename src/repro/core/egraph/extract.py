"""Catalog-cost-guided extraction of the cheapest represented term.

After saturation, every e-class holds several equivalent e-nodes; the
extractor picks one per class so the resulting term is cheapest under the
catalog cost model — the same per-op estimate
(:func:`repro.core.rewrites.base.op_cost`: cheapest accepted implementation,
transformations excluded) that guides the ordered pipeline, so the two
engines rank candidate shapes identically.

Selection is the standard bottom-up fixpoint: a class's best cost is the
minimum over its e-nodes of (own op cost + chosen children's best costs),
iterated until no class improves.  Sharing is intentionally counted once
per class (a DAG property the physical search prices exactly later); the
never-worse fallback in ``physical_plan`` catches any case where this
estimate misranks candidates.

Determinism: classes are visited in ascending canonical id, e-nodes in
insertion order, and ties keep the earliest candidate — extraction is a
pure function of the rule-application sequence, never of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math

from ..atoms import atom_by_name
from ..graph import ComputeGraph
from ..registry import OptimizerContext
from ..rewrites.base import op_cost
from .egraph import EGraph, EGraphError, ENode


def extract(eg: EGraph, ctx: OptimizerContext
            ) -> tuple[ComputeGraph, float]:
    """Extract the cheapest graph the e-graph represents.

    Returns the rebuilt :class:`~repro.core.graph.ComputeGraph` (types
    re-inferred through ``add_op``, declared outputs re-marked) and its
    total estimated operator cost, counting each shared class once.
    """
    own_costs: dict[ENode, float] = {}
    best = _best_nodes(eg, ctx, own_costs)
    out = ComputeGraph()
    memo: dict[int, int] = {}
    used_names: set[str] = set()
    total = 0.0
    for root, _name in eg.roots:
        total += _emit(eg, eg.find(root), best, ctx, own_costs, out, memo,
                       used_names)
        out.mark_output(memo[eg.find(root)])
    return out, total


def _own_cost(eg: EGraph, ctx: OptimizerContext, node: ENode,
              own_costs: dict[ENode, float]) -> float:
    """The op cost of ``node`` itself, priced once per extraction.

    It depends only on the op and the child classes' types, which
    extraction never changes, so ``own_costs`` (local to one
    :func:`extract` call) keeps it however many fixpoint sweeps ask.
    """
    own = own_costs.get(node)
    if own is None:
        in_types = tuple(eg.class_of(child).mtype for child in node.children)
        own = own_costs[node] = op_cost(ctx, atom_by_name(node.op),
                                        in_types)
    return own


def _node_cost(eg: EGraph, ctx: OptimizerContext, node: ENode,
               best: dict[int, tuple[float, ENode | None]],
               own_costs: dict[ENode, float]) -> float:
    """Own op cost + children's best costs, or inf when not yet computable."""
    children_cost = 0.0
    for child in node.children:
        entry = best.get(eg.find(child))
        if entry is None:
            return math.inf
        children_cost += entry[0]
    return _own_cost(eg, ctx, node, own_costs) + children_cost


def _best_nodes(eg: EGraph, ctx: OptimizerContext,
                own_costs: dict[ENode, float]
                ) -> dict[int, tuple[float, ENode | None]]:
    """Per-class ``(best cost, chosen e-node)`` via bottom-up fixpoint.

    ``None`` marks a source leaf (cost 0 — inputs are given).  Costs only
    decrease across sweeps, so the loop terminates; classes left at inf
    (possible only under exotic catalogs with no accepted implementation)
    simply keep their seed term.
    """
    best: dict[int, tuple[float, ENode | None]] = {}
    for cid in eg.class_ids():
        if eg.class_of(cid).source is not None:
            best[cid] = (0.0, None)
    changed = True
    while changed:
        changed = False
        for cid in eg.class_ids():
            if eg.class_of(cid).source is not None:
                continue
            current = best.get(cid, (math.inf, None))[0]
            for node in eg.nodes_of(cid):
                if node.is_source:
                    continue
                cost = _node_cost(eg, ctx, node, best, own_costs)
                if cost < current:
                    best[cid] = (cost, node)
                    current = cost
                    changed = True
    # Classes stuck at inf (no catalog implementation accepts some op)
    # fall back to their first-inserted e-node: for seeded classes that is
    # the original graph's operator, so extraction degrades to the seed
    # term exactly where the physical search would also price inf.
    for cid in eg.class_ids():
        if cid in best:
            continue
        for node in eg.nodes_of(cid):
            if not node.is_source:
                best[cid] = (math.inf, node)
                break
    return best


def _emit(eg: EGraph, cid: int,
          best: dict[int, tuple[float, ENode | None]],
          ctx: OptimizerContext, own_costs: dict[ENode, float],
          out: ComputeGraph, memo: dict[int, int],
          used_names: set[str]) -> float:
    """Rebuild the chosen term for class ``cid``; returns the summed op
    cost of every class newly emitted under it (shared classes charged on
    first emission only)."""
    cid = eg.find(cid)
    if cid in memo:
        return 0.0
    cls = eg.class_of(cid)
    entry = best.get(cid)
    if entry is None:
        raise EGraphError(
            f"e-class {cid} has no extractable term (cyclic class with no "
            "seed node)")
    cost, node = entry
    if node is None:
        name, mtype, fmt = cls.source
        memo[cid] = out.add_source(name, mtype, fmt)
        return 0.0
    emitted = 0.0
    for child in node.children:
        emitted += _emit(eg, eg.find(child), best, ctx, own_costs, out, memo,
                         used_names)
    name = cls.name or f"e{cid}"
    if name in used_names:
        name = f"{name}~{cid}"
    used_names.add(name)
    children = tuple(memo[eg.find(c)] for c in node.children)
    memo[cid] = out.add_op(name, atom_by_name(node.op), children,
                           param=node.param)
    own = _own_cost(eg, ctx, node, own_costs)
    return emitted + (own if math.isfinite(own) else 0.0)
