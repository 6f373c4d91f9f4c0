"""Shared machinery of the logical rewrite layer.

A rewrite pass is a semantics-preserving transformation of a
:class:`~repro.core.graph.ComputeGraph`: the rewritten graph computes the
same outputs (numerically, up to floating-point reassociation) but may have
fewer vertices, more sharing, or cheaper operations.  Passes are
*cost-model-guided*: a candidate rewrite is only applied when the cheapest
available implementation of the rewritten operations is predicted cheaper
than that of the originals.

Every pass is pure — it returns a fresh graph plus a :class:`PassReport`
describing what fired — so the pipeline can record, replay and serialize
what each stage did.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..atoms import AtomicOp
from ..graph import ComputeGraph
from ..registry import OptimizerContext
from ..types import MatrixType


@dataclass(frozen=True)
class PassReport:
    """What one rewrite pass did to one graph."""

    name: str
    rewrites: int
    vertices_before: int
    vertices_after: int
    details: tuple[str, ...] = ()

    @property
    def fired(self) -> bool:
        return self.rewrites > 0

    def to_dict(self) -> dict:
        return {"name": self.name, "rewrites": self.rewrites,
                "vertices_before": self.vertices_before,
                "vertices_after": self.vertices_after,
                "details": list(self.details)}

    @staticmethod
    def from_dict(payload: dict) -> "PassReport":
        return PassReport(payload["name"], payload["rewrites"],
                          payload["vertices_before"],
                          payload["vertices_after"],
                          tuple(payload.get("details", ())))


@dataclass(frozen=True)
class SaturationReport:
    """What one equality-saturation run did (the e-graph engine's analogue
    of the per-pass :class:`PassReport` sequence)."""

    #: Saturation iterations actually run (one = every rule once).
    iterations: int
    #: E-graph size when saturation stopped.
    e_nodes: int
    e_classes: int
    #: ``(rule name, effective merges)`` for every rule that fired,
    #: in rule-table order.
    rules_applied: tuple[tuple[str, int], ...] = ()
    #: True when a fixpoint was reached (no rule produced a new merge).
    saturated: bool = False
    #: Which budget stopped saturation early (``"iterations"``,
    #: ``"e_nodes"``, ``"e_classes"``), or None.
    budget_exhausted: str | None = None
    #: Catalog-estimated operator cost of the extracted term.
    extraction_cost: float = 0.0
    #: Wall-clock spent saturating + extracting (measured, never a limit).
    seconds: float = 0.0

    @property
    def total_rewrites(self) -> int:
        return sum(count for _, count in self.rules_applied)

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "e_nodes": self.e_nodes,
                "e_classes": self.e_classes,
                "rules_applied": [list(r) for r in self.rules_applied],
                "saturated": self.saturated,
                "budget_exhausted": self.budget_exhausted,
                "extraction_cost": self.extraction_cost,
                "seconds": self.seconds}

    @staticmethod
    def from_dict(payload: dict) -> "SaturationReport":
        return SaturationReport(
            payload["iterations"], payload["e_nodes"], payload["e_classes"],
            tuple((name, count)
                  for name, count in payload.get("rules_applied", ())),
            payload.get("saturated", False),
            payload.get("budget_exhausted"),
            payload.get("extraction_cost", 0.0),
            payload.get("seconds", 0.0))

    def describe(self) -> str:
        state = "saturated" if self.saturated else (
            f"budget: {self.budget_exhausted}"
            if self.budget_exhausted else "stopped")
        return (f"{self.iterations} iterations, {self.e_nodes} e-nodes in "
                f"{self.e_classes} e-classes ({state}), "
                f"extraction cost {self.extraction_cost:.3f}s")


@dataclass(frozen=True)
class PipelineReport:
    """Record of one logical-rewrite run — the ordered pass pipeline
    (``engine="pipeline"``, per-pass reports in ``passes``) or equality
    saturation (``engine="egraph"``, stats in ``saturation``)."""

    passes: tuple[PassReport, ...] = ()
    #: False when the physical optimizer found a fallback graph's best
    #: plan at least as cheap and the rewritten graph lost (see
    #: ``fallback`` for which candidate won).
    adopted: bool = True
    #: Which rewrite engine produced the graph this report describes.
    engine: str = "pipeline"
    #: Saturation statistics (``engine="egraph"`` only).
    saturation: SaturationReport | None = None
    #: When not adopted: the candidate that beat the rewritten graph
    #: (``"unrewritten"``, or ``"pipeline"`` for the egraph engine).
    fallback: str | None = None

    @property
    def fired(self) -> tuple[PassReport, ...]:
        return tuple(p for p in self.passes if p.fired)

    @property
    def total_rewrites(self) -> int:
        if self.saturation is not None:
            return self.saturation.total_rewrites
        return sum(p.rewrites for p in self.passes)

    def summary(self) -> str:
        """One-line rendering, e.g. ``cse(2), fuse(1)`` or
        ``egraph(14 rewrites, 3 iterations)``."""
        if not self.adopted:
            return "none"
        if self.saturation is not None:
            sat = self.saturation
            return (f"egraph({sat.total_rewrites} rewrites, "
                    f"{sat.iterations} iterations)")
        fired = self.fired
        if not fired:
            return "none"
        return ", ".join(f"{p.name}({p.rewrites})" for p in fired)

    def to_dict(self) -> dict:
        payload = {"passes": [p.to_dict() for p in self.passes],
                   "adopted": self.adopted,
                   "engine": self.engine}
        if self.saturation is not None:
            payload["saturation"] = self.saturation.to_dict()
        if self.fallback is not None:
            payload["fallback"] = self.fallback
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "PipelineReport":
        saturation = payload.get("saturation")
        return PipelineReport(
            tuple(PassReport.from_dict(p) for p in payload.get("passes", ())),
            payload.get("adopted", True),
            payload.get("engine", "pipeline"),
            SaturationReport.from_dict(saturation)
            if saturation is not None else None,
            payload.get("fallback"))


class RewritePass(ABC):
    """One semantics-preserving pass over a compute graph."""

    #: Stable pass name — the key used by the ``rewrites=`` knob.
    name: str

    @abstractmethod
    def apply(self, graph: ComputeGraph,
              ctx: OptimizerContext) -> tuple[ComputeGraph, PassReport]:
        """Rewrite ``graph``; return the new graph and a report."""

    def report(self, before: ComputeGraph, after: ComputeGraph,
               details: list[str]) -> PassReport:
        return PassReport(self.name, len(details), len(before), len(after),
                          tuple(details))


def op_cost(ctx: OptimizerContext, op: AtomicOp,
            in_types: tuple[MatrixType, ...]) -> float:
    """Cheapest implementation cost of ``op`` on ``in_types``.

    The estimate ignores edge transformations (which depend on physical
    choices the logical layer has not made yet); it is the guide rewrite
    passes use to compare candidate shapes of the same computation.
    Returns ``inf`` when no catalog implementation accepts the types.
    """
    patterns = ctx.accepted_patterns(op, tuple(in_types))
    if not patterns:
        return math.inf
    return min(cost for _, _, _, cost in patterns)


def plan_cost_bound(ctx: OptimizerContext, graph: ComputeGraph) -> float:
    """Σ :func:`op_cost` over ``graph``'s op vertices: a lower bound on the
    ``total_seconds`` of every plan any search finds for ``graph``.

    Every search (tree DP, frontier, brute force) labels a vertex with a
    pattern from ``accepted_patterns`` for that vertex's input types, and
    ``evaluate`` charges the chosen implementation's cost, which is at
    least ``op_cost``, plus transformation costs, which are never negative
    while the cost weights are not.  ``inf`` when some vertex has no
    accepted pattern.  The menus come from the context's memos, so on a
    graph about to be searched this enumerates nothing the search would
    not.
    """
    return sum(op_cost(ctx, v.op,
                       tuple(graph.vertex(p).mtype for p in v.inputs))
               for v in graph.vertices if not v.is_source)


@dataclass
class GraphRewriter:
    """Helper for passes that rebuild a graph vertex by vertex.

    Tracks the old-id -> new-id mapping, copies unaffected vertices
    verbatim, and re-marks outputs at the end.  ``skip`` vertices are not
    emitted (they must end up unused — the final ``pruned()`` pass drops
    anything a rewrite left dead).
    """

    source: ComputeGraph
    out: ComputeGraph = field(default_factory=ComputeGraph)
    mapping: dict[int, int] = field(default_factory=dict)

    def copy_vertex(self, vid: int) -> int:
        v = self.source.vertex(vid)
        if v.is_source:
            new = self.out.add_source(v.name, v.mtype, v.format)
        else:
            new = self.out.add_op(
                v.name, v.op, tuple(self.mapping[s] for s in v.inputs),
                param=v.param)
        self.mapping[vid] = new
        return new

    def finish(self) -> ComputeGraph:
        for v in self.source.outputs:
            self.out.mark_output(self.mapping[v.vid])
        return self.out.pruned()
