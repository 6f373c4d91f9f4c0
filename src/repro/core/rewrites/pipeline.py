"""The staged logical-rewrite pipeline.

``PlanPipeline`` runs an ordered, configurable sequence of semantics-
preserving passes over a compute graph before physical optimization.  The
``rewrites=`` knob of :func:`repro.core.optimizer.optimize` resolves here:
``"pipeline"`` (alias ``"all"``) is the default pass order, ``"off"``
(alias ``"none"``) is the empty pipeline, a tuple of pass names selects
(and orders) a subset, and ``"egraph"`` selects the equality-saturation
engine of :mod:`repro.core.egraph` instead of this pipeline.

The pass order is *derived* from the shared rule table
(:data:`repro.core.egraph.rules.RULE_TABLE`): every pass named there runs
here, in first-appearance order, so the two engines cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..egraph.rules import PIPELINE_PASS_ORDER
from ..graph import ComputeGraph
from ..registry import OptimizerContext
from .base import PipelineReport, RewritePass
from .chain import ReassociatePass
from .cse import CSEPass
from .fusion import FusionPass
from .pushdown import ScalarPushdownPass, TransposePushdownPass

PASS_REGISTRY: dict[str, type[RewritePass]] = {
    p.name: p for p in (CSEPass, TransposePushdownPass, ReassociatePass,
                        ScalarPushdownPass, FusionPass)
}

#: CSE first (it exposes sharing the other passes must respect), structure
#: rewrites in the middle, fusion last (fused atoms are opaque to the
#: structural passes).  Derived from the shared rule table.
DEFAULT_PASS_ORDER: tuple[str, ...] = PIPELINE_PASS_ORDER

if set(DEFAULT_PASS_ORDER) != set(PASS_REGISTRY):  # pragma: no cover
    raise ImportError(
        f"rule table names passes {sorted(DEFAULT_PASS_ORDER)} but the "
        f"registry implements {sorted(PASS_REGISTRY)}: the shared rule "
        "table and the pass registry drifted apart")

RewriteSpec = str | Iterable[str]

#: Engine spellings of the ``rewrites=`` knob.
ENGINES = ("pipeline", "egraph", "off")


def resolve_engine(spec: RewriteSpec) -> tuple[str, RewriteSpec]:
    """Classify a ``rewrites=`` knob value as ``(engine, pipeline spec)``.

    ``engine`` is ``"egraph"``, ``"pipeline"`` or ``"off"``; for the
    pipeline engine the second element is the spec ``resolve_passes``
    should run (``"egraph"`` has no pass spec and returns ``"none"``).
    """
    if spec == "egraph":
        return "egraph", "none"
    if spec in ("pipeline", "all"):
        return "pipeline", "all"
    if spec in ("off", "none"):
        return "off", "none"
    if isinstance(spec, str):
        raise ValueError(
            f"rewrites must be 'pipeline'/'all', 'egraph', 'off'/'none' "
            f"or pass names, got {spec!r}")
    try:
        names = tuple(spec)
    except TypeError:
        raise ValueError(
            f"rewrites must be 'pipeline'/'all', 'egraph', 'off'/'none' "
            f"or an iterable of pass names, got {spec!r}") from None
    return ("off" if not names else "pipeline"), names


def validate_rewrites(spec: RewriteSpec) -> str:
    """Eagerly validate a ``rewrites=`` knob value; returns the engine.

    ``resolve_scheduler`` rejects unknown names at call time; this gives
    ``rewrites=`` the same contract (the planning entry points call it
    through :func:`repro.core.optimizer.validate_knobs`).  Raises
    :class:`ValueError` for unrecognized engine strings, non-iterable
    values, and unknown pass names — *before* any search runs, so a typo
    cannot silently plan without rewrites.
    """
    engine, pipeline_spec = resolve_engine(spec)
    if engine == "pipeline":
        resolve_passes(pipeline_spec)
    return engine


def resolve_passes(spec: RewriteSpec) -> tuple[RewritePass, ...]:
    """Turn a ``rewrites=`` knob value into pipeline pass instances."""
    engine, spec = resolve_engine(spec)
    if engine == "egraph":
        raise ValueError(
            "rewrites='egraph' selects the saturation engine and has no "
            "pass sequence; use resolve_engine() to dispatch")
    if spec == "all":
        names: tuple[str, ...] = DEFAULT_PASS_ORDER
    elif spec == "none":
        names = ()
    else:
        names = tuple(spec)
    unknown = [n for n in names if n not in PASS_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown rewrite pass(es) {unknown}; "
            f"known: {sorted(PASS_REGISTRY)}")
    return tuple(PASS_REGISTRY[n]() for n in names)


@dataclass
class PlanPipeline:
    """An ordered sequence of rewrite passes with a run record."""

    passes: tuple[RewritePass, ...] = field(
        default_factory=lambda: resolve_passes("all"))

    @staticmethod
    def from_spec(spec: RewriteSpec) -> "PlanPipeline":
        return PlanPipeline(resolve_passes(spec))

    def run(self, graph: ComputeGraph, ctx: OptimizerContext,
            tracer=None) -> tuple[ComputeGraph, PipelineReport]:
        """Apply every pass in order; returns (graph, per-pass report).

        With a ``tracer``, each pass records a ``pass`` span carrying its
        rewrite count and vertex delta (see :mod:`repro.obs.tracer`).
        """
        from ...obs.tracer import as_tracer

        tracer = as_tracer(tracer)
        reports = []
        for rewrite_pass in self.passes:
            with tracer.span(f"pass:{rewrite_pass.name}",
                             kind="pass") as span:
                graph, report = rewrite_pass.apply(graph, ctx)
                span.set(rewrites=report.rewrites,
                         vertices_before=report.vertices_before,
                         vertices_after=report.vertices_after)
            reports.append(report)
        return graph, PipelineReport(tuple(reports))
