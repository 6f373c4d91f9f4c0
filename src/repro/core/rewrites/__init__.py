"""Logical rewrite layer: cost-guided, semantics-preserving graph passes
that run between ``lang`` graph construction and physical optimization.

The ordered pass pipeline here is one of two rewrite engines; the other is
the equality-saturation engine in :mod:`repro.core.egraph`.  Both draw
their identities from the shared rule table
(:data:`repro.core.egraph.rules.RULE_TABLE`) and are selected by the
``rewrites=`` knob (see :func:`repro.core.optimizer.optimize`).
"""

from .base import GraphRewriter, PassReport, PipelineReport, RewritePass, \
    SaturationReport, op_cost, plan_cost_bound
from .chain import ReassociatePass
from .cse import CSEPass, structural_cse
from .fusion import FusionPass
from .pipeline import DEFAULT_PASS_ORDER, ENGINES, PASS_REGISTRY, \
    PlanPipeline, RewriteSpec, resolve_engine, resolve_passes, validate_rewrites
from .pushdown import ScalarPushdownPass, TransposePushdownPass

__all__ = [
    "CSEPass",
    "DEFAULT_PASS_ORDER",
    "ENGINES",
    "FusionPass",
    "GraphRewriter",
    "PASS_REGISTRY",
    "PassReport",
    "PipelineReport",
    "PlanPipeline",
    "ReassociatePass",
    "RewritePass",
    "RewriteSpec",
    "SaturationReport",
    "ScalarPushdownPass",
    "TransposePushdownPass",
    "op_cost",
    "plan_cost_bound",
    "resolve_engine",
    "resolve_passes",
    "validate_rewrites",
    "structural_cse",
]
