"""Plan serialization: annotated plans to/from JSON-compatible dicts.

A production deployment caches optimized plans (planning a 57-vertex FFNN
takes seconds) and ships them to the execution engine; this module provides
the stable wire format.  Implementations and transformations are referenced
by catalog name, formats by a structural descriptor, and the graph by its
construction order — so a deserialized plan is bit-identical in cost under
the same :class:`OptimizerContext`.
"""

from __future__ import annotations

import json
from typing import Any

import dataclasses

from .annotation import Annotation, Plan, make_plan
from .atoms import atom_by_name
from .formats import Layout, PhysicalFormat
from .graph import ComputeGraph, Edge
from .implementations import DEFAULT_IMPLEMENTATIONS, fused_impl_by_name
from .profile import OptimizerProfile
from .registry import OptimizerContext
from .rewrites import PipelineReport
from .transforms import DEFAULT_TRANSFORMS
from .types import MatrixType


class SerializationError(ValueError):
    """Raised when a plan payload does not round-trip."""


# ----------------------------------------------------------------------
# Formats and types
# ----------------------------------------------------------------------
def format_to_dict(fmt: PhysicalFormat) -> dict[str, Any]:
    return {"layout": fmt.layout.value, "block_rows": fmt.block_rows,
            "block_cols": fmt.block_cols}


def format_from_dict(payload: dict[str, Any]) -> PhysicalFormat:
    """Rebuild a format; any malformed payload raises
    :class:`SerializationError`."""
    if not isinstance(payload, dict):
        raise SerializationError(f"bad format payload {payload!r}")
    try:
        return PhysicalFormat(Layout(payload["layout"]),
                              payload.get("block_rows"),
                              payload.get("block_cols"))
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad format payload {payload!r}") from exc


def type_to_dict(mtype: MatrixType) -> dict[str, Any]:
    return {"dims": list(mtype.dims), "sparsity": mtype.sparsity}


def type_from_dict(payload: dict[str, Any]) -> MatrixType:
    """Rebuild a matrix type; any malformed payload raises
    :class:`SerializationError`."""
    if not isinstance(payload, dict):
        raise SerializationError(f"bad type payload {payload!r}")
    try:
        # TypeError: ``dims`` is not iterable.
        return MatrixType(tuple(payload["dims"]),
                          payload.get("sparsity", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad type payload {payload!r}") from exc


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def graph_to_dict(graph: ComputeGraph) -> dict[str, Any]:
    vertices = []
    for v in graph.vertices:
        entry: dict[str, Any] = {"vid": v.vid, "name": v.name,
                                 "type": type_to_dict(v.mtype)}
        if v.is_source:
            entry["format"] = format_to_dict(v.format)
        else:
            entry["op"] = v.op.name
            entry["inputs"] = list(v.inputs)
            if v.param is not None:
                entry["param"] = v.param
        vertices.append(entry)
    return {"vertices": vertices,
            "outputs": [v.vid for v in graph.outputs]}


def graph_from_dict(payload: dict[str, Any]) -> ComputeGraph:
    graph = ComputeGraph()
    remap: dict[int, int] = {}
    for entry in payload["vertices"]:
        mtype = type_from_dict(entry["type"])
        if "op" in entry:
            vid = graph.add_op(
                entry["name"], atom_by_name(entry["op"]),
                tuple(remap[i] for i in entry["inputs"]),
                param=entry.get("param"))
        else:
            vid = graph.add_source(entry["name"], mtype,
                                   format_from_dict(entry["format"]))
        remap[entry["vid"]] = vid
    for out in payload.get("outputs", []):
        graph.mark_output(remap[out])
    return graph


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
_IMPL_BY_NAME = {impl.name: impl for impl in DEFAULT_IMPLEMENTATIONS}
_TRANSFORM_BY_NAME = {t.name: t for t in DEFAULT_TRANSFORMS}


def plan_to_dict(plan: Plan) -> dict[str, Any]:
    """Serialize a plan (graph + annotation + provenance)."""
    annotation = plan.annotation
    payload = {
        "graph": graph_to_dict(plan.graph),
        "impls": {str(vid): impl.name
                  for vid, impl in annotation.impls.items()},
        "transforms": [
            {"src": e.src, "dst": e.dst, "arg_pos": e.arg_pos,
             "transform": t.name, "to_format": format_to_dict(fmt)}
            for e, (t, fmt) in annotation.transforms.items()],
        "optimizer": plan.optimizer,
        "optimize_seconds": plan.optimize_seconds,
    }
    if plan.pipeline is not None:
        payload["pipeline"] = plan.pipeline.to_dict()
    if plan.profile is not None:
        payload["profile"] = plan.profile.to_dict()
    return payload


def plan_from_dict(payload: dict[str, Any],
                   ctx: OptimizerContext) -> Plan:
    """Rebuild (and re-validate) a plan under the given context."""
    graph = graph_from_dict(payload["graph"])
    annotation = Annotation()
    for vid_text, impl_name in payload["impls"].items():
        impl = _IMPL_BY_NAME.get(impl_name)
        if impl is None and impl_name.startswith("fused_"):
            try:
                impl = fused_impl_by_name(impl_name)
            except (KeyError, ValueError):
                impl = None
        if impl is None:
            raise SerializationError(f"unknown implementation {impl_name!r}")
        annotation.impls[int(vid_text)] = impl
    for entry in payload["transforms"]:
        transform = _TRANSFORM_BY_NAME.get(entry["transform"])
        if transform is None:
            raise SerializationError(
                f"unknown transformation {entry['transform']!r}")
        edge = Edge(entry["src"], entry["dst"], entry["arg_pos"])
        annotation.transforms[edge] = (
            transform, format_from_dict(entry["to_format"]))
    plan = make_plan(graph, annotation, ctx,
                     payload.get("optimizer", "deserialized"),
                     payload.get("optimize_seconds", 0.0),
                     allow_infeasible=True)
    if "pipeline" in payload:
        plan = dataclasses.replace(
            plan, pipeline=PipelineReport.from_dict(payload["pipeline"]))
    if "profile" in payload:
        plan = dataclasses.replace(
            plan, profile=OptimizerProfile.from_dict(payload["profile"]))
    return plan


def plan_to_json(plan: Plan, indent: int | None = None) -> str:
    """Serialize a plan to a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent)


def plan_from_json(text: str, ctx: OptimizerContext) -> Plan:
    """Deserialize a plan from a JSON string."""
    return plan_from_dict(json.loads(text), ctx)
