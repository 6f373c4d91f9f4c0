"""Canonical fingerprints for planning requests.

A plan cache is only safe if its key captures *everything* the optimizer's
answer depends on — and nothing it does not.  This module computes that key
canonically: the digest is built from an explicit JSON payload (never from
Python ``hash()``), so it is identical across processes, platforms and
``PYTHONHASHSEED`` values.

The key has two parts:

* the **structural key** — a sha256 over the *shapes* of the problem: the
  submitted logical graph's topology (ops and source layouts, not names
  or sizes), the :class:`ClusterConfig`, the catalog/cost-model version
  signature, and the two planning knobs: the ``max_states`` beam and the
  rewrite engine with its rule-set version;
* the **parameter slots** — per-vertex dimensions, sparsities, estimated
  ``nnz`` and scalar op parameters, plus the names the executor binds:
  source names (inputs are fed by name) and output names (results are
  returned by name).  Intermediate op-vertex names are labels, not
  semantics, and stay out of the key.

The planner service keys on the graph as submitted, before any rewrite
runs: the rewrite stage is a function of exactly that graph, the context
and the knobs (e-graph saturation reads no clock), so a repeat request is
a lookup and the rewrite runs only on a miss.  Structurally
identical requests share one cache entry; the parameter tuple selects the
concrete plan inside it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..cluster import ClusterConfig
from .egraph.rules import RULESET_VERSION
from .frontier import validate_search_knobs
from .graph import ComputeGraph
from .registry import OptimizerContext
from .rewrites import RewriteSpec, resolve_engine, resolve_passes

__all__ = [
    "CATALOG_VERSION",
    "Fingerprint",
    "batch_fingerprint",
    "catalog_signature",
    "graph_signature",
    "request_fingerprint",
    "subplan_fingerprint",
]

#: Version of the planning substrate baked into every structural key.
#: Bump whenever the catalogs, the cost model or the rewrite passes change
#: behaviour: stale cache entries (and future warm-start files) must not
#: survive an upgrade that would plan differently.
CATALOG_VERSION = 1


@dataclass(frozen=True)
class Fingerprint:
    """Canonical identity of one planning request."""

    #: sha256 hex digest over the structural payload.
    structural: str
    #: Parameter slots: bound names, dims, sparsity, nnz, scalar params — JSON
    #: encoded so the tuple is hashable and trivially serializable.
    params: str

    @property
    def key(self) -> tuple[str, str]:
        """The full cache key: (structural key, parameter binding)."""
        return (self.structural, self.params)

    def short(self) -> str:
        """Abbreviated digest for logs and span attributes."""
        return self.structural[:12]


# ----------------------------------------------------------------------
# Payload builders
# ----------------------------------------------------------------------
def _canonical(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr-stable floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def graph_signature(graph: ComputeGraph) -> tuple[list, list]:
    """Split a compute graph into ``(structure, parameters)`` payloads.

    Structure is topology only: per-vertex op names (or source layouts)
    and input wiring, plus declared outputs.  Vertex ids are construction
    ordered, so the payload is deterministic without any hashing.
    Parameters are the per-vertex slots a structurally identical graph may
    vary in: dimensions, sparsity, estimated non-zeros, scalar op
    parameters, and the names the executor binds — every source name and
    every output name.  Two graphs differing in those names share a
    structural key but not a plan.  An intermediate op vertex's name is
    only a label (unnamed expressions draw theirs from a process-wide
    counter), so its slot holds ``None``: graphs differing only in labels
    compute the same values and share a plan, as in
    :func:`subplan_fingerprint`.
    """
    outputs = [v.vid for v in graph.outputs]
    bound = set(outputs)
    structure: list = []
    params: list = []
    for v in graph.vertices:
        if v.is_source:
            fmt = v.format
            structure.append(["src", fmt.layout.value, fmt.block_rows,
                              fmt.block_cols])
            nnz = round(v.mtype.sparsity * v.mtype.rows * v.mtype.cols)
            params.append([v.name, list(v.mtype.dims), v.mtype.sparsity,
                           nnz])
        else:
            structure.append(["op", v.op.name, list(v.inputs)])
            params.append([v.name if v.vid in bound else None, v.param])
    structure.append(["out", outputs])
    return structure, params


def catalog_signature(ctx: OptimizerContext) -> dict:
    """Version signature of everything the context plans against.

    Two contexts with the same signature produce identical plans for
    identical graphs; any divergence (an added implementation, retrained
    weights, a bumped :data:`CATALOG_VERSION`) changes the signature and
    therefore every structural key derived from it.
    """
    return {
        "version": CATALOG_VERSION,
        "formats": [[f.layout.value, f.block_rows, f.block_cols]
                    for f in ctx.formats],
        "implementations": [i.name for i in ctx.implementations],
        "transforms": [t.name for t in ctx.transforms],
        "weights": list(ctx.weights.as_vector()),
        "charge_transforms": ctx.charge_transforms,
        "rewrite_passes": sorted(_pass_names("all")),
    }


def _cluster_payload(cluster: ClusterConfig) -> dict:
    return {k: v for k, v in sorted(dataclasses.asdict(cluster).items())}


def _pass_names(rewrites: RewriteSpec) -> tuple[str, ...]:
    return tuple(p.name for p in resolve_passes(rewrites))


def _rewrites_payload(rewrites: RewriteSpec) -> dict:
    """Canonical identity of the rewrite-engine choice.

    The engine name keeps a cached pipeline plan from ever being served
    for an egraph request (and vice versa); the rule-set version
    invalidates every entry when a saturation rule or budget changes; the
    pass list distinguishes pipeline subsets.
    """
    engine, spec = resolve_engine(rewrites)
    return {
        "engine": engine,
        "ruleset_version": RULESET_VERSION,
        "passes": [] if engine == "egraph" else list(_pass_names(spec)),
    }


def request_fingerprint(graph: ComputeGraph, rewritten: ComputeGraph,
                        ctx: OptimizerContext, *,
                        max_states: int | None = None,
                        rewrites: RewriteSpec = "none",
                        frontier: str = "array") -> Fingerprint:
    """Fingerprint one planning request.

    The planner service passes the submitted ``graph`` twice, so a repeat
    request is keyed before any rewrite runs.  ``rewritten`` may instead
    be the output of :func:`repro.core.optimizer.rewrite_stage` on
    ``graph``; the unrewritten graph then participates in the key exactly
    when the rewrite changed its structure.

    The knobs in the key are exactly the two that can change the answer:
    ``max_states`` and ``rewrites``.  ``frontier`` accepts only
    ``"array"`` and stays out of the key.  Bad values raise ``ValueError``
    before any graph is signed (see
    :func:`repro.core.frontier.validate_search_knobs`; the rewrites
    payload resolves the spec as
    :func:`repro.core.rewrites.validate_rewrites` does).
    """
    validate_search_knobs(max_states, frontier)
    knobs = {"max_states": max_states,
             "rewrites": _rewrites_payload(rewrites)}
    structure, params = graph_signature(rewritten)
    base_structure, base_params = graph_signature(graph)
    if base_structure == structure:
        base_structure = None
        base_params = []
    payload = {
        "graph": structure,
        "base_graph": base_structure,
        "cluster": _cluster_payload(ctx.cluster),
        "catalog": catalog_signature(ctx),
        "knobs": knobs,
    }
    return Fingerprint(_digest(payload),
                       _canonical([params, base_params]))


def subplan_fingerprint(graph: ComputeGraph, vid: int,
                        fmt=None) -> str:
    """Canonical identity of one vertex's ancestor cone and stored format.

    This is the key the engine's :class:`~repro.engine.intermediate.
    IntermediateStore` caches materialized results under: two vertices —
    in the same graph or in different queries — share a key exactly when
    they compute the same value *and* store it the same way.  Source
    names are part of the key (the executor binds input data by name, so
    ``A @ B`` and ``A @ C`` must never collide); op vertex names are not
    (they are labels, not semantics).  The digest is sha256 over
    canonical JSON, so it is identical across processes and
    ``PYTHONHASHSEED`` values.

    ``fmt`` is the physical format the result is stored in (an op
    stage's ``out_fmt``); pass ``None`` to key on the value alone.
    """
    cone: dict[int, int] = {}
    payload: list = []
    stack = [(vid, False)]
    while stack:
        v, expanded = stack.pop()
        if v in cone:
            continue
        vertex = graph.vertex(v)
        if expanded or vertex.is_source:
            cone[v] = len(cone)
            if vertex.is_source:
                sf = vertex.format
                nnz = round(vertex.mtype.sparsity * vertex.mtype.rows
                            * vertex.mtype.cols)
                payload.append(["src", vertex.name, sf.layout.value,
                                sf.block_rows, sf.block_cols,
                                list(vertex.mtype.dims),
                                vertex.mtype.sparsity, nnz])
            else:
                payload.append(["op", vertex.op.name,
                                [cone[p] for p in vertex.inputs],
                                vertex.param])
        else:
            stack.append((v, True))
            for p in reversed(vertex.inputs):
                stack.append((p, False))
    fmt_payload = (None if fmt is None
                   else [fmt.layout.value, fmt.block_rows, fmt.block_cols])
    return _digest({"cone": payload, "root": cone[vid],
                    "fmt": fmt_payload})


def batch_fingerprint(fingerprints) -> Fingerprint:
    """Compose per-query request fingerprints into one batch identity.

    The structural key digests the *ordered* list of member structural
    keys under a distinct ``"batch"`` payload domain, so a one-query
    batch never collides with the equivalent solo request and the same
    queries in a different order cache separately (per-query plans are
    returned positionally).  The parameter slot is the ordered list of
    member parameter bindings.
    """
    fingerprints = list(fingerprints)
    payload = {"batch": [fp.structural for fp in fingerprints]}
    return Fingerprint(_digest(payload),
                       _canonical([fp.params for fp in fingerprints]))
