"""``plan_cold``: a seeded stream of paper-scale planning requests.

Every request goes through a fresh ``PlannerService``, so every request
misses the plan cache by construction: the search does nearly all the
work, plus e-graph saturation on DAGs.  This is the workload for
compile-time claims and the one that guards plan quality.

One pass plans each entry below once, in a seeded order:

* fig05 FFNN full step and fig10 chains (size sets 1-3) and the
  three-tenant fig10 batch under every rewrite engine;
* fig09 inverse under ``none`` and ``pipeline``;
* ``wide_shared_dag`` width 2 under every engine, width 3 under ``none``,
  both with exact search;
* the fig13 tree/DAG1/DAG2 families at scale 1 under every engine, and
  DAG2 at scale 2 under ``egraph`` (the request whose saturation stops on
  its wall-clock deadline);
* linear regression, logistic regression and power iteration under every
  engine, ridge gradient descent under ``none`` and ``pipeline``;
* single-head attention under every engine.

The seed draws each request's dims (the paper's sizes scaled by 0.98, 1
or 1.02) and the order.  Within a family the three engine variants take a
seeded permutation of the three scales, so every pass holds the same mix
of sizes and engines.  The cluster is fixed at 10 SimSQL workers, because
drawing it moved the median latency by a third between seeds.  See
NOTES.md for the entries left out and why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from harness import SCALES, TAIL_SAMPLES, CheckFailed, scaled
from repro import OptimizerContext, PlannerService, simulate
from repro.cluster import simsql_cluster
from repro.core.fingerprint import request_fingerprint
from repro.core.optimizer import physical_plan, rewrite_stage
from repro.lang import build, input_matrix
from repro.workloads import (
    SCALING_FAMILIES,
    SIZE_SETS,
    AttentionConfig,
    FFNNConfig,
    attention_graph,
    ffnn_full_step,
    linear_regression,
    logistic_regression_step,
    power_iteration,
    ridge_gradient_descent,
    two_level_inverse_graph,
    wide_shared_dag,
)

ENGINES = ("none", "pipeline", "egraph")
WORKERS = 10

#: Beam width of the two large graphs (fig05: 57 vertices, fig09: 45).
#: The figures use 1500; see NOTES.md for why the benchmark uses 25.
BEAM = 25

#: family -> (engines planned per pass, arguments of its graph function)
POOL: tuple[tuple[str, tuple[str, ...], tuple], ...] = (
    ("fig05", ENGINES, ()),
    ("fig09", ("none", "pipeline"), ()),
    ("fig10", ENGINES, (1,)),
    ("fig10", ENGINES, (2,)),
    ("fig10", ENGINES, (3,)),
    ("wide", ENGINES, (2,)),
    ("wide", ("none",), (3,)),
    ("tree", ENGINES, (1,)),
    ("dag1", ENGINES, (1,)),
    ("dag2", ENGINES, (1,)),
    ("dag2", ("egraph",), (2,)),
    ("linreg", ENGINES, ()),
    ("logreg", ENGINES, ()),
    ("power", ENGINES, ()),
    ("ridge", ("none", "pipeline"), ()),
    ("attention", ENGINES, ()),
    ("batch", ENGINES, (1,)),
)


#: Requests in one pass.
PASS_LENGTH = sum(len(engines) for _, engines, _ in POOL)


@dataclass(frozen=True)
class Request:
    key: tuple          # (index in pass, family, engine, args, scale)

    @property
    def family(self) -> str:
        return self.key[1]

    @property
    def engine(self) -> str:
        return self.key[2]


def make_stream(seed: int) -> list[Request]:
    """One pass of the seeded request stream (pure: no graphs built)."""
    rng = np.random.default_rng(seed)
    entries = []
    for family, engines, args in POOL:
        scales = rng.permutation(len(SCALES))
        for i, engine in enumerate(engines):
            entries.append((family, engine, args, SCALES[scales[i]]))
    order = rng.permutation(len(entries))
    return [Request((pos,) + entries[i]) for pos, i in enumerate(order)]


def chain_graph(size_set: int, scale: float):
    """The fig10 chain ``((T1 E)(T1 T2))(T2 F)`` with every dimension of
    the size set scaled (dims of 1 stay 1, so shapes still chain)."""
    dims = {name: (scaled(r, scale), scaled(c, scale))
            for name, (r, c) in SIZE_SETS[size_set].items()}
    a, b, c, d, e, f = (input_matrix(n, *dims[n]) for n in "ABCDEF")
    t1 = a @ b
    t2 = c @ d
    return build(((t1 @ e) @ (t1 @ t2)) @ (t2 @ f))


def build_graphs(family: str, args: tuple, scale: float) -> list:
    """The compute graph(s) of one request; a batch has three."""
    def d(base: int) -> int:
        return scaled(base, scale)

    if family == "fig05":
        return [ffnn_full_step(FFNNConfig(batch=d(10_000),
                                          features=d(60_000),
                                          hidden=d(80_000)))]
    if family == "fig09":
        outer = d(10_000)
        return [two_level_inverse_graph(outer, outer // 5)]
    if family == "fig10":
        return [chain_graph(args[0], scale)]
    if family == "batch":
        return [chain_graph(args[0], scale) for _ in range(3)]
    if family == "wide":
        return [wide_shared_dag(args[0], 5, dim=d(20_000))]
    if family in SCALING_FAMILIES:
        return [SCALING_FAMILIES[family](args[0])]
    if family == "linreg":
        return [linear_regression(d(100_000), d(1000)).graph]
    if family == "logreg":
        return [logistic_regression_step(d(100_000), d(1000)).graph]
    if family == "power":
        return [power_iteration(d(20_000)).graph]
    if family == "ridge":
        return [ridge_gradient_descent(d(100_000), d(1000)).graph]
    if family == "attention":
        return [attention_graph(AttentionConfig(seq_len=d(16_384),
                                                model_dim=d(1024)))]
    raise ValueError(f"unknown family {family!r}")


class PlanCold:
    name = "plan_cold"
    #: The reference work that slows like this workload (NOTES.md).
    reference = "numpy"
    #: Passes per run.  A pass takes 10 to 18 s, and with one pass the
    #: latency percentiles would rest on one sample of each request.
    min_passes = 2
    #: Share of a run's latencies above ``latency_tail_ms``: 10 per two
    #: passes, so the tail keeps its place in the pass's mix when a run
    #: holds more passes.  With 10 above it in every run, runs of two
    #: passes and of three put it on the 6th and the 4th slowest request.
    tail_share = Fraction(TAIL_SAMPLES, 2 * PASS_LENGTH)
    #: Front-door or probed layer -> the probed layers it runs internally.
    contains = {"service": ("rewrite", "fingerprint", "search"),
                "batch": ("rewrite", "fingerprint"),
                "search": ("fallback",)}

    def __init__(self, beam: int = BEAM, frontier: str = "array") -> None:
        """``beam`` and ``frontier`` differ from the defaults only in
        attribution runs (``attribution.py``)."""
        self.beam = beam
        self.frontier = frontier

    def reset(self) -> None:
        self.stream: list[Request] = []
        self.inputs: dict = {}

    def setup(self, seed: int) -> None:
        self.stream = make_stream(seed)
        self.inputs = {}
        for req in self.stream:
            _, family, _, args, scale = req.key
            self.inputs[req.key] = build_graphs(family, args, scale)
        # Warm up lazily built state (format catalogs, rule tables) once
        # per engine on the smallest graph of the pool.
        warm = SCALING_FAMILIES["tree"](1)
        for engine in ENGINES:
            PlannerService().optimize(warm, rewrites=engine)

    def request(self, req: Request, spans):
        graphs = self.inputs[req.key]
        beam = self.beam if req.family in ("fig05", "fig09") else None
        with spans.request():
            # A context memoizes implementation and transform costs, so a
            # cold request needs a fresh one as well as a fresh service.
            ctx = OptimizerContext(cluster=simsql_cluster(WORKERS))
            service = PlannerService(ctx)
            if req.family == "batch":
                with spans.call("batch"):
                    out = service.optimize_batch(graphs, ctx,
                                                 rewrites=req.engine,
                                                 frontier=self.frontier)
            else:
                with spans.call("service"):
                    out = service.optimize(graphs[0], ctx, max_states=beam,
                                           rewrites=req.engine,
                                           frontier=self.frontier)
        if spans.enabled:
            self._probe(req, graphs, beam, spans)
        return out, service

    def _probe(self, req, graphs, beam, spans) -> None:
        """Re-run the service's stages on a fresh (cold) context."""
        service = PlannerService(
            OptimizerContext(cluster=simsql_cluster(WORKERS)))
        for graph in graphs:
            rctx = service.resolve_context(graph, None)
            with spans.probe("rewrite"):
                rewritten, report = rewrite_stage(graph, rctx, req.engine)
            with spans.probe("fingerprint"):
                request_fingerprint(graph, rewritten, rctx, max_states=beam,
                                    rewrites=req.engine,
                                    frontier=self.frontier)
            if req.family == "batch":
                continue
            with spans.probe("search"):
                physical_plan(graph, rewritten, report, rctx,
                              max_states=beam, frontier=self.frontier)
            if req.engine == "egraph" and report.total_rewrites > 0:
                # physical_plan's never-worse fallback also rewrites the
                # graph with the pipeline: rewrite work inside the search
                # probe, re-timed here on a cold context.
                fctx = PlannerService(OptimizerContext(
                    cluster=simsql_cluster(WORKERS))).resolve_context(
                        graph, None)
                with spans.probe("fallback"):
                    rewrite_stage(graph, fctx, "pipeline")

    def check(self, req: Request, result) -> tuple[float, float]:
        """Finite cost, and ``simulate`` charges exactly the predicted
        seconds."""
        out, service = result
        plan = out.merged if req.family == "batch" else out
        graph = out.graph if req.family == "batch" else plan.graph
        predicted = plan.total_seconds
        if not math.isfinite(predicted):
            raise CheckFailed(f"{req.key}: plan cost is {predicted}")
        sim = simulate(plan, service.resolve_context(graph, None))
        if not sim.ok or not math.isclose(sim.seconds, predicted,
                                          rel_tol=1e-9):
            raise CheckFailed(f"{req.key}: simulate gave {sim.seconds} "
                              f"({sim.failure}) for a plan predicted at "
                              f"{predicted}")
        return predicted, sim.seconds

    def count(self, req: Request, result, counts) -> None:
        out, _ = result
        counts["requests"] += 1
        counts["service.requests"] += 1
        if req.family == "batch":
            counts["batch.requests"] += 1
            counts["batch.cse_hits"] += out.cse_hits
            counts["batch.shared_subplans"] += len(out.shared_vertices)
            plan = out.merged
        else:
            plan = out
        count_plan(req.engine, plan, counts)


def count_plan(engine: str, plan, counts) -> None:
    """Per-layer counts of one returned plan (shared with sql_repeat)."""
    profile = plan.profile
    if profile is not None and profile.cache_hit:
        counts["service.hits"] += 1
    elif profile is not None:
        counts["search.runs"] += 1
        counts["search.states_explored"] += profile.states_explored
        counts["search.states_pruned"] += profile.states_pruned
        counts["search.states_beamed"] += profile.states_beamed
        counts["search.peak_table_size"] = max(
            counts["search.peak_table_size"], profile.peak_table_size)
    report = plan.pipeline
    if engine == "none":
        return
    counts["rewrite.requests"] += 1
    if report is None:
        return
    counts["rewrite.applied"] += report.total_rewrites
    if report.adopted and report.total_rewrites > 0:
        counts["rewrite.adopted"] += 1
    sat = report.saturation
    if sat is not None:
        counts["egraph.requests"] += 1
        counts["rewrite.egraph_e_nodes"] += sat.e_nodes
        if sat.budget_exhausted == "seconds":
            counts["rewrite.egraph_deadline_stops"] += 1
