"""``sql_repeat``: repeat SQL traffic against one shared planner service.

Each request opens ``SqlSession.for_tenant`` on the shared
``PlannerService``, submits one script and optimizes the script's view.
Repeat traffic is what the plan cache exists for: parse, build, rewrite,
fingerprint and lookup should do the work and the search almost none.  It
bypasses what ``plan_cold`` exercises.

The pool holds four templates -- the Section 2.1 motivating chain, an FFNN
layer stack written with nested calls, normal-equation regression and the
fig10 chain -- under two rewrite engines (``none``, ``pipeline``), for two
tenants (8 and 12 workers) and two ``LOAD`` format options per template:
32 distinct scripts.  The seed draws each script's dims (scaled by 0.98, 1
or 1.02) and where each request goes in the stream.  A pass is 24 blocks
of twelve requests in a seeded order: per template one ``none`` and two
``pipeline`` requests (with an even split the median fell on the gap
between the two engines' hit latencies).  The tenants take 75% and 25% of
each (template, engine) pair's requests, split evenly between the format
options: a pipeline hit costs 0.6 ms under one option of the motivating
chain and 12-16 ms under the other, so a seeded format draw moved the
run's throughput by 70%.  Set-up requests every distinct script once, so
the cache is warm before timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harness import SCALES, CheckFailed, Spans, scaled
from plan_cold import count_plan
from repro import OptimizerContext, PlannerService, simulate
from repro.cluster import simsql_cluster
from repro.core.fingerprint import request_fingerprint
from repro.core.optimizer import physical_plan, rewrite_stage
from repro.sql import SqlSession

TEMPLATES = ("motivating", "ffnn", "normal_eq", "fig10")
ENGINES = ("none", "pipeline")
TENANT_WORKERS = (8, 12)
#: Share of each (template, engine) pair's requests per tenant.
SKEW = (0.75, 0.25)
#: ``LOAD`` format options per template; each tenant's requests split
#: evenly between them.
FORMATS = 2
BLOCKS_PER_PASS = 24
#: Requests per template and block, by engine.
PER_BLOCK = {"none": 1, "pipeline": 2}
#: Plan-cache capacity, above the number of plans a run can insert.  The
#: nested-call FFNN template misses on every request (NOTES.md, defect a),
#: and with the default 256 its plans filled the cache within seconds;
#: evicting a whole structural entry then also evicted hot templates, and
#: the hit rate, and with it every latency, varied from run to run.
CACHE_CAPACITY = 16_384


def _table(name: str, rows: int, cols: int) -> str:
    return f"CREATE TABLE {name} (mat MATRIX[{rows}][{cols}]);"


def _view(name: str, expr: str, tables: str) -> str:
    return f"CREATE VIEW {name} (mat) AS SELECT {expr} FROM {tables};"


def motivating(scale: float, fmt: int) -> tuple[str, str]:
    m, k, n = (scaled(v, scale) for v in (100, 10_000, 1_000_000))
    fa, fb, fc = (("row_strips(10)", "col_strips(10)", "col_strips(10000)"),
                  ("single", "single", "col_strips(1000)"))[fmt]
    return "\n".join([
        _table("matA", m, k), _table("matB", k, m), _table("matC", m, n),
        f"LOAD matA FORMAT '{fa}';", f"LOAD matB FORMAT '{fb}';",
        f"LOAD matC FORMAT '{fc}';",
        _view("matAB", "matrix_multiply(x.mat, m.mat)",
              "matA AS x, matB AS m"),
        _view("matABC", "matrix_multiply(x.mat, m.mat)",
              "matAB AS x, matC AS m"),
    ]), "matABC"


def ffnn(scale: float, fmt: int) -> tuple[str, str]:
    b, f = scaled(10_000, scale), scaled(60_000, scale)
    h, labels = scaled(4000, scale), 17
    fx = ("row_strips(1000)", "tiles(1000)")[fmt]
    layer1 = "relu(add_bias(matrix_multiply(x.mat, w1.mat), c1.mat))"
    layer2 = f"relu(add_bias(matrix_multiply({layer1}, w2.mat), c2.mat))"
    out = f"softmax(add_bias(matrix_multiply({layer2}, w3.mat), c3.mat))"
    return "\n".join([
        _table("X", b, f), _table("W1", f, h), _table("B1", 1, h),
        _table("W2", h, h), _table("B2", 1, h), _table("W3", h, labels),
        _table("B3", 1, labels), f"LOAD X FORMAT '{fx}';",
        _view("scores", out, "X AS x, W1 AS w1, B1 AS c1, W2 AS w2, "
              "B2 AS c2, W3 AS w3, B3 AS c3"),
    ]), "scores"


def normal_eq(scale: float, fmt: int) -> tuple[str, str]:
    n, d = scaled(100_000, scale), scaled(1000, scale)
    fx = ("row_strips(10000)", "tiles(500)")[fmt]
    return "\n".join([
        _table("X", n, d), _table("y", n, 1), _table("lamI", d, d),
        f"LOAD X FORMAT '{fx}';", f"LOAD lamI SPARSITY {1.0 / d:.6f};",
        _view("Xt", "transpose(x.mat)", "X AS x"),
        _view("XtX", "matrix_multiply(t.mat, x.mat)", "Xt AS t, X AS x"),
        _view("G", "matrix_add(g.mat, l.mat)", "XtX AS g, lamI AS l"),
        _view("Gi", "matrix_inverse(g.mat)", "G AS g"),
        _view("Xty", "matrix_multiply(t.mat, v.mat)", "Xt AS t, y AS v"),
        _view("w", "matrix_multiply(g.mat, r.mat)", "Gi AS g, Xty AS r"),
    ]), "w"


def fig10(scale: float, fmt: int) -> tuple[str, str]:
    # Size set 1 of Fig 4; dims of 1 stay 1 so the shapes still chain.
    n, k, m, q = (scaled(v, scale)
                  for v in (10_000, 30_000, 50_000, 10_000))
    fe = ("row_strips(1000)", "tiles(1000)")[fmt]
    mm = "matrix_multiply(a.mat, b.mat)"
    return "\n".join([
        _table("A", n, k), _table("B", k, m), _table("C", m, 1),
        _table("D", 1, m), _table("E", m, n), _table("F", m, q),
        f"LOAD E FORMAT '{fe}';",
        _view("T1", mm, "A AS a, B AS b"), _view("T2", mm, "C AS a, D AS b"),
        _view("U", mm, "T1 AS a, E AS b"), _view("V", mm, "T1 AS a, T2 AS b"),
        _view("W", mm, "U AS a, V AS b"), _view("Z", mm, "T2 AS a, F AS b"),
        _view("O", mm, "W AS a, Z AS b"),
    ]), "O"


SCRIPTS = {"motivating": motivating, "ffnn": ffnn, "normal_eq": normal_eq,
            "fig10": fig10}


@dataclass(frozen=True)
class Request:
    key: tuple          # (template, engine, tenant index, format option)


def make_pool(seed: int) -> dict[tuple, tuple[str, str]]:
    """Every distinct request: key -> (script, view)."""
    rng = np.random.default_rng(seed)
    pool = {}
    for template in TEMPLATES:
        for engine in ENGINES:
            for tenant in range(len(TENANT_WORKERS)):
                for fmt in range(FORMATS):
                    scale = SCALES[rng.integers(len(SCALES))]
                    pool[(template, engine, tenant, fmt)] = \
                        SCRIPTS[template](scale, fmt)
    return pool


def make_stream(seed: int) -> list[Request]:
    """One pass of ``BLOCKS_PER_PASS`` blocks."""
    rng = np.random.default_rng([seed, 1])
    block = [(t, e) for t in TEMPLATES for e in ENGINES
             for _ in range(PER_BLOCK[e])]
    variants = {}
    for group in set(block):
        n = BLOCKS_PER_PASS * PER_BLOCK[group[1]]
        draws = [(tenant, fmt) for tenant, share in enumerate(SKEW)
                 for fmt in range(FORMATS)
                 for _ in range(round(n * share / FORMATS))]
        variants[group] = [draws[i] for i in rng.permutation(len(draws))]
    stream = []
    for _ in range(BLOCKS_PER_PASS):
        for i in rng.permutation(len(block)):
            group = block[i]
            tenant, fmt = variants[group].pop()
            stream.append(Request(group + (tenant, fmt)))
    return stream


def signature(plan) -> tuple:
    """Per-vertex implementation choices in topological order."""
    impls = plan.annotation.impls
    return tuple(impls[v].name for v in plan.graph.topological_order()
                 if v in impls)


class SqlRepeat:
    name = "sql_repeat"
    contains = {"service": ("rewrite", "fingerprint", "search")}
    #: The reference work that slows like this workload (NOTES.md).
    reference = "python"

    def reset(self) -> None:
        self.stream: list[Request] = []
        self.service = None

    def setup(self, seed: int) -> None:
        self.pool = make_pool(seed)
        self.stream = make_stream(seed)
        self.tenants = [OptimizerContext(cluster=simsql_cluster(w))
                        for w in TENANT_WORKERS]
        self.service = PlannerService(cache_capacity=CACHE_CAPACITY)
        self.first = {}
        off = Spans(False)
        for key in self.pool:
            plan, graph = self.request(Request(key), off)
            sim = simulate(plan, self.service.resolve_context(
                graph, self.tenants[key[2]]))
            if not sim.ok:
                raise CheckFailed(f"{key}: simulate failed: {sim.failure}")
            self.first[key] = (plan.total_seconds, signature(plan),
                               sim.seconds)

    def request(self, req: Request, spans):
        engine, tenant = req.key[1], req.key[2]
        script, view = self.pool[req.key]
        ctx = self.tenants[tenant]
        with spans.request():
            with spans.call("sql"):
                session = SqlSession.for_tenant(self.service, ctx)
                session.execute(script)
            with spans.call("lang"):
                graph = session.graph(view)
            with spans.call("service"):
                plan = self.service.optimize(graph, ctx, rewrites=engine)
        if spans.enabled:
            rctx = self.service.resolve_context(graph, ctx)
            with spans.probe("rewrite"):
                rewritten, report = rewrite_stage(graph, rctx, engine)
            with spans.probe("fingerprint"):
                request_fingerprint(graph, rewritten, rctx, rewrites=engine)
            if not plan.profile.cache_hit:
                with spans.probe("search"):
                    physical_plan(graph, rewritten, report, rctx)
        return plan, graph

    def check(self, req: Request, result) -> tuple[float, float]:
        """Same cost and per-vertex choices as the first plan of the
        request; returns that first plan's predicted and simulated
        seconds."""
        plan, _ = result
        cost, sig, simulated = self.first[req.key]
        if plan.total_seconds != cost or signature(plan) != sig:
            raise CheckFailed(f"{req.key}: plan differs from the first "
                              f"plan of this script ({plan.total_seconds} "
                              f"vs {cost} simulated seconds)")
        if not math.isfinite(cost):
            raise CheckFailed(f"{req.key}: plan cost is {cost}")
        return cost, simulated

    def count(self, req: Request, result, counts) -> None:
        plan, graph = result
        script, _ = self.pool[req.key]
        counts["requests"] += 1
        counts["service.requests"] += 1
        counts["sql.requests"] += 1
        counts["sql.statements"] += script.count(";")
        counts["lang.builds"] += 1
        counts["lang.vertices"] += len(graph)
        counts["service.plans_cached"] = len(self.service.cache)
        count_plan(req.key[1], plan, counts)

