"""``execute``: a seeded stream of real executions of planned graphs.

Set-up plans every graph once through one ``PlannerService`` and runs each
plan once (first executions are 2-3x slower than later ones, so they
belong in set-up).  The timed loop then runs ``execute_plan`` (default
scheduler) on laptop-scale seeded inputs, in a seeded order.  Numpy
kernels and per-stage engine work dominate, from a few large stages
(FFNN, inverse) to hundreds of small ones (power iteration), and no
search happens in the loop.  The SQL request also carries the SQL front
end: each time, a new tenant session submits the script, builds the
view's graph and gets its plan from the shared service's cache before
executing it, so this workload also measures the ``sql``, ``lang`` and
cache-hit ``service`` layers.

A pass runs power iteration three times, the two FFNN graphs and the
inverse twice and every other graph once.  Power iteration is the
many-small-stages case, and with five faster and five slower requests
around its three the median latency falls in the middle of one graph's
latencies instead of on the gap between two (with one run of each graph,
the median moved by a third between seeds).  The seed draws the inputs
and the order, not the sizes: the tail latency sits on the FFNN step, and
drawing its sizes at 0.98 or 1.02 of these moved the tail from 85 to
118 ms between seeds (NOTES.md).

Nominal graphs and sizes (every matrix stays below 10 MB; see NOTES.md):

* ``ffnn_step``: FFNN full step, dense, batch 1000, 500 features, hidden
  200, 10 labels;
* ``ffnn_csr``: FFNN backprop to W2 with its input loaded as CSR strips,
  batch 1000, 1000 features at 1% density, hidden 200;
* ``inverse``: two-level block inverse of a 600 x 600 SPD matrix (outer
  blocks 300, inner top block 60);
* ``attention``: single head, 512 tokens, model width 128, head 64;
* ``linreg``, ``logreg``, ``ridge``: 4000 x 100 design matrices;
* ``power``: power iteration on a 300 x 300 matrix, 100 steps (about 200
  operator stages);
* ``sql_chain``: the Section 2.1 chain as a SQL script, at 100 x 1000,
  1000 x 100, 100 x 5000, run the way ``SqlSession.run`` runs it.

Every output is compared with ``np.allclose`` to a dense numpy reference
computed here from the same inputs, never to the engine's own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from harness import CheckFailed
from plan_cold import count_plan
from repro import OptimizerContext, PlannerService, execute_plan
from repro.core.fingerprint import request_fingerprint
from repro.core.formats import csr_strips
from repro.core.optimizer import physical_plan, rewrite_stage
from repro.engine import lower
from repro.sql import SqlSession
from repro.workloads import (
    AttentionConfig,
    FFNNConfig,
    attention_graph,
    ffnn_backprop_to_w2,
    ffnn_full_step,
    linear_regression,
    logistic_regression_step,
    power_iteration,
    ridge_gradient_descent,
    sparse_features,
    two_level_inverse_graph,
)

GRAPHS = ("ffnn_step", "ffnn_csr", "inverse", "attention", "linreg",
          "logreg", "ridge", "power", "sql_chain")

#: Beam for the 57-vertex FFNN step (the other graphs plan exactly).
BEAM = 25
RTOL, ATOL = 1e-6, 1e-8

FFNN_STEP = FFNNConfig(batch=1000, features=500, hidden=200, labels=10,
                       learning_rate=0.05)
FFNN_CSR = FFNNConfig(batch=1000, features=1000, hidden=200, labels=10,
                      input_sparsity=0.01, learning_rate=0.05,
                      x_format=csr_strips(250))
INV_OUTER, INV_TOP = 300, 60
ATTENTION = AttentionConfig(seq_len=512, model_dim=128, head_dim=64)
REG_N, REG_D = 4000, 100
POWER_N, POWER_STEPS, POWER_DAMPING = 300, 100, 0.1

SQL_CHAIN = """
    CREATE TABLE matA (mat MATRIX[100][1000]);
    CREATE TABLE matB (mat MATRIX[1000][100]);
    CREATE TABLE matC (mat MATRIX[100][5000]);
    LOAD matA FORMAT 'row_strips(10)';
    LOAD matB FORMAT 'col_strips(10)';
    LOAD matC FORMAT 'col_strips(500)';
    CREATE VIEW matAB (mat) AS
    SELECT matrix_multiply(x.mat, m.mat) FROM matA AS x, matB AS m;
    CREATE VIEW matABC (mat) AS
    SELECT matrix_multiply(x.mat, m.mat) FROM matAB AS x, matC AS m;
"""
SQL_VIEW = "matABC"


@dataclass(frozen=True)
class Request:
    key: tuple          # (graph name,)


PASS = GRAPHS + ("power", "power", "ffnn_csr", "inverse")


def make_stream(seed: int) -> list[Request]:
    rng = np.random.default_rng([seed, 2])
    return [Request((PASS[i],)) for i in rng.permutation(len(PASS))]


# ----------------------------------------------------------------------
# Dense numpy references
# ----------------------------------------------------------------------
def _softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _relu(a):
    return np.maximum(a, 0.0)


def ffnn_inputs(cfg: FFNNConfig, rng, x=None) -> dict:
    def w(rows, cols):
        return rng.standard_normal((rows, cols)) * (1.0 / math.sqrt(rows))

    labels = np.zeros((cfg.batch, cfg.labels))
    labels[np.arange(cfg.batch), rng.integers(0, cfg.labels, cfg.batch)] = 1
    return {
        "X": x if x is not None else rng.standard_normal(
            (cfg.batch, cfg.features)),
        "Y": labels,
        "W1": w(cfg.features, cfg.hidden), "W2": w(cfg.hidden, cfg.hidden),
        "W3": w(cfg.hidden, cfg.labels),
        "b1": rng.standard_normal((1, cfg.hidden)) * 0.1,
        "b2": rng.standard_normal((1, cfg.hidden)) * 0.1,
        "b3": rng.standard_normal((1, cfg.labels)) * 0.1,
    }


def ffnn_step_reference(v: dict, cfg: FFNNConfig) -> dict:
    x, lr = v["X"], cfg.learning_rate
    a1 = x @ v["W1"] + v["b1"]
    z1 = _relu(a1)
    a2 = z1 @ v["W2"] + v["b2"]
    z2 = _relu(a2)
    out = _softmax(z2 @ v["W3"] + v["b3"])
    d_out = (out - v["Y"]) / cfg.batch
    d_z2 = (d_out @ v["W3"].T) * (a2 > 0)
    d_z1 = (d_z2 @ v["W2"].T) * (a1 > 0)
    w1 = v["W1"] - lr * (x.T @ d_z1)
    w2 = v["W2"] - lr * (z1.T @ d_z2)
    w3 = v["W3"] - lr * (z2.T @ d_out)
    b1 = v["b1"] - lr * d_z1.sum(axis=0, keepdims=True)
    b2 = v["b2"] - lr * d_z2.sum(axis=0, keepdims=True)
    b3 = v["b3"] - lr * d_out.sum(axis=0, keepdims=True)
    z1b = _relu(x @ w1 + b1)
    z2b = _relu(z1b @ w2 + b2)
    return {"out": _softmax(z2b @ w3 + b3)}


def ffnn_w2_reference(v: dict, cfg: FFNNConfig) -> dict:
    a1 = v["X"] @ v["W1"] + v["b1"]
    z1 = _relu(a1)
    a2 = z1 @ v["W2"] + v["b2"]
    z2 = _relu(a2)
    out = _softmax(z2 @ v["W3"] + v["b3"])
    d_z2 = ((out - v["Y"]) @ v["W3"].T) * (a2 > 0)
    return {"out": v["W2"] - cfg.learning_rate * (z1.T @ d_z2)}


def inverse_inputs(rng, o: int, t: int) -> dict:
    n = 2 * o
    g = rng.standard_normal((n, n))
    full = g @ g.T / n + np.eye(n)
    a = full[:o, :o]
    u1 = np.zeros((o, t))
    u1[:t, :] = np.eye(t)
    u2 = np.zeros((o, o - t))
    u2[t:, :] = np.eye(o - t)
    return {"A11": a[:t, :t], "A12": a[:t, t:], "A21": a[t:, :t],
            "A22": a[t:, t:], "B": full[:o, o:], "C": full[o:, :o],
            "D": full[o:, o:], "U1": u1, "U2": u2}


def inverse_reference(v: dict, o: int) -> dict:
    a = np.block([[v["A11"], v["A12"]], [v["A21"], v["A22"]]])
    inv = np.linalg.inv(np.block([[a, v["B"]], [v["C"], v["D"]]]))
    return {"Abar": inv[:o, :o], "Bbar": inv[:o, o:], "Cbar": inv[o:, :o],
            "Dbar": inv[o:, o:]}


def attention_reference(v: dict) -> dict:
    q, k, val = v["X"] @ v["Wq"], v["X"] @ v["Wk"], v["X"] @ v["Wv"]
    return {"out": _softmax(q @ k.T / math.sqrt(q.shape[1])) @ val}


def make_case(name: str, rng):
    """``(graph or None, inputs, reference outputs)`` of one graph."""
    if name == "ffnn_step":
        cfg = FFNN_STEP
        v = ffnn_inputs(cfg, rng)
        return ffnn_full_step(cfg), v, ffnn_step_reference(v, cfg)
    if name == "ffnn_csr":
        cfg = FFNN_CSR
        x = sparse_features(cfg.batch, cfg.features,
                            cfg.features * cfg.input_sparsity,
                            seed=int(rng.integers(2**31)))
        v = ffnn_inputs(cfg, rng, x=x.toarray())
        return ffnn_backprop_to_w2(cfg), v, ffnn_w2_reference(v, cfg)
    if name == "inverse":
        outer = INV_OUTER
        v = inverse_inputs(rng, outer, INV_TOP)
        return (two_level_inverse_graph(outer, INV_TOP), v,
                inverse_reference(v, outer))
    if name == "attention":
        c = ATTENTION
        s = 1.0 / math.sqrt(c.model_dim)
        v = {"X": rng.standard_normal((c.seq_len, c.model_dim)),
             "Wq": rng.standard_normal((c.model_dim, c.head_dim)) * s,
             "Wk": rng.standard_normal((c.model_dim, c.head_dim)) * s,
             "Wv": rng.standard_normal((c.model_dim, c.head_dim)) * s}
        return attention_graph(c), v, attention_reference(v)
    if name in ("linreg", "logreg", "ridge"):
        n, d = REG_N, REG_D
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((n, 1))
        if name == "linreg":
            lam = 1e-2 * np.eye(d)
            ref = np.linalg.solve(x.T @ x + lam, x.T @ y)
            return (linear_regression(n, d).graph,
                    {"X": x, "y": y, "lamI": lam}, {"out": ref})
        if name == "logreg":
            y = (y > 0).astype(float)
            w = rng.standard_normal((d, 1)) * 0.1
            p = 1.0 / (1.0 + np.exp(-(x @ w)))
            ref = w - 0.1 * (x.T @ (p - y))
            return (logistic_regression_step(n, d).graph,
                    {"X": x, "y": y, "w": w}, {"out": ref})
        w = np.zeros((d, 1))
        for _ in range(3):
            w = w - 0.01 * (x.T @ (x @ w - y) + 0.1 * w)
        return (ridge_gradient_descent(n, d).graph,
                {"X": x, "y": y, "w0": np.zeros((d, 1))}, {"out": w})
    if name == "power":
        s = rng.standard_normal((POWER_N, POWER_N))
        # Spectral radius about 1/damping, so v neither blows up nor
        # vanishes over the unrolled steps.
        a = (s + s.T) / 2 / (POWER_DAMPING * math.sqrt(2 * POWER_N))
        v0 = rng.standard_normal((POWER_N, 1))
        ref = v0
        for _ in range(POWER_STEPS):
            ref = POWER_DAMPING * (a @ ref)
        return (power_iteration(POWER_N, POWER_STEPS,
                                POWER_DAMPING).graph,
                {"A": a, "v0": v0}, {"out": ref})
    if name == "sql_chain":
        a = rng.standard_normal((100, 1000))
        b = rng.standard_normal((1000, 100))
        c = rng.standard_normal((100, 5000))
        return (None, {"matA": a, "matB": b, "matC": c},
                {"matABC": (a @ b) @ c})
    raise ValueError(f"unknown graph {name!r}")


def check_outputs(key, outputs: dict, reference: dict) -> None:
    """Every reference output present and ``allclose`` to the engine's."""
    if len(reference) == 1 and len(outputs) == 1:
        outputs = {next(iter(reference)): next(iter(outputs.values()))}
    for name, ref in reference.items():
        got = outputs.get(name)
        if got is None:
            raise CheckFailed(f"{key}: output {name!r} missing")
        got = got.toarray() if sp.issparse(got) else np.asarray(got)
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=RTOL,
                                                     atol=ATOL):
            raise CheckFailed(f"{key}: output {name!r} differs from the "
                              "numpy reference")


class Execute:
    name = "execute"
    #: The reference work that slows like this workload (NOTES.md).
    reference = "numpy"
    contains = {"execute": ("lower",),
                "service": ("rewrite", "fingerprint", "search")}

    def reset(self) -> None:
        self.stream: list[Request] = []
        self.cases: dict = {}

    def setup(self, seed: int) -> None:
        self.stream = make_stream(seed)
        self.ctx = OptimizerContext()
        self.service = PlannerService(self.ctx)
        self.cases = {}
        for i, name in enumerate(GRAPHS):
            graph, inputs, ref = make_case(name, np.random.default_rng(
                [seed, 3, i]))
            if graph is None:
                graph = self._session().graph(SQL_VIEW)
            beam = BEAM if name == "ffnn_step" else None
            plan = self.service.optimize(graph, self.ctx, max_states=beam)
            self.cases[(name,)] = (plan, inputs, ref)
            check_outputs(name, self._run(plan, inputs).outputs, ref)

    def _session(self) -> SqlSession:
        session = SqlSession.for_tenant(self.service, self.ctx)
        session.execute(SQL_CHAIN)
        return session

    def _run(self, plan, inputs):
        result = execute_plan(plan, inputs, self.ctx)
        if not result.ok:
            raise CheckFailed(f"execution failed: {result.failure}")
        return result

    def request(self, req: Request, spans):
        plan, inputs, _ = self.cases[req.key]
        graph = None
        with spans.request():
            if req.key == ("sql_chain",):
                # What ``SqlSession.run`` does, one layer per span: a new
                # tenant session submits the script, builds the view's
                # graph, plans it (a cache hit) and executes the plan.
                with spans.call("sql"):
                    session = self._session()
                with spans.call("lang"):
                    graph = session.graph(SQL_VIEW)
                with spans.call("service"):
                    plan = self.service.optimize(graph, self.ctx)
            with spans.call("execute"):
                result = self._run(plan, inputs)
        stages = 0
        if spans.enabled:
            rctx = self.service.resolve_context(plan.graph, self.ctx)
            if graph is not None:
                with spans.probe("rewrite"):
                    rewritten, report = rewrite_stage(graph, rctx, "none")
                with spans.probe("fingerprint"):
                    request_fingerprint(graph, rewritten, rctx)
                if not plan.profile.cache_hit:
                    with spans.probe("search"):
                        physical_plan(graph, rewritten, report, rctx)
            with spans.probe("lower"):
                stages = len(lower(plan, rctx))
        return result, stages, plan, graph

    def check(self, req: Request, out) -> tuple[float, float]:
        result, _, plan, _ = out
        first, _, ref = self.cases[req.key]
        if plan.total_seconds != first.total_seconds:
            raise CheckFailed(f"{req.key}: the SQL session planned "
                              f"{plan.total_seconds} simulated seconds, "
                              f"not {first.total_seconds}")
        check_outputs(req.key, result.outputs, ref)
        return plan.total_seconds, result.ledger.total_seconds

    def count(self, req: Request, out, counts) -> None:
        result, stages, plan, graph = out
        counts["requests"] += 1
        counts["lower.calls"] += 1
        counts["lower.stages"] += stages
        count_execution(result.ledger, counts)
        counts["execute.stages_run"] += len(result.executed_stages)
        if graph is not None:
            counts["sql.requests"] += 1
            counts["sql.statements"] += SQL_CHAIN.count(";")
            counts["lang.builds"] += 1
            counts["lang.vertices"] += len(graph)
            counts["service.requests"] += 1
            counts["service.plans_cached"] = len(self.service.cache)
            count_plan("none", plan, counts)


def count_execution(ledger, counts) -> None:
    """Work counts of one execution's ledger (shared with churn)."""
    for record in ledger.stages:
        counts["execute.flops"] += record.features.flops
        counts["execute.net_bytes"] += record.features.network_bytes
