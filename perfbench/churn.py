"""``execute_churn``: tiny executions on a 3-worker cluster, each with one
seeded trigger for a re-planning loop.

Kernels are trivial here; detection, re-planning, retries and re-lowering
dominate.  Without this workload the three re-planning loops go
unmeasured.  One pass holds 34 requests in a seeded order:

* ``dynamics`` x 3 graphs x 6: a crash of each of the three workers at
  stage frontier 1 and at frontier 2 (``execute_with_dynamics``);
* ``faults`` x 3 graphs x 4: transient task faults under four seeded
  fault seeds, every one recovered by retries
  (``execute_plan(faults=FaultConfig(...), recovery=...)``);
* ``robust`` x 2: inputs declared sparse arrive dense, so a spill fails
  and the plan falls back (``execute_robust``);
* ``adaptive`` x 2: a sparsity misestimate triggers re-optimization
  (``execute_adaptive``).

The graphs are an n x n matmul/relu/add chain, an n-token attention head
and a 2n x 16 logistic-regression step, with n = 32; the ``adaptive``
matrices are 3n x 3n and the ``robust`` ones 256 x 256.  The seed draws
the inputs, the fault seeds and the request order, not the sizes: at these
sizes per-stage charges dominate, and drawing n from 28, 32 and 36 changed
no simulated cost.  Every pass crashes every worker at both frontiers:
which crash a seed drew moved a request's latency sevenfold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from execute import check_outputs, count_execution
from harness import CheckFailed, Spans
from repro import (ClusterConfig, FaultConfig, OptimizerContext,
                   PlannerService, RecoveryPolicy, WorkerTimeline,
                   execute_plan, execute_robust, execute_with_dynamics)
from repro.core.formats import sparse_single, tiles
from repro.engine import crash_at_frontier, execute_adaptive, lower
from repro.lang import build, input_matrix, relu, sigmoid, softmax

WORKERS = 3
N = 32
#: Per-worker spill space of the ``robust`` cluster: a dense payload of
#: the declared-sparse input does not fit, the declared one does.
ROBUST_DISK_BYTES = 1.5e6
ADAPTIVE_THRESHOLD = 1.2
#: Transient faults of the ``faults`` trigger: each sub-task faults at most
#: once, and the retry budget exceeds the sub-tasks of any stage of these
#: graphs, so every run recovers.  With the executor's default budget of
#: 4, 1 of 6000 seeded fault draws (2000 per graph) exhausted it and the
#: run failed; with 32, none did.  The rates are low because the number
#: of faults a draw injects sets its ledger: at 0.05 the twelve fault
#: draws of a pass spread ``exec_sim_s`` by up to 0.043 over ten seeds.
FAULTS = dict(crash_probability=0.03, shuffle_error_probability=0.03,
              max_faults_per_stage=1)
FAULT_RECOVERY = RecoveryPolicy(max_retries=32)

GRAPHS = ("chain", "attention", "logreg")
FAULT_SEEDS_PER_GRAPH = 4
PASS = tuple(
    [("dynamics", g, (worker, frontier)) for g in GRAPHS
     for worker in range(WORKERS) for frontier in (1, 2)]
    + [("faults", g, i) for g in GRAPHS
       for i in range(FAULT_SEEDS_PER_GRAPH)]
    + [("robust", "matmul", 0), ("robust", "matmul_relu", 0),
       ("adaptive", "hadamard", 0), ("adaptive", "hadamard_t", 0)])


@dataclass(frozen=True)
class Request:
    key: tuple          # (trigger, graph, crash or fault variant)


def make_stream(seed: int) -> list[Request]:
    rng = np.random.default_rng([seed, 4])
    return [Request(PASS[i]) for i in rng.permutation(len(PASS))]


def make_case(name: str, rng):
    """``(graph, inputs, reference outputs)`` of one tiny graph."""
    n = N
    if name == "chain":
        a = input_matrix("A", n, n, fmt=tiles(14))
        b = input_matrix("B", n, n)
        out = ((relu(a @ b) + a) @ b)
        out.name = "out"
        v = {"A": rng.standard_normal((n, n)),
             "B": rng.standard_normal((n, n))}
        ref = (np.maximum(v["A"] @ v["B"], 0) + v["A"]) @ v["B"]
        return build(out), v, {"out": ref}
    if name == "attention":
        x, wq = input_matrix("X", n, 16), input_matrix("Wq", 16, 8)
        wk, wv = input_matrix("Wk", 16, 8), input_matrix("Wv", 16, 8)
        out = softmax(((x @ wq) @ (x @ wk).T) * (1 / math.sqrt(8))) @ (
            x @ wv)
        out.name = "out"
        v = {"X": rng.standard_normal((n, 16))}
        for w in ("Wq", "Wk", "Wv"):
            v[w] = rng.standard_normal((16, 8)) * 0.25
        s = (v["X"] @ v["Wq"]) @ (v["X"] @ v["Wk"]).T / math.sqrt(8)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        ref = (e / e.sum(axis=1, keepdims=True)) @ (v["X"] @ v["Wv"])
        return build(out), v, {"out": ref}
    if name == "logreg":
        x, y = input_matrix("X", 2 * n, 16), input_matrix("y", 2 * n, 1)
        w = input_matrix("w", 16, 1)
        out = w - (x.T @ (sigmoid(x @ w) - y)) * 0.1
        out.name = "out"
        v = {"X": rng.standard_normal((2 * n, 16)),
             "y": (rng.random((2 * n, 1)) < 0.5).astype(float),
             "w": rng.standard_normal((16, 1)) * 0.1}
        p = 1 / (1 + np.exp(-(v["X"] @ v["w"])))
        return build(out), v, {"out": v["w"] - 0.1 * (v["X"].T @ (p - v["y"]))}
    if name in ("matmul", "matmul_relu"):
        # Declared 0.5% dense, fed dense: the optimizer's plan spills more
        # than the workers' disks hold.
        a = input_matrix("A", 256, 256, sparsity=0.005, fmt=sparse_single())
        b = input_matrix("B", 256, 256, fmt=tiles(64))
        out = a @ b if name == "matmul" else relu(a @ b)
        out.name = "out"
        v = {"A": rng.standard_normal((256, 256)),
             "B": rng.standard_normal((256, 256))}
        ref = v["A"] @ v["B"]
        return build(out), v, {"out": ref if name == "matmul"
                               else np.maximum(ref, 0)}
    if name in ("hadamard", "hadamard_t"):
        # Declared dense, A is 1% dense: the estimate misses after the
        # first operator and the rest of the graph is re-planned.
        m = 3 * n
        a, b = input_matrix("A", m, m), input_matrix("B", m, m)
        left = a * b if name == "hadamard" else (a * b).T
        out = relu(left @ b)
        out.name = "out"
        av = rng.standard_normal((m, m)) * (rng.random((m, m)) < .01)
        bv = rng.standard_normal((m, m))
        prod = av * bv if name == "hadamard" else (av * bv).T
        return build(out), {"A": av, "B": bv}, {"out": np.maximum(
            prod @ bv, 0)}
    raise ValueError(f"unknown graph {name!r}")


class ExecuteChurn:
    name = "execute_churn"
    contains = {}
    #: The reference work that slows like this workload (NOTES.md).
    reference = "python"

    def reset(self) -> None:
        self.stream: list[Request] = []
        self.cases: dict = {}

    def setup(self, seed: int) -> None:
        self.stream = make_stream(seed)
        self.ctx = OptimizerContext(cluster=ClusterConfig(
            num_workers=WORKERS))
        self.robust_ctx = OptimizerContext(cluster=ClusterConfig(
            num_workers=WORKERS, disk_bytes=ROBUST_DISK_BYTES))
        service = PlannerService(self.ctx)
        rng = np.random.default_rng([seed, 5])
        self.cases = {}
        graphs = {}
        for key in PASS:
            trigger, name, variant = key
            if (trigger, name) not in graphs:
                graphs[trigger, name] = make_case(name, np.random.default_rng(
                    [seed, 6, len(graphs)]))
            graph, inputs, ref = graphs[trigger, name]
            ctx = self.robust_ctx if trigger == "robust" else self.ctx
            plan = service.optimize(graph, ctx)
            param = variant
            if trigger == "faults":
                param = int(rng.integers(2**31))
            self.cases[key] = (graph, plan, ctx, inputs, ref, param)
            # First executions belong to set-up; they also prove that each
            # trigger fires on these inputs.
            req = Request(key)
            out = self.request(req, Spans(False))
            self.check(req, out)
            if trigger != "faults" and self._replans(trigger, out[0]) < 1:
                raise CheckFailed(f"{req.key}: the trigger did not fire")

    def request(self, req: Request, spans):
        trigger = req.key[0]
        graph, plan, ctx, inputs, _, param = self.cases[req.key]
        with spans.request():
            with spans.call(f"churn.{trigger}"):
                if trigger == "dynamics":
                    worker, frontier = param
                    result = execute_with_dynamics(
                        plan, inputs, ctx, WorkerTimeline(
                            WORKERS, [crash_at_frontier(worker, frontier)]))
                elif trigger == "faults":
                    result = execute_plan(
                        plan, inputs, ctx,
                        faults=FaultConfig(seed=param, **FAULTS),
                        recovery=FAULT_RECOVERY)
                elif trigger == "robust":
                    result = execute_robust(graph, inputs, ctx)
                else:
                    result = execute_adaptive(graph, inputs, ctx,
                                              threshold=ADAPTIVE_THRESHOLD)
        stages = 0
        if spans.enabled:
            with spans.probe("lower"):
                stages = len(lower(plan, ctx))
        return result, stages

    def check(self, req: Request, out) -> tuple[float, float]:
        result, _ = out
        trigger = req.key[0]
        _, plan, _, _, ref, _ = self.cases[req.key]
        if trigger != "adaptive" and not result.ok:
            raise CheckFailed(f"{req.key}: run failed: {result.failure}")
        check_outputs(req.key, result.outputs, ref)
        if trigger == "robust":
            charged = result.ledger.total_seconds + sum(
                f.wasted_seconds for f in result.fallbacks)
        elif trigger == "adaptive":
            charged = result.simulated_seconds
        else:
            charged = result.ledger.total_seconds
        return plan.total_seconds, charged

    @staticmethod
    def _replans(trigger: str, result) -> int:
        if trigger == "dynamics":
            return len(result.replans)
        if trigger == "robust":
            return len(result.fallbacks)
        if trigger == "adaptive":
            return result.reoptimizations
        return 0

    def count(self, req: Request, out, counts) -> None:
        result, stages = out
        trigger = req.key[0]
        counts["requests"] += 1
        counts[f"churn.{trigger}"] += 1
        counts["lower.calls"] += 1
        counts["lower.stages"] += stages
        counts["replan.count"] += self._replans(trigger, result)
        if trigger == "adaptive":
            return
        if trigger == "faults":
            counts["recovery.retries"] += result.recovery.retries
        elif trigger == "robust":
            counts["recovery.retries"] += result.stats.retries
        by_category = result.ledger.seconds_by_category()
        counts["ledger.recovery_s"] += by_category.get("recovery", 0.0)
        counts["ledger.replan_s"] += by_category.get("replan", 0.0)
        count_execution(result.ledger, counts)
        counts["execute.stages_run"] += len(
            getattr(result, "executed_stages", ()))

