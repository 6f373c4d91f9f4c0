"""Shared machinery of the benchmark: spans, statistics and the timed loop.

Every workload is a closed loop: one client sends the next request only
after the previous one returned.  The loop runs whole passes over the
workload's seeded request stream until ``--seconds`` have elapsed, so every
run measures the same request mix however fast the program is.

Spans are recorded by the benchmark itself, around the public calls it
makes into each layer (nothing inside the program is instrumented):

* one root span per request (``request``), which is also the latency;
* one child span per front-door call made inside the request;
* probe spans, run after the root span closes, that re-time a layer's
  public call on the same input when the front door runs that layer
  internally (``PlannerService.optimize`` re-runs ``rewrite_stage``,
  ``request_fingerprint`` and ``physical_plan``; ``execute_plan`` runs
  ``lower``).  A front door's self time is its span minus its probes.

Wall times are reported at a reference speed (see ``Reference``): the
machine this was written on changes speed by itself.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

#: How often set-up runs in one process; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: Samples that must lie above the reported tail percentile.
TAIL_SAMPLES = 10

#: Factors by which the seed scales a workload's sizes.  Narrow on
#: purpose: single requests' latencies change in steps with the drawn
#: scale (NOTES.md, "What the pools leave out").
SCALES = (0.98, 1.0, 1.02)


def scaled(base: int, scale: float) -> int:
    """``base`` times ``scale``, rounded; a dimension of 1 stays 1, so
    shapes that chain through a vector still chain."""
    return base if base == 1 else int(round(base * scale))


class CheckFailed(Exception):
    """An output check rejected a request's result."""


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def reference_numpy() -> float:
    """Fixed small-matrix numpy work."""
    x = _REFERENCE_MATRIX
    for _ in range(20):
        x = np.maximum(x @ _REFERENCE_MATRIX * 0.01, 0.0) + x.T
    return float(x[0, 0])


def reference_python() -> int:
    """Fixed interpreter work: dict, tuple, str and call traffic."""
    table: dict = {}
    total = 0
    for i in range(4000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + len(sorted(table.items(), key=lambda kv: kv[1]))


#: name -> (reference work, seconds it takes at the reference speed: about
#: its mean time on the 2.1 GHz Xeon VM this was written on).  Wall times
#: are reported as they would read on a machine that runs the reference
#: work in that time.
REFERENCE_WORK = {
    "numpy": (reference_numpy, 0.0006),
    "python": (reference_python, 0.002),
}

#: Least time between two reference samples in the timed loop.
REFERENCE_EVERY = 0.05


class Reference:
    """Samples the machine's speed with fixed work of the benchmark's own
    (``REFERENCE_WORK[kind]``), which does not depend on the program.

    The machine this benchmark was written on switches between a fast and
    a slow state several times a second, and the share of time it spends
    in the slow state drifts over minutes: five back-to-back runs of one
    workload differed by up to 1.44x in throughput (NOTES.md).  How much
    the slow state slows code depends on the code (interpreter work more
    than numpy calls), so each workload names the reference work that
    slows like its own requests.  A wall time multiplied by a ``speed``
    measured while it ran reads as it would at the reference speed.
    """

    def __init__(self, kind: str) -> None:
        self.work, self.nominal = REFERENCE_WORK[kind]
        self.samples: list[float] = []
        self.seconds = 0.0
        self.last = -math.inf

    def sample(self) -> None:
        # A collection of the program's garbage is no machine slowdown.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.work()
        self.last = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(self.last - start)
        self.seconds += self.last - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REFERENCE_EVERY:
            self.sample()

    @property
    def speed(self) -> float:
        """Speed over all samples (1 without samples)."""
        if not self.samples:
            return 1.0
        return self.nominal / statistics.fmean(self.samples)

    def speed_around(self, index: int) -> float:
        """Speed from the samples just before and just after sample
        ``index`` was due: the last taken before a request and the first
        taken after it."""
        last = len(self.samples) - 1
        before = self.samples[min(max(index - 1, 0), last)]
        after = self.samples[min(index, last)]
        return self.nominal / ((before + after) / 2)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    request: int
    layer: str
    kind: str           # "root", "call" or "probe"
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder; with ``enabled=False`` only the root span's
    duration (the request latency) is kept."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: list[Span] = []
        self.request_id = -1
        self.last_latency = 0.0

    @contextmanager
    def request(self):
        self.request_id += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.last_latency = end - start
            if self.enabled:
                self.records.append(
                    Span(self.request_id, "request", "root", start, end))

    @contextmanager
    def _span(self, layer: str, kind: str):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append(Span(self.request_id, layer, kind, start,
                                     time.perf_counter()))

    def call(self, layer: str):
        """A front-door call made inside the current request."""
        return self._span(layer, "call")

    def probe(self, layer: str):
        """A layer's public call re-timed outside the request span."""
        return self._span(layer, "probe")


#: Probe layers whose self time is charged to another layer: the pipeline
#: rewrite that ``physical_plan``'s never-worse fallback runs for an
#: e-graph request is rewrite work inside the search probe.
CHARGED_TO = {"fallback": "rewrite"}


def self_seconds(records: list[Span],
                 contains: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Total self time per layer over ``records``.

    A call or probe span's self time is its duration minus the probes
    (same request) of the layers it is known to contain, then charged to
    ``CHARGED_TO``'s layer where it names one.  ``request`` self time is
    the root span minus its call spans: the benchmark's own work inside
    the request.
    """
    by_request: dict[int, list[Span]] = {}
    for span in records:
        by_request.setdefault(span.request, []).append(span)
    totals: Counter = Counter()

    def charge(layer: str, seconds: float) -> None:
        totals[CHARGED_TO.get(layer, layer)] += seconds

    for spans in by_request.values():
        probes: Counter = Counter()
        for span in spans:
            if span.kind == "probe":
                probes[span.layer] += span.seconds

        def inner(layer: str) -> float:
            return sum(probes[p] for p in contains.get(layer, ()))

        for layer, seconds in probes.items():
            charge(layer, seconds - inner(layer))
        calls = 0.0
        for span in spans:
            if span.kind == "call":
                calls += span.seconds
                charge(span.layer, span.seconds - inner(span.layer))
        for span in spans:
            if span.kind == "root":
                totals["request"] += span.seconds - calls
    return dict(totals)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(latencies: list[float], share_above: Fraction | None = None
         ) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_SAMPLES`` samples above
    it, as ``(value, percentile)``; with ``share_above``, the percentile
    with that share of the samples above it (at least ``TAIL_SAMPLES``).

    With ``n`` sorted samples and ``k`` of them above, that is the sample
    at index ``n - k - 1`` (nearest rank), at percentile ``100 * (n - k) /
    n``.  With ``k`` or fewer samples no percentile qualifies; the maximum
    is returned at percentile 100.
    """
    if not latencies:
        raise ValueError("no latencies")
    ordered = sorted(latencies)
    n = len(ordered)
    above = TAIL_SAMPLES
    if share_above is not None:
        above = max(above, math.ceil(n * share_above))
    if n <= above:
        return ordered[-1], 100.0
    return ordered[n - above - 1], 100.0 * (n - above) / n


def peak_rss_mb() -> float:
    """Resident-memory high-water mark of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    passes: int = 0
    latencies: list[float] = field(default_factory=list)
    #: The machine's speed around each request (``Reference.speed_around``)
    #: and over the whole loop (``Reference.speed``); 1 without reference.
    speeds: list[float] = field(default_factory=list)
    speed: float = 1.0
    #: Summed request latency of each untraced / traced pass (traced runs
    #: only).
    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    #: ``(predicted, charged)`` simulated seconds of each distinct request
    #: key, from its first occurrence.
    sim_seconds: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    spans: Spans = field(default_factory=Spans)


def run_loop(workload, stream: list, seconds: float, trace: bool,
             reference: Reference | None = None) -> LoopResult:
    """Run whole passes over ``stream`` until ``seconds`` have elapsed.

    A run holds at least the workload's ``min_passes`` passes (1 if it
    names none).  A request counts as failed when its call raises or its
    output check rejects the result; either way the loop goes on.  With
    ``trace``, passes alternate untraced/traced (at least one of each) and
    only the traced passes record spans and per-layer counts.  With
    ``reference``,
    the loop starts and ends with a reference sample and takes one after
    each request once ``REFERENCE_EVERY`` has passed since the last;
    ``wall`` leaves their time out.
    """
    min_passes = max(2 if trace else 1, getattr(workload, "min_passes", 1))
    result = LoopResult(spans=Spans(False))
    spans_on = Spans(True)
    spans_off = result.spans
    due: list[int] = []
    if reference:
        reference.sample()
        sampled = reference.seconds
    start = time.perf_counter()
    while True:
        traced = trace and result.passes % 2 == 1
        spans = spans_on if traced else spans_off
        pass_seconds = 0.0
        for req in stream:
            result.attempted += 1
            if reference:
                due.append(len(reference.samples))
            try:
                out = workload.request(req, spans)
                sim = workload.check(req, out)
                if traced:
                    workload.count(req, out, result.counts)
            except Exception:
                result.failed += 1
                print(f"request {req.key!r} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            else:
                result.sim_seconds.setdefault(req.key, sim)
            result.latencies.append(spans.last_latency)
            pass_seconds += spans.last_latency
            if reference:
                reference.maybe_sample()
        (result.traced if traced else result.untraced).append(pass_seconds)
        result.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and result.passes >= min_passes:
            break
    result.wall = time.perf_counter() - start
    if reference:
        result.wall -= reference.seconds - sampled
        reference.sample()
        result.speeds = [reference.speed_around(k) for k in due]
        result.speed = reference.speed
    else:
        result.speeds = [1.0] * len(result.latencies)
    result.spans = spans_on
    return result


def timed_setups(workload, seed: int) -> list[float]:
    """Set the workload up ``SETUP_REPEATS`` times; the last state stays."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload.reset()
        started = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - started)
    return times


def end_to_end(workload, loop: LoopResult, setup_seconds: float
               ) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one untraced run.

    Wall times are scaled to the reference speed: each request's latency
    by the speed around it, the loop's wall time and the set-up time
    (seconds before the loop) by the loop's speed.
    """
    latencies = [lat * speed for lat, speed in zip(loop.latencies,
                                                   loop.speeds)]
    share = getattr(workload, "tail_share", None)
    tail_value, tail_pct = tail(latencies, share)
    throughput = (loop.attempted - loop.failed) / loop.wall
    raw_tail, _ = tail(loop.latencies, share)
    print(f"# {workload.name}: {loop.attempted} requests in {loop.passes} "
          f"passes over {loop.wall:.2f} s; latency_tail_ms is "
          f"p{tail_pct:.1f} of {len(latencies)} requests")
    print(f"# wall clock, with the machine at {loop.speed:.4f}x the "
          f"reference speed: setup {setup_seconds:.4f} s, {throughput:.3f} "
          f"requests/s, median {statistics.median(loop.latencies) * 1e3:.4f}"
          f" ms, tail {raw_tail * 1e3:.4f} ms")
    return {
        "setup_s": (setup_seconds * loop.speed, "s"),
        "requests_per_s": (throughput / loop.speed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "plan_sim_s": (math.fsum(p for p, _ in loop.sim_seconds.values()),
                       "sim_s"),
        "exec_sim_s": (math.fsum(e for _, e in loop.sim_seconds.values()),
                       "sim_s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(workload, loop: LoopResult) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run.

    Times are self seconds per traced request (so the layers' shares add
    up to the request time), except ``churn.*_ms``, which are per call of
    that trigger; they are scaled by the loop's speed.  Counts are per
    traced request unless NOTES.md says otherwise.  A layer the workload
    never calls reads 0.
    """
    c = loop.counts
    selfs = self_seconds(loop.spans.records, workload.contains)
    requests = c["requests"]

    def ms(layer: str, base: float = requests) -> float:
        if not base:
            return 0.0
        return 1e3 * loop.speed * selfs.get(layer, 0.0) / base

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    kept = (c["search.states_explored"] - c["search.states_pruned"]
            - c["search.states_beamed"])
    overhead = (statistics.median(loop.traced)
                / statistics.median(loop.untraced) - 1.0)
    return {
        "request.self_ms": (ms("request"), "ms"),
        "sql.parse_ms": (ms("sql"), "ms"),
        "sql.statements": (ratio("sql.statements", "sql.requests"),
                           "count"),
        "lang.build_ms": (ms("lang"), "ms"),
        "lang.vertices": (ratio("lang.vertices", "lang.builds"), "count"),
        "rewrite.ms": (ms("rewrite"), "ms"),
        "rewrite.applied": (ratio("rewrite.applied", "requests"), "count"),
        "rewrite.adopted_ratio": (ratio("rewrite.adopted",
                                        "rewrite.requests"), "fraction"),
        "rewrite.egraph_e_nodes": (ratio("rewrite.egraph_e_nodes",
                                         "egraph.requests"), "count"),
        "rewrite.egraph_deadline_stops": (
            c["rewrite.egraph_deadline_stops"] / max(1, loop.passes // 2),
            "count"),
        "fingerprint.ms": (ms("fingerprint"), "ms"),
        "service.self_ms": (ms("service"), "ms"),
        "service.hit_rate": (ratio("service.hits", "service.requests"),
                             "fraction"),
        "service.plans_cached": (c["service.plans_cached"], "count"),
        "search.ms": (ms("search"), "ms"),
        "search.states_explored": (ratio("search.states_explored",
                                         "requests"), "count"),
        "search.states_pruned": (ratio("search.states_pruned", "requests"),
                                 "count"),
        "search.states_beamed": (ratio("search.states_beamed", "requests"),
                                 "count"),
        "search.kept_ratio": (kept / c["search.states_explored"]
                              if c["search.states_explored"] else 0.0,
                              "fraction"),
        "search.peak_table_size": (c["search.peak_table_size"], "count"),
        "batch.ms": (ms("batch"), "ms"),
        "batch.cse_hits": (ratio("batch.cse_hits", "batch.requests"),
                           "count"),
        "batch.shared_subplans": (ratio("batch.shared_subplans",
                                        "batch.requests"), "count"),
        "lower.ms": (ms("lower"), "ms"),
        "lower.stages": (ratio("lower.stages", "lower.calls"), "count"),
        "execute.ms": (ms("execute"), "ms"),
        "execute.stages_run": (ratio("execute.stages_run", "requests"),
                               "count"),
        "execute.flops": (ratio("execute.flops", "requests"), "flop"),
        "execute.net_bytes": (ratio("execute.net_bytes", "requests"), "B"),
        "churn.dynamics_ms": (ms("churn.dynamics", c["churn.dynamics"]),
                              "ms"),
        "churn.faults_ms": (ms("churn.faults", c["churn.faults"]), "ms"),
        "churn.robust_ms": (ms("churn.robust", c["churn.robust"]), "ms"),
        "churn.adaptive_ms": (ms("churn.adaptive", c["churn.adaptive"]),
                              "ms"),
        "replan.count": (ratio("replan.count", "requests"), "count"),
        "recovery.retries": (ratio("recovery.retries", "requests"), "count"),
        "ledger.recovery_s": (ratio("ledger.recovery_s", "requests"),
                              "sim_s"),
        "ledger.replan_s": (ratio("ledger.replan_s", "requests"), "sim_s"),
        "failure_rate": (loop.failed / loop.attempted, "fraction"),
        "trace.overhead_frac": (overhead, "fraction"),
    }
