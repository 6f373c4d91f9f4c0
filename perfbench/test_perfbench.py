"""Tests of the benchmark itself (not of the program under test).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
from harness import CheckFailed, LoopResult, Span, Spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
class TestTail:
    def test_ten_or_fewer_samples_report_the_maximum(self):
        assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
        assert harness.tail(list(range(10))) == (9, 100.0)

    def test_exactly_ten_samples_lie_above(self):
        samples = list(range(100))
        value, pct = harness.tail(samples)
        assert value == 89 and pct == 90.0
        assert sum(s > value for s in samples) == 10

    def test_eleven_samples(self):
        value, pct = harness.tail([float(i) for i in range(11)])
        assert value == 0.0
        assert pct == pytest.approx(100 / 11)

    def test_a_share_above_keeps_its_place_as_samples_grow(self):
        share = Fraction(1, 9)
        assert harness.tail(list(range(90)), share) == (79, 100 * 80 / 90)
        assert harness.tail(list(range(135)), share) == (119, 100 * 120 / 135)
        # Never fewer than ten samples above.
        assert harness.tail(list(range(45)), share) == harness.tail(
            list(range(45)))

    def test_order_does_not_matter(self):
        samples = [5, 1, 9, 3, 7, 2, 8, 6, 4, 0, 12, 11, 10]
        assert harness.tail(samples) == harness.tail(sorted(samples))


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
class _Req:
    def __init__(self, key):
        self.key = key


class _Flaky:
    """Request 1 raises, request 2 fails its check, the rest pass."""

    contains: dict = {}

    def request(self, req, spans):
        with spans.request():
            if req.key == 1:
                raise RuntimeError("boom")
        return req.key

    def check(self, req, out):
        if out == 2:
            raise CheckFailed("wrong answer")
        return 1.0, 2.0

    def count(self, req, out, counts):
        counts["requests"] += 1


def test_failures_are_counted_and_the_loop_goes_on(capsys):
    stream = [_Req(k) for k in range(4)]
    loop = harness.run_loop(_Flaky(), stream, seconds=0.0, trace=False)
    assert (loop.attempted, loop.failed, loop.passes) == (4, 2, 1)
    assert len(loop.latencies) == 4
    assert set(loop.sim_seconds) == {0, 3}
    assert "boom" in capsys.readouterr().err


def test_a_run_holds_the_workloads_minimum_passes():
    class TwoPasses(_Flaky):
        min_passes = 2

    loop = harness.run_loop(TwoPasses(), [_Req(0)], seconds=0.0,
                            trace=False)
    assert loop.passes == 2


def test_traced_runs_alternate_and_count_only_traced_passes():
    stream = [_Req(k) for k in (0, 3)]
    loop = harness.run_loop(_Flaky(), stream, seconds=0.0, trace=True)
    assert loop.passes == 2
    assert len(loop.untraced) == len(loop.traced) == 1
    assert loop.counts["requests"] == 2
    assert {s.kind for s in loop.spans.records} == {"root"}


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
def test_speed_is_the_reference_time_over_the_mean_sample():
    ref = harness.Reference("numpy")
    assert ref.speed == 1.0
    ref.samples = [0.001, 0.002, 0.006]
    assert ref.speed == pytest.approx(ref.nominal / 0.003)


def test_speed_around_a_request_uses_the_samples_before_and_after():
    ref = harness.Reference("python")
    ref.samples = [0.001, 0.003, 0.009]
    r = ref.nominal
    assert ref.speed_around(1) == pytest.approx(r / 0.002)
    assert ref.speed_around(2) == pytest.approx(r / 0.006)
    # Clamped at both ends.
    assert ref.speed_around(0) == pytest.approx(r / 0.001)
    assert ref.speed_around(3) == pytest.approx(r / 0.009)


def test_reference_samples_are_left_out_of_the_loop_wall_time():
    ref = harness.Reference("numpy")
    started = time.perf_counter()
    loop = harness.run_loop(_Flaky(), [_Req(0), _Req(3)], seconds=0.0,
                            trace=False, reference=ref)
    elapsed = time.perf_counter() - started
    # The requests take far less than REFERENCE_EVERY: one sample before
    # the loop and one after it, around both requests.
    assert len(ref.samples) == 2
    assert 0.0 <= loop.wall <= elapsed - ref.seconds
    assert loop.speeds == [ref.speed_around(1)] * 2
    assert loop.speed == ref.speed


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_probes_and_calls():
    records = [
        Span(0, "request", "root", 0.0, 10.0),
        Span(0, "service", "call", 1.0, 9.0),
        Span(0, "rewrite", "probe", 11.0, 13.0),
        Span(0, "search", "probe", 13.0, 18.0),
        Span(1, "request", "root", 20.0, 21.0),
        Span(1, "service", "call", 20.0, 21.0),
    ]
    totals = harness.self_seconds(records,
                                  {"service": ("rewrite", "search")})
    assert totals["request"] == pytest.approx(2.0)
    assert totals["service"] == pytest.approx(1.0 + 1.0)
    assert totals["rewrite"] == pytest.approx(2.0)
    assert totals["search"] == pytest.approx(5.0)


def test_a_probe_inside_a_probe_is_charged_to_its_layer():
    records = [
        Span(0, "request", "root", 0.0, 10.0),
        Span(0, "service", "call", 0.0, 10.0),
        Span(0, "rewrite", "probe", 11.0, 13.0),
        Span(0, "search", "probe", 13.0, 20.0),
        Span(0, "fallback", "probe", 20.0, 23.0),
    ]
    totals = harness.self_seconds(records, {"service": ("rewrite", "search"),
                                            "search": ("fallback",)})
    assert totals["search"] == pytest.approx(7.0 - 3.0)
    assert totals["rewrite"] == pytest.approx(2.0 + 3.0)
    assert totals["service"] == pytest.approx(10.0 - 2.0 - 7.0)
    assert "fallback" not in totals


def test_disabled_spans_keep_only_the_latency():
    spans = Spans(False)
    with spans.request():
        with spans.call("service"):
            pass
    assert spans.records == [] and spans.last_latency >= 0.0


# ----------------------------------------------------------------------
# Printed metric names match BENCHMARK.json
# ----------------------------------------------------------------------
class _Named:
    name = "fake"
    contains: dict = {}


def _loop() -> LoopResult:
    loop = LoopResult(attempted=4, failed=0, wall=2.0, passes=2,
                      latencies=[0.1, 0.2, 0.3, 0.4],
                      speeds=[1.0, 1.0, 1.0, 1.0],
                      untraced=[0.1, 0.2], traced=[0.3, 0.4],
                      sim_seconds={"a": (1.0, 2.0)},
                      counts=Counter(requests=2))
    loop.spans = Spans(True)
    return loop


def test_end_to_end_names_and_units_match_benchmark_json():
    printed = harness.end_to_end(_Named(), _loop(), 1.5)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in printed.items()} == declared


def test_per_layer_names_and_units_match_benchmark_json():
    printed = harness.per_layer(_Named(), _loop())
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in printed.items()} == declared


def test_wall_times_are_scaled_to_the_reference_speed():
    plain = harness.end_to_end(_Named(), _loop(), 1.5)
    loop = _loop()
    loop.speeds = [2.0, 2.0, 4.0, 4.0]
    loop.speed = 3.0
    scaled = harness.end_to_end(_Named(), loop, 1.5)
    assert scaled["setup_s"][0] == pytest.approx(3.0 * plain["setup_s"][0])
    assert scaled["requests_per_s"][0] == pytest.approx(
        plain["requests_per_s"][0] / 3.0)
    # Latencies 0.1 to 0.4 s become 0.2, 0.4, 1.2 and 1.6 s.
    assert scaled["latency_p50_ms"][0] == pytest.approx(800.0)
    assert scaled["latency_tail_ms"][0] == pytest.approx(1600.0)
    for name in ("plan_sim_s", "exec_sim_s"):
        assert scaled[name] == plain[name]


def test_workloads_match_benchmark_json():
    import run
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS
    for name in run.WORKLOADS:
        assert run.load_workload(name).reference in harness.REFERENCE_WORK


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Seeded streams
# ----------------------------------------------------------------------
def _streams():
    import churn
    import execute
    import plan_cold
    import sql_repeat

    return {
        "plan_cold": plan_cold.make_stream,
        "sql_repeat": lambda seed: (sql_repeat.make_stream(seed),
                                    sql_repeat.make_pool(seed)),
        "execute": execute.make_stream,
        "execute_churn": churn.make_stream,
    }


@pytest.mark.parametrize("workload", ["plan_cold", "sql_repeat", "execute",
                                      "execute_churn"])
def test_same_seed_same_stream_other_seed_other_stream(workload):
    make = _streams()[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_plan_cold_pass_holds_the_same_mix_for_every_seed():
    import plan_cold

    assert len(plan_cold.make_stream(1)) == plan_cold.PASS_LENGTH

    def mix(seed):
        return sorted((r.family, r.engine, r.key[4])
                      for r in plan_cold.make_stream(seed))

    assert mix(1) != mix(2)
    assert [m[:2] for m in mix(1)] == [m[:2] for m in mix(2)]


# ----------------------------------------------------------------------
# Exit codes
# ----------------------------------------------------------------------
def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
