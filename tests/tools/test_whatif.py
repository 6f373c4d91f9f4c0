"""Tests for the what-if analysis tooling."""

import math

import pytest

from repro.cluster import ClusterConfig, simsql_cluster
from repro.service import PlannerService
from repro.tools import (
    format_family_contributions,
    recommend_workers,
    render_sweep,
    sweep_workers,
)
from repro.tools.whatif import chaos_preview
from repro.workloads.ffnn import FFNNConfig, ffnn_backprop_to_w2
from repro.workloads.mlalgs import linear_regression


@pytest.fixture(scope="module")
def ffnn_graph():
    return ffnn_backprop_to_w2(
        FFNNConfig(batch=2000, features=10_000, hidden=8000))


class TestSweep:
    def test_more_workers_never_slower(self, ffnn_graph):
        points = sweep_workers(ffnn_graph, simsql_cluster, (2, 5, 10, 20),
                               max_states=500)
        times = [p.seconds for p in points if p.feasible]
        assert len(times) == 4
        assert times == sorted(times, reverse=True)

    def test_plans_adapt_to_cluster(self):
        """Fig 7's observation: the best plan depends on the cluster."""
        graph = ffnn_backprop_to_w2(FFNNConfig(hidden=160_000))
        points = sweep_workers(graph, simsql_cluster, (5, 25),
                               max_states=500)
        assert all(p.feasible for p in points)
        impls_small = {i.name for i in
                       points[0].plan.annotation.impls.values()}
        impls_big = {i.name for i in
                     points[1].plan.annotation.impls.values()}
        # Not necessarily different, but both must be valid plans; record
        # that at least the costs differ strongly.
        assert points[0].seconds > 1.5 * points[1].seconds
        assert impls_small and impls_big

    def test_render(self, ffnn_graph):
        points = sweep_workers(ffnn_graph, simsql_cluster, (2, 5),
                               max_states=300)
        text = render_sweep(points)
        assert "workers" in text and "x" in text


class TestRecommendation:
    def test_meets_target(self, ffnn_graph):
        generous = recommend_workers(ffnn_graph, simsql_cluster,
                                     target_seconds=1e9,
                                     candidates=(2, 5), max_states=300)
        assert generous is not None
        assert generous.workers == 2

    def test_unreachable_target(self, ffnn_graph):
        assert recommend_workers(ffnn_graph, simsql_cluster,
                                 target_seconds=1e-3,
                                 candidates=(2, 5), max_states=300) is None

    def test_picks_smallest_sufficient(self, ffnn_graph):
        points = sweep_workers(ffnn_graph, simsql_cluster, (2, 5, 10),
                               max_states=300)
        target = points[1].seconds  # achievable at 5, not at 2
        if points[0].seconds <= target:
            pytest.skip("2 workers already meet the target")
        best = recommend_workers(ffnn_graph, simsql_cluster, target,
                                 candidates=(2, 5, 10), max_states=300)
        assert best.workers == 5


class TestFormatContributions:
    def test_reports_ranked_contributions(self):
        workload = linear_regression(100_000, 2000)
        base, contributions = format_family_contributions(
            workload.graph, simsql_cluster(10), max_states=300)
        assert math.isfinite(base)
        assert contributions
        slowdowns = [c.slowdown for c in contributions]
        assert slowdowns == sorted(slowdowns, reverse=True)
        assert all(c.slowdown >= 1.0 - 1e-9 or math.isinf(c.slowdown)
                   for c in contributions)

    def test_source_families_protected(self):
        workload = linear_regression(100_000, 2000)
        _, contributions = format_family_contributions(
            workload.graph, simsql_cluster(10), max_states=300)
        protected = {s.format.layout for s in workload.graph.sources}
        assert all(c.family not in protected for c in contributions)


class TestRewritesKnob:
    def test_sweep_with_rewrites_never_slower(self):
        from repro.workloads.attention import AttentionConfig, \
            attention_graph

        graph = attention_graph(AttentionConfig())
        plain = sweep_workers(graph, simsql_cluster, (5,), max_states=300)
        rewritten = sweep_workers(graph, simsql_cluster, (5,),
                                  max_states=300, rewrites="all")
        assert rewritten[0].seconds <= plain[0].seconds
        assert rewritten[0].plan.pipeline is not None


class TestBadKnobs:
    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_sweep_rejects_bad_max_states_up_front(self, ffnn_graph, bad):
        """Before the loop, so the error is not swallowed into a sweep of
        infeasible points."""
        with pytest.raises(ValueError, match="max_states"):
            sweep_workers(ffnn_graph, simsql_cluster, (2, 5),
                          max_states=bad)


def _tiny_ram(num_workers: int) -> ClusterConfig:
    """A cluster on which no plan of ``ffnn_graph`` fits in worker RAM."""
    return ClusterConfig(num_workers=num_workers, ram_bytes=1e6)


class TestInfeasibleVersusDefect:
    """Only "no plan fits" reads as an infeasible point; a defect in the
    search propagates instead of reading as a cluster that cannot run the
    workload."""

    def test_infeasible_size_reads_fail(self, ffnn_graph):
        points = sweep_workers(ffnn_graph, _tiny_ram, (2,), max_states=300,
                               planner=PlannerService())
        assert not points[0].feasible and math.isinf(points[0].seconds)
        assert "Fail" in render_sweep(points)
        (preview,) = chaos_preview(ffnn_graph, _tiny_ram, (3,),
                                   max_states=300, planner=PlannerService())
        assert math.isinf(preview.healthy_seconds)
        assert math.isinf(preview.penalty)

    @pytest.fixture
    def broken_search(self, monkeypatch):
        """Make every search after the first raise a ``KeyError``."""
        import repro.core.optimizer as optimizer

        real = optimizer._optimize_physical
        calls = []

        def search(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise KeyError("injected defect")
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_optimize_physical", search)

    def test_defect_propagates_from_sweep(self, ffnn_graph, broken_search):
        with pytest.raises(KeyError, match="injected"):
            sweep_workers(ffnn_graph, simsql_cluster, (2, 5),
                          max_states=300, planner=PlannerService())

    def test_defect_propagates_from_family_contributions(self,
                                                         broken_search):
        workload = linear_regression(100_000, 2000)
        with pytest.raises(KeyError, match="injected"):
            format_family_contributions(
                workload.graph, simsql_cluster(10), max_states=300,
                planner=PlannerService())

    def test_defect_propagates_from_chaos_preview(self, ffnn_graph,
                                                  broken_search):
        with pytest.raises(KeyError, match="injected"):
            chaos_preview(ffnn_graph, simsql_cluster, (5,), max_states=300,
                          planner=PlannerService())


class TestCli:
    def test_sweep_output(self, capsys):
        from repro.tools.whatif import main

        assert main(["--workload", "attention", "--workers", "2,5",
                     "--target", "1e9"]) == 0
        out = capsys.readouterr().out
        assert "workload attention" in out
        assert "rewrites=pipeline" in out
        assert "rewrite passes fired:" in out
        assert "smallest cluster meeting" in out

    def test_no_rewrites_flag(self, capsys):
        from repro.tools.whatif import main

        assert main(["--workload", "attention", "--workers", "2",
                     "--no-rewrites"]) == 0
        out = capsys.readouterr().out
        assert "rewrites=off" in out
        assert "rewrite passes fired:" not in out

    def test_rewrites_engine_flag(self, capsys):
        from repro.tools.whatif import main

        assert main(["--workload", "attention", "--workers", "2",
                     "--rewrites", "egraph"]) == 0
        out = capsys.readouterr().out
        assert "rewrites=egraph" in out
        assert "saturation:" in out
        assert "iterations" in out

    def test_negative_max_states_rejected(self, capsys):
        """A negative beam is a usage error, not a sweep of infeasible
        points."""
        from repro.tools.whatif import main

        with pytest.raises(SystemExit):
            main(["--workload", "attention", "--workers", "2",
                  "--max-states", "-1"])
        assert "--max-states" in capsys.readouterr().err

    def test_rewrites_flag_conflict(self, capsys):
        from repro.tools.whatif import main

        with pytest.raises(SystemExit):
            main(["--workload", "attention", "--workers", "2",
                  "--rewrites", "egraph", "--no-rewrites"])

    def test_timeline_flag_renders_gantt(self, capsys):
        from repro.tools.whatif import main

        assert main(["--workload", "attention", "--workers", "2,5",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "timeline at 2 workers:" in out
        assert "critical path" in out
        assert "#" in out
