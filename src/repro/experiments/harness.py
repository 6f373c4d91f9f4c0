"""Experiment harness: table rendering and common planning helpers.

Every experiment in :mod:`repro.experiments.figures` produces an
:class:`ExperimentTable` whose rows mirror the corresponding table/figure of
the paper.  Times are *simulated seconds* formatted H:MM:SS as in the paper;
optimizer times are real wall-clock seconds of this machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.annotation import Plan
from ..core.registry import OptimizerContext
from ..engine.executor import format_hms
from ..service.planner import PlannerService


@dataclass
class ExperimentTable:
    """One paper table/figure reproduction."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: str) -> None:
        self.rows.append([str(c) for c in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def cell(self, row_label: str, column: str) -> str:
        """Look up one cell by its row label (first column) and header."""
        col = self.headers.index(column)
        for row in self.rows:
            if row[0] == row_label:
                return row[col]
        raise KeyError(f"no row labelled {row_label!r}")

    def render(self) -> str:
        """Markdown-style rendering, aligned for terminals."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: list[str]) -> str:
            return "| " + " | ".join(
                c.ljust(w) for c, w in zip(cells, widths)) + " |"

        out = [f"## {self.experiment_id}: {self.title}",
               line(self.headers),
               "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out.extend(line(row) for row in self.rows)
        out.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(out)


def display_time(seconds: float) -> str:
    """Paper-style table cell: H:MM:SS, or Fail for an infeasible run."""
    if not math.isfinite(seconds):
        return "Fail"
    return format_hms(seconds)


def plan_cell(plan: Plan) -> str:
    """Table cell for a plan's simulated running time."""
    return display_time(plan.total_seconds)


def opt_time_cell(plan: Plan) -> str:
    """Table cell for the (real) optimization time, paper style ``(:SS)``."""
    secs = plan.optimize_seconds
    if secs >= 60:
        return f"({int(secs // 60):d}:{int(secs % 60):02d})"
    return f"(:{int(round(secs)):02d})"


def auto_cell(plan: Plan) -> str:
    """Combined runtime + optimization-time cell, e.g. ``12:06 (:02)``."""
    return f"{plan_cell(plan)} {opt_time_cell(plan)}"


def fresh_context(cluster, **kwargs) -> OptimizerContext:
    """A new optimizer context for one experiment configuration."""
    return OptimizerContext(cluster=cluster, **kwargs)


_SERVICE: PlannerService | None = None


def planner_service() -> PlannerService:
    """The process-wide planner service shared by the experiment suite.

    Experiments plan through one service so repeated configurations —
    re-running a figure, the plan-cache benchmark replaying fig05/09/10
    workloads, overlapping ablation sweeps — hit the plan cache instead of
    re-searching.  Fig 13 bypasses it on purpose: it *measures* optimizer
    runtimes, which a cache would fake.
    """
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = PlannerService(cache_capacity=512)
    return _SERVICE


def reset_planner_service() -> PlannerService:
    """Fresh shared service (cold cache); returns the new instance."""
    global _SERVICE
    _SERVICE = None
    return planner_service()


def plan_with_service(graph, ctx: OptimizerContext, *,
                      max_states: int | None = None,
                      rewrites="none") -> Plan:
    """Optimize one experiment configuration through the shared service."""
    return planner_service().optimize(graph, ctx, max_states=max_states,
                                      rewrites=rewrites)


def manual_plan(graph, ctx: OptimizerContext,
                spec: dict[str, tuple[str, tuple]],
                name: str = "manual") -> Plan:
    """Construct a plan from explicit per-vertex choices.

    ``spec`` maps each inner vertex's name to ``(implementation name,
    input formats)``; the needed edge transformations are looked up
    automatically.  Used to reproduce the paper's hand-specified
    implementations (e.g. Fig 1's two alternatives).
    """
    from ..core.annotation import Annotation, make_plan
    from ..core.implementations import DEFAULT_IMPLEMENTATIONS

    by_name = {impl.name: impl for impl in DEFAULT_IMPLEMENTATIONS}
    annotation = Annotation()
    formats = {v.vid: v.format for v in graph.sources}
    for v in graph.inner_vertices:
        impl_name, in_fmts = spec[v.name]
        impl = by_name[impl_name]
        in_types = tuple(graph.vertex(p).mtype for p in v.inputs)
        for edge, need in zip(graph.in_edges(v.vid), in_fmts):
            producer = graph.vertex(edge.src)
            choice = ctx.transform_choice(producer.mtype, formats[edge.src],
                                          need)
            if choice is None:
                raise ValueError(
                    f"{name}: no transformation {formats[edge.src]} -> "
                    f"{need} for edge into {v.name!r}")
            annotation.transforms[edge] = (choice[0], need)
        out_fmt = impl.output_format(in_types, tuple(in_fmts), ctx.cluster)
        if out_fmt is None:
            raise ValueError(
                f"{name}: {impl_name} rejects {list(map(str, in_fmts))} "
                f"at vertex {v.name!r}")
        annotation.impls[v.vid] = impl
        formats[v.vid] = out_fmt
    return make_plan(graph, annotation, ctx, name, allow_infeasible=True)
