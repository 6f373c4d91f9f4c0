"""Optimizer search-effort profiles.

Every physical search attaches an :class:`OptimizerProfile` to the plan it
returns: how many joint states the dynamic program examined, how many the
dominance prune discarded, how large the cost tables grew, the vertex sweep
order it chose, and where the wall-clock time went.  ``explain`` and
``whatif --profile`` render it; the ``ext_optimizer_scaling`` experiment
charts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OptimizerProfile:
    """Search-effort summary of one physical optimization run."""

    #: Which search produced the plan ("frontier", "tree_dp", ...).
    algorithm: str
    #: Joint table states examined during projection/apply steps.
    states_explored: int = 0
    #: States discarded by the (lossless) dominance prune.
    states_pruned: int = 0
    #: States discarded by the (lossy) ``max_states`` beam.
    states_beamed: int = 0
    #: Largest class cost table seen at any point of the sweep.
    peak_table_size: int = 0
    #: Largest equivalence class (in member vertices) seen.
    max_class_size: int = 0
    #: Inner-vertex ids in the order the sweep consumed them.
    sweep_order: tuple[int, ...] = ()
    #: Wall-clock seconds per search phase: "patterns" (implementation
    #: menus and candidate-output counts), "order", "project" (projection,
    #: apply and dedup), "prune" (dominance prune; absent when off),
    #: "materialize" (array frontier only: states and back-pointers of the
    #: surviving entries) and "reconstruct".
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: True when the plan carrying this profile was served from the
    #: :class:`repro.service.PlanCache` rather than searched afresh.  The
    #: counters above then describe the original cold run.
    cache_hit: bool = False
    #: Which frontier-table implementation ran (``"array"`` / ``"object"``),
    #: or None for non-frontier searches.  The two implementations report
    #: identical state counters; only this tag and the wall-clock phase
    #: timings tell them apart.
    frontier: str | None = None
    #: Number of queries co-planned with this one by
    #: :func:`repro.core.batch.optimize_batch` (0 for solo requests).
    #: The search counters above then describe the one merged-DAG search
    #: that produced every plan in the batch.
    batch_queries: int = 0
    #: Names of this query's vertices whose results the batch plan
    #: computes once and shares with at least one other query
    #: (cross-query CSE provenance; empty for solo requests).
    shared_subplans: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-compatible payload; inverse of :meth:`from_dict`."""
        return {
            "algorithm": self.algorithm,
            "states_explored": self.states_explored,
            "states_pruned": self.states_pruned,
            "states_beamed": self.states_beamed,
            "peak_table_size": self.peak_table_size,
            "max_class_size": self.max_class_size,
            "sweep_order": list(self.sweep_order),
            "phase_seconds": dict(self.phase_seconds),
            "cache_hit": self.cache_hit,
            "frontier": self.frontier,
            "batch_queries": self.batch_queries,
            "shared_subplans": list(self.shared_subplans),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OptimizerProfile":
        return cls(
            algorithm=payload["algorithm"],
            states_explored=payload.get("states_explored", 0),
            states_pruned=payload.get("states_pruned", 0),
            states_beamed=payload.get("states_beamed", 0),
            peak_table_size=payload.get("peak_table_size", 0),
            max_class_size=payload.get("max_class_size", 0),
            sweep_order=tuple(payload.get("sweep_order", ())),
            phase_seconds=dict(payload.get("phase_seconds", {})),
            cache_hit=payload.get("cache_hit", False),
            frontier=payload.get("frontier"),
            batch_queries=payload.get("batch_queries", 0),
            shared_subplans=tuple(payload.get("shared_subplans", ())),
        )

    def record(self, metrics) -> None:
        """Charge this profile's effort counters to a metrics registry.

        ``metrics`` is a :class:`repro.obs.metrics.MetricsRegistry`;
        counters accumulate across runs, gauges keep high-water marks.
        """
        metrics.count("optimizer.states_explored", self.states_explored)
        metrics.count("optimizer.states_pruned", self.states_pruned)
        metrics.count("optimizer.states_beamed", self.states_beamed)
        metrics.gauge("optimizer.peak_table_size", self.peak_table_size)
        metrics.gauge("optimizer.max_class_size", self.max_class_size)
        if self.frontier is not None:
            metrics.count(f"optimizer.frontier.{self.frontier}_runs")

    def describe(self) -> str:
        """Multi-line human-readable rendering."""
        served = " [served from plan cache]" if self.cache_hit else ""
        algo = self.algorithm if self.frontier is None \
            else f"{self.algorithm}/{self.frontier}"
        lines = [
            f"optimizer profile ({algo}){served}: "
            f"{self.states_explored} states explored, "
            f"{self.states_pruned} dominance-pruned, "
            f"{self.states_beamed} beam-dropped",
            f"  peak table {self.peak_table_size} states, "
            f"max class {self.max_class_size} vertices",
        ]
        if self.phase_seconds:
            parts = ", ".join(f"{name} {secs:.3f}s"
                              for name, secs in self.phase_seconds.items())
            lines.append(f"  phases: {parts}")
        if self.batch_queries:
            shared = ", ".join(self.shared_subplans[:8]) or "none"
            if len(self.shared_subplans) > 8:
                shared += f", ... ({len(self.shared_subplans)} vertices)"
            lines.append(
                f"  batch: co-planned with {self.batch_queries} queries; "
                f"shared subplans: {shared}")
        if self.sweep_order:
            shown = self.sweep_order[:16]
            order = ", ".join(str(v) for v in shown)
            if len(self.sweep_order) > len(shown):
                order += f", ... ({len(self.sweep_order)} vertices)"
            lines.append(f"  sweep order: [{order}]")
        return "\n".join(lines)
