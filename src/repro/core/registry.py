"""Optimization context: catalogs + cluster + cost model, with memoization.

Every optimizer (brute force, tree DP, frontier DP) and every baseline
planner works against an :class:`OptimizerContext`, which bundles

* the physical format catalog :math:`\\mathcal{P}`,
* the implementation catalog :math:`\\mathcal{I}`,
* the transformation catalog :math:`\\mathcal{T}`,
* the cluster description and the regression cost model.

The context memoizes implementation typing/costing and transformation
lookup, which is what makes the dynamic programs fast: each
implementation's pattern enumeration runs once per ``(op, input types)``
and feeds every menu, and each ``(type, source, target)`` transformation
is costed once however many batched cost vectors it appears in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cost.features import CostFeatures
from ..cost.model import CostModel, CostWeights, DEFAULT_WEIGHTS
from ..cluster import DEFAULT_CLUSTER, ClusterConfig
from .atoms import AtomicOp, is_fused
from .formats import DEFAULT_FORMATS, PhysicalFormat
from .implementations import (
    DEFAULT_IMPLEMENTATIONS,
    OpImplementation,
    fused_implementations,
)
from .transforms import (
    DEFAULT_TRANSFORMS,
    FormatTransform,
    find_transform,
    transform_cost_table,
)
from .types import MatrixType

#: (transform, features, cost-in-seconds)
TransformChoice = tuple[FormatTransform, CostFeatures, float]


@dataclass
class OptimizerContext:
    """Shared state for one optimization problem instance."""

    cluster: ClusterConfig = DEFAULT_CLUSTER
    formats: tuple[PhysicalFormat, ...] = DEFAULT_FORMATS
    implementations: tuple[OpImplementation, ...] = DEFAULT_IMPLEMENTATIONS
    transforms: tuple[FormatTransform, ...] = DEFAULT_TRANSFORMS
    weights: CostWeights = DEFAULT_WEIGHTS
    #: When False, transformation costs are ignored during search — the
    #: ablation of the paper's key idea (costs are still *incurred* when the
    #: chosen plan is evaluated or executed).
    charge_transforms: bool = True

    def __post_init__(self) -> None:
        self.cost_model = CostModel(self.cluster, self.weights)
        self._impl_cache: dict = {}
        self._transform_cache: dict = {}
        self._transform_vec_cache: dict = {}
        self._transform_pair_cache: dict = {}
        self._pattern_cache: dict = {}
        self._impls_by_op: dict[AtomicOp, tuple[OpImplementation, ...]] = {}

    # ------------------------------------------------------------------
    def impls_for(self, op: AtomicOp) -> tuple[OpImplementation, ...]:
        """Catalog implementations with ``i.a == op``.

        Fused atoms (created by the logical rewrite layer) are not part of
        the static catalog; their implementations come from the interned
        fused-implementation registry instead.
        """
        cached = self._impls_by_op.get(op)
        if cached is None:
            cached = tuple(i for i in self.implementations if i.op == op)
            if not cached and is_fused(op):
                cached = fused_implementations(op)
            self._impls_by_op[op] = cached
        return cached

    # ------------------------------------------------------------------
    def transform_choice(
        self,
        mtype: MatrixType,
        src: PhysicalFormat,
        dst: PhysicalFormat,
    ) -> TransformChoice | None:
        """Cheapest catalog transformation from ``src`` to ``dst``."""
        key = (mtype, src, dst)
        if key in self._transform_cache:
            return self._transform_cache[key]
        found = find_transform(mtype, src, dst, self.cluster,
                               self.transforms,
                               cost_of=self.cost_model.seconds)
        if found is None:
            result = None
        else:
            transform, feats = found
            cost = self.cost_model.seconds(feats)
            result = None if cost == float("inf") else \
                (transform, feats, cost)
        self._transform_cache[key] = result
        return result

    def search_transform_cost(self, mtype: MatrixType, src: PhysicalFormat,
                              dst: PhysicalFormat) -> float | None:
        """Transform cost as *seen by the search* (0 under the ablation)."""
        choice = self.transform_choice(mtype, src, dst)
        if choice is None:
            return None
        return choice[2] if self.charge_transforms else 0.0

    def transform_cost_vector(
        self,
        mtype: MatrixType,
        srcs: tuple[PhysicalFormat, ...],
        dst: PhysicalFormat,
    ) -> np.ndarray:
        """Batched :meth:`search_transform_cost` over many source formats.

        Returns a read-only float64 array: entry ``i`` equals
        ``search_transform_cost(mtype, srcs[i], dst)`` with ``None`` encoded
        as ``inf`` (so infeasible states fall out of a vectorized
        ``isfinite`` mask).  Memoized per ``(mtype, srcs, dst)`` — the
        vectorized frontier asks once per (class slot, needed format) pair
        per sweep, and builds its dominance Δ-matrices from these vectors.

        Underneath sits a per-pair memo: the same ``(mtype, src, dst)``
        pair recurs under many ``srcs`` tuples (a slot's formats in
        first-appearance order), so only pairs never seen before are costed,
        in one batched cost-model evaluation
        (:func:`repro.core.transforms.transform_cost_table`).  That
        evaluation is elementwise, so every cost is bit-identical to the
        scalar path's whatever batch it was computed in.
        """
        key = (mtype, srcs, dst)
        cached = self._transform_vec_cache.get(key)
        if cached is None:
            pairs = self._transform_pair_cache
            unseen = [src for src in dict.fromkeys(srcs)
                      if (mtype, src, dst) not in pairs]
            if unseen:
                costs = transform_cost_table(
                    mtype, unseen, dst, self.cluster, self.transforms,
                    batch_cost=self.cost_model.batch_seconds)
                for src, cost in zip(unseen, costs):
                    pairs[(mtype, src, dst)] = cost
            cached = np.array([pairs[(mtype, src, dst)] for src in srcs],
                              dtype=np.float64)
            if not self.charge_transforms:
                cached[np.isfinite(cached)] = 0.0
            cached.setflags(write=False)
            self._transform_vec_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def _candidate_patterns(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[tuple[OpImplementation,
                     tuple[tuple[tuple[PhysicalFormat, ...],
                                 PhysicalFormat], ...]], ...]:
        """Every implementation of ``op`` with its enumerated ``(input
        formats, output format)`` patterns over the format catalog.

        The enumeration calls ``output_format`` once per catalog cross
        product entry (361 calls for a binary implementation over 19
        formats), so it runs once per ``(op, in_types)`` and the three menus
        below all derive from it.
        """
        key = (op, in_types)
        cached = self._pattern_cache.get(key)
        if cached is None:
            cached = tuple(
                (impl, tuple(impl.candidate_patterns(in_types, self.formats,
                                                     self.cluster)))
                for impl in self.impls_for(op))
            self._pattern_cache[key] = cached
        return cached

    def output_candidates(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[PhysicalFormat, ...]:
        """All output formats any implementation of ``op`` can produce for
        the given input types, over the context's format catalog.

        This per-vertex candidate pruning never excludes an optimal plan:
        a format no implementation can output can never label the vertex.
        Memoized, and derived from the same per-``(op, in_types)`` pattern
        enumeration as :meth:`accepted_patterns` and :meth:`typed_patterns`.
        """
        key = ("outputs", op, in_types)
        if key in self._impl_cache:
            return self._impl_cache[key]
        seen: dict[PhysicalFormat, None] = {}
        for _impl, patterns in self._candidate_patterns(op, in_types):
            for _, out in patterns:
                seen.setdefault(out, None)
        result = tuple(seen)
        self._impl_cache[key] = result
        return result

    def accepted_patterns(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[tuple[OpImplementation, tuple[PhysicalFormat, ...],
                     PhysicalFormat, float], ...]:
        """Every (impl, input formats, output format, cost) tuple accepted by
        some implementation of ``op``: the :meth:`typed_patterns` rows whose
        cost is finite, in the same order.  Memoized: this is the inner
        loop of both dynamic programs."""
        key = (op, in_types)
        if key in self._impl_cache:
            return self._impl_cache[key]
        result = tuple(row for row in self.typed_patterns(op, in_types)
                       if row[3] != math.inf)
        self._impl_cache[key] = result
        return result

    def typed_patterns(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[tuple[OpImplementation, tuple[PhysicalFormat, ...],
                     PhysicalFormat, float], ...]:
        """Like :meth:`accepted_patterns`, but *without* the runtime-cost
        feasibility filter: patterns whose execution would exceed worker
        disk/RAM are included with infinite cost.

        Baseline (human/heuristic) planners use this menu — a programmer
        does not know ahead of time that a plan will die from too much
        intermediate data, which is exactly how the paper's hand-written
        plans produced "Fail" entries.
        """
        key = ("typed", op, in_types)
        if key in self._impl_cache:
            return self._impl_cache[key]
        rows = []
        for impl, patterns in self._candidate_patterns(op, in_types):
            for in_fmts, out_fmt in patterns:
                feats = impl.features(tuple(in_types), in_fmts, self.cluster)
                cost = self.cost_model.seconds(feats)
                rows.append((impl, in_fmts, out_fmt, cost))
        result = tuple(rows)
        self._impl_cache[key] = result
        return result
