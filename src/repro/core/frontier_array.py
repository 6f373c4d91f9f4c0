"""Vectorized frontier search: the ``frontier="array"`` fast path.

Same algorithm as :mod:`repro.core.frontier` (paper Section 6) — identical
sweep order, identical dominance prune, identical tie-breaking — but the
per-class cost tables are column-oriented numpy arrays (a cost column plus
one integer-coded format column per class slot) instead of python dicts, so
the three hot loops run as array operations:

* **projection** — the transformation costs for a whole table column come
  from one memoized cost vector
  (:meth:`repro.core.registry.OptimizerContext.transform_cost_vector`,
  backed by the batched :func:`repro.core.transforms.transform_cost_table`
  / :meth:`repro.cost.CostModel.batch_seconds` entry points) and are added
  to the cost column elementwise;
* **apply + dedup** — the cross product over merged classes is a chain of
  outer sums, and the strict-``<`` keep-first dedup over joint states is a
  stable groupby/argmin over the integer-coded state rows;
* **dominance pruning** — each kept state (up to
  :data:`~repro.core.frontier.DOMINANCE_COMPARISONS` of them) marks every
  later candidate it dominates in one vectorized bound computation against
  per-slot Δ-matrices.  Each Δ-matrix is built from the same memoized cost
  vectors, one per format the consumer edge can request, and equals the
  object path's scalar ``_DominanceOracle.edge_delta`` cell for cell.

Bit-identity with the object path is load-bearing, not best-effort — the
differential harness in ``tests/core/test_differential.py`` asserts it.
Three invariants make it hold:

1. every floating-point cost is produced by the *same sequence of binary
   IEEE-754 additions* as the object path (class cost, then one add per
   input-edge transformation in edge order, then one add per merged class,
   then one add for the implementation) — slots whose formats already match
   contribute an exact ``+0.0`` from the Δ-matrix diagonal;
2. all sorts are stable (``kind="stable"``), reproducing python's stable
   ``sorted`` on equal costs;
3. every keep/replace decision uses the object path's strict-``<`` +
   first-insertion rule: a table key sits at its first-appearance position
   and is won by the *earliest* entry attaining its minimum cost.

Projections hold arrays only: adjusted costs, the class-table row of each
entry (``full_idx``) and the surviving members' format codes, re-encoded
into the new table's code space.  States and back-pointers
(:class:`~repro.core.frontier._Back`) are materialized only for entries
that survive dedup, pruning and the beam — the object path builds one per
strict improvement — by decoding the new key codes and reading each merged
class's full state (hence its transform choices and retiring formats)
back through ``full_idx``.  Plan reconstruction is shared with the object
path.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..obs.tracer import as_tracer
from .annotation import Plan, make_plan
from .frontier import (
    DOMINANCE_COMPARISONS,
    FrontierStats,
    State,
    _Back,
    _candidate_output_counts,
    _choose_next,
    _Class,
    _DominanceOracle,
    _reconstruct,
)
from .graph import ComputeGraph, VertexId
from .registry import OptimizerContext
from .tree_dp import OptimizationError

_MISSING = object()


# ----------------------------------------------------------------------
# Column-oriented class tables
# ----------------------------------------------------------------------
class _ArrayTable:
    """One class cost table as parallel columns.

    ``states[i]`` / ``costs[i]`` / ``backs[i]`` mirror one entry of the
    object path's ``dict[State, (cost, _Back)]`` in the same order;
    ``codes[i, s]`` is the integer code of ``states[i][s]`` within
    ``slot_fmts[s]`` (the distinct formats ever seen in slot ``s``, in
    first-appearance order).  Supports the mapping-style ``table[state]``
    lookup that plan reconstruction uses.
    """

    __slots__ = ("states", "costs", "backs", "codes", "slot_fmts", "_index")

    def __init__(self, states: list[State], costs: np.ndarray,
                 backs: list[_Back | None], codes: np.ndarray,
                 slot_fmts: tuple[tuple, ...]) -> None:
        self.states = states
        self.costs = costs
        self.backs = backs
        self.codes = codes
        self.slot_fmts = slot_fmts
        self._index: dict[State, int] | None = None

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, state: State):
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        i = self._index[state]
        return (self.costs[i], self.backs[i])

    def filtered(self, keep: np.ndarray) -> "_ArrayTable":
        """A new table with only the rows where ``keep`` is True."""
        idx = np.flatnonzero(keep)
        return _ArrayTable([self.states[i] for i in idx], self.costs[idx],
                           [self.backs[i] for i in idx], self.codes[idx],
                           self.slot_fmts)


# ----------------------------------------------------------------------
# Stable group-by over integer-coded state rows
# ----------------------------------------------------------------------
def _group_rows(codes: np.ndarray, cards: list[int]) -> np.ndarray:
    """Group id per row; two rows get the same id iff they are equal."""
    n, k = codes.shape
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    radix = 1
    for c in cards:
        radix *= max(1, c)
        if radix > 2 ** 62:
            break
    if radix <= 2 ** 62:
        keys = np.zeros(n, dtype=np.int64)
        for j in range(k):
            keys *= max(1, cards[j])
            keys += codes[:, j]
        _, inverse = np.unique(keys, return_inverse=True)
    else:  # pragma: no cover - needs >2^62 distinct joint states
        _, inverse = np.unique(codes, axis=0, return_inverse=True)
    return inverse.astype(np.int64, copy=False)


def _first_and_winner(inverse: np.ndarray, costs: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per group: index of first appearance, and of the winning entry.

    The winner is the *earliest* entry attaining the group's minimum cost —
    exactly the survivor of the object path's "replace only on strict
    improvement" dict updates.  Both outputs are aligned so that
    ``winner[j]`` wins the group whose first appearance is ``first[j]``,
    with groups listed in first-appearance order (= the object path's dict
    insertion order).
    """
    n = inverse.shape[0]
    idx = np.arange(n)
    n_groups = int(inverse.max()) + 1 if n else 0
    order_f = np.argsort(inverse, kind="stable")
    g = inverse[order_f]
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    first = np.empty(n_groups, dtype=np.int64)
    first[g[starts]] = order_f[starts]
    order_w = np.lexsort((idx, costs, inverse))
    gw = inverse[order_w]
    starts_w = np.flatnonzero(np.concatenate(([True], gw[1:] != gw[:-1])))
    winner = np.empty(n_groups, dtype=np.int64)
    winner[gw[starts_w]] = order_w[starts_w]
    appearance = np.argsort(first, kind="stable")
    return first[appearance], winner[appearance]


# ----------------------------------------------------------------------
# Vectorized dominance pruning
# ----------------------------------------------------------------------
def _delta_matrix(ctx: OptimizerContext, cache: dict, mtype, needs,
                  fmts: tuple) -> np.ndarray:
    """Δ-matrix for one (consumer edge, slot): ``D[a, b] = Δ_e(fmts[a],
    fmts[b])``, equal to :meth:`~repro.core.frontier._DominanceOracle.
    edge_delta` cell for cell.

    Built from one memoized transform-cost vector ``t_q`` per needed format
    ``q``: ``D[a, b] = max(0, max_q t_q[a] − t_q[b])`` over the ``q`` that
    ``fmts[b]`` can reach, ``inf`` where ``fmts[a]`` cannot reach such a
    ``q``.  Unreachable entries are masked before subtracting, so no
    ``inf − inf`` is ever formed.  The diagonal is an exact ``0.0`` (the
    object path skips equal-format slots, so their contribution must be a
    no-op add)."""
    key = (mtype, needs, fmts)
    got = cache.get(key)
    if got is None:
        k = len(fmts)
        got = np.zeros((k, k), dtype=np.float64)
        for q in needs:
            t = ctx.transform_cost_vector(mtype, fmts, q)
            reach = np.isfinite(t)
            if not reach.any():
                continue
            finite = np.where(reach, t, 0.0)
            gap = finite[:, None] - finite[None, :]
            gap[~reach, :] = np.inf   # a cannot feed q ...
            gap[:, ~reach] = 0.0      # ... which only matters if b can
            np.maximum(got, gap, out=got)
        np.fill_diagonal(got, 0.0)
        cache[key] = got
    return got


def _prune_rows(costs: np.ndarray, codes: np.ndarray,
                slot_deltas: list[list[np.ndarray]],
                stats: FrontierStats) -> np.ndarray | None:
    """Vectorized :func:`repro.core.frontier._dominance_prune`.

    Returns a keep-mask over the rows *in their original order*, or None
    when nothing is dominated.  Candidates are ranked by cost (stable);
    each kept state among the first ``DOMINANCE_COMPARISONS`` marks every
    later candidate whose cost strictly exceeds the kept cost plus the
    per-slot worst-case format-gap bounds — the same pairs the object
    path's pairwise loop considers, with the same strict-``<`` verdicts.
    """
    n = costs.shape[0]
    ranked = np.argsort(costs, kind="stable")
    rcosts = costs[ranked]
    rcodes = codes[ranked]
    dominated = np.zeros(n, dtype=bool)
    kept = 0
    for i in range(n):
        if dominated[i]:
            continue
        kept += 1
        if kept > DOMINANCE_COMPARISONS or i + 1 >= n:
            break
        bounds = np.full(n - i - 1, rcosts[i])
        for slot, mats in enumerate(slot_deltas):
            if not mats:
                continue
            ci = int(rcodes[i, slot])
            col = rcodes[i + 1:, slot]
            for mat in mats:
                bounds += mat[ci, col]
        np.logical_or(dominated[i + 1:], bounds < rcosts[i + 1:],
                      out=dominated[i + 1:])
    dropped = int(dominated.sum())
    if not dropped:
        return None
    stats.states_pruned += dropped
    keep = np.ones(n, dtype=bool)
    keep[ranked[dominated]] = False
    return keep


class _Pruner:
    """Shares the oracle's consumer-edge view and the Δ-matrix cache across
    one sweep."""

    def __init__(self, oracle: _DominanceOracle,
                 ctx: OptimizerContext) -> None:
        self.oracle = oracle
        self.ctx = ctx
        self.cache: dict = {}

    def slot_deltas(self, members: tuple[VertexId, ...],
                    slot_fmts) -> list[list[np.ndarray]]:
        """Per slot, the Δ-matrices of its remaining consumer edges."""
        return [[_delta_matrix(self.ctx, self.cache, mtype, needs,
                               tuple(fmts))
                 for mtype, needs in self.oracle.member_edges(m)]
                for m, fmts in zip(members, slot_fmts)]

    def prune_table(self, members: tuple[VertexId, ...],
                    table: _ArrayTable, stats: FrontierStats) -> _ArrayTable:
        if len(table) < 2 or not members:
            return table
        keep = _prune_rows(table.costs, table.codes,
                           self.slot_deltas(members, table.slot_fmts), stats)
        return table if keep is None else table.filtered(keep)


# ----------------------------------------------------------------------
# Projections
# ----------------------------------------------------------------------
class _Proj:
    """One class folded onto its surviving members for one needs tuple.

    Entry ``j`` mirrors one entry of the object path's
    ``sub-state -> (adjusted cost, full state, transform choices)``
    projection dict, in the same insertion order.  Only the arrays are
    kept: the full state, its transform choices and retiring formats are
    read back through ``full_idx`` for the few entries that survive into
    the new table (see the materialization step).  ``sub_codes`` carries
    the sub-states re-encoded into the *new* table's key-slot code space.
    """

    __slots__ = ("adj", "full_idx", "sub_codes")

    def __init__(self, adj, full_idx, sub_codes):
        self.adj = adj              # (n,) float64 adjusted costs
        self.full_idx = full_idx    # (n,) indices into the class table
        self.sub_codes = sub_codes  # (n, n_survivors) int64


def _recode(col: np.ndarray, fmts: tuple, fmt_codes: dict) -> np.ndarray:
    """Map one column of a class table's format codes into a new key slot.

    ``fmts`` decodes the old codes; ``fmt_codes`` (format -> new code) is
    extended in first-appearance order down the column, so codes and the
    new table's ``slot_fmts`` come out exactly as a per-row walk would
    assign them.
    """
    if col.shape[0] == 0:
        return col.copy()
    old_codes, first = np.unique(col, return_index=True)
    remap = np.zeros(len(fmts), dtype=np.int64)
    for code in old_codes[np.argsort(first)].tolist():
        fmt = fmts[code]
        new = fmt_codes.get(fmt)
        if new is None:
            new = len(fmt_codes)
            fmt_codes[fmt] = new
        remap[code] = new
    return remap[col]


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def optimize_dag_array(graph: ComputeGraph, ctx: OptimizerContext,
                       stats: FrontierStats | None = None,
                       max_states: int | None = None,
                       prune: bool | None = None,
                       order: str = "class-size",
                       tracer=None) -> Plan:
    """The ``frontier="array"`` implementation behind
    :func:`repro.core.frontier.optimize_dag` (which validates the knobs —
    call that, not this).  Parameters and returned plans/profiles match the
    object path exactly; see the module docstring for how."""
    if prune is None:
        prune = max_states is None
    started = time.perf_counter()
    graph.validate()
    stats = stats if stats is not None else FrontierStats()

    consumers_left: dict[VertexId, int] = {
        vid: graph.out_degree(vid) for vid in graph.vertex_ids}
    visited: set[VertexId] = set()
    pruner = _Pruner(_DominanceOracle(graph, ctx, visited), ctx) \
        if prune else None

    history: dict[int, _Class] = {}
    active: dict[int, _Class] = {}
    member_class: dict[VertexId, int] = {}
    next_cid = itertools.count()

    def new_class(members: tuple[VertexId, ...],
                  table: _ArrayTable) -> _Class:
        cls = _Class(next(next_cid), members, table)
        history[cls.cid] = cls
        active[cls.cid] = cls
        for m in members:
            member_class[m] = cls.cid
        stats.observe(len(members), len(table))
        return cls

    completed: list[tuple[float, tuple[int, State]]] = []

    for source in graph.sources:
        visited.add(source.vid)
        table = _ArrayTable([(source.format,)],
                            np.zeros(1, dtype=np.float64), [None],
                            np.zeros((1, 1), dtype=np.int64),
                            ((source.format,),))
        cls = new_class((source.vid,), table)
        if consumers_left[source.vid] == 0:
            completed.append((0.0, (cls.cid, (source.format,))))
            del active[cls.cid]

    unvisited = [v.vid for v in graph.inner_vertices]
    mark = time.perf_counter()
    candidate_counts = _candidate_output_counts(graph, ctx)
    stats.charge_phase("patterns", time.perf_counter() - mark)

    tracer = as_tracer(tracer)
    with tracer.span("sweep", kind="search-phase",
                     vertices=len(unvisited)) as sweep_span:
        while unvisited:
            mark = time.perf_counter()
            vid = _choose_next(graph, order, unvisited, visited, active,
                               member_class, consumers_left, candidate_counts)
            stats.charge_phase("order", time.perf_counter() - mark)
            stats.sweep_order.append(vid)
            unvisited.remove(vid)
            v = graph.vertex(vid)
            edges = graph.in_edges(vid)
            in_types = tuple(graph.vertex(p).mtype for p in v.inputs)
            mark = time.perf_counter()
            patterns = ctx.accepted_patterns(v.op, in_types)
            stats.charge_phase("patterns", time.perf_counter() - mark)
            if not patterns:
                raise OptimizationError(
                    f"no implementation accepts any formats at vertex {v.name!r}")

            mark = time.perf_counter()
            involved_cids = sorted({member_class[p] for p in v.inputs})
            involved = [active.pop(cid) for cid in involved_cids]
            if pruner is not None:
                for cls in involved:
                    cls.table = pruner.prune_table(cls.members, cls.table,
                                                   stats)
            joint_members: tuple[VertexId, ...] = tuple(
                m for cls in involved for m in cls.members)

            visited.add(vid)
            for edge in edges:
                consumers_left[edge.src] -= 1
            survivors = tuple(m for m in joint_members if consumers_left[m] > 0)
            v_survives = consumers_left[vid] > 0
            new_members = survivors + ((vid,) if v_survives else ())

            local_slot: dict[VertexId, int] = {}
            edges_of_class: dict[int, list] = {cls.cid: [] for cls in involved}
            class_of_member: dict[VertexId, int] = {}
            for cls in involved:
                for i, m in enumerate(cls.members):
                    local_slot[m] = i
                    class_of_member[m] = cls.cid
            for pos, edge in enumerate(edges):
                edges_of_class[class_of_member[edge.src]].append((edge, pos))
            # Per class: (state slot, edge, producer type) per edge into v,
            # and (state slot, member) per member retiring at this step.
            class_edges = {
                cls.cid: [(local_slot[edge.src], edge,
                           graph.vertex(edge.src).mtype)
                          for edge, _pos in edges_of_class[cls.cid]]
                for cls in involved}
            class_retiring = {
                cls.cid: [(i, m) for i, m in enumerate(cls.members)
                          if consumers_left[m] == 0]
                for cls in involved}

            groups: dict[tuple, dict] = {}
            for impl, in_fmts, out_fmt, impl_cost in patterns:
                outs = groups.setdefault(in_fmts, {})
                best = outs.get(out_fmt)
                if best is None or impl_cost < best[0]:
                    outs[out_fmt] = (impl_cost, impl)

            # Key-slot format -> code maps for the new table: one per
            # surviving member of each involved class (in class order),
            # plus one for the new vertex's output when it survives.
            class_surv_idx = {
                cls.cid: [i for i, m in enumerate(cls.members)
                          if consumers_left[m] > 0]
                for cls in involved}
            slot_offsets: dict[int, int] = {}
            off = 0
            for cls in involved:
                slot_offsets[cls.cid] = off
                off += len(class_surv_idx[cls.cid])
            n_key_slots = off + (1 if v_survives else 0)
            key_fmt_codes: list[dict] = [dict() for _ in range(n_key_slots)]

            proj_cache: dict[tuple, _Proj | None] = {}

            def project(cls: _Class, needs: tuple) -> _Proj | None:
                key = (cls.cid, needs)
                cached = proj_cache.get(key, _MISSING)
                if cached is not _MISSING:
                    return cached
                table: _ArrayTable = cls.table
                stats.states_examined += len(table)
                survivor_idx = class_surv_idx[cls.cid]
                # The same add sequence as the object path: class cost,
                # then one transformation cost per edge, in edge order.
                adjusted = table.costs.copy()
                for (slot, _edge, ptype), need in zip(class_edges[cls.cid],
                                                      needs):
                    tvec = ctx.transform_cost_vector(
                        ptype, table.slot_fmts[slot], need)
                    adjusted += tvec[table.codes[:, slot]]
                feas_idx = np.flatnonzero(np.isfinite(adjusted))
                if feas_idx.shape[0] == 0:
                    proj_cache[key] = None
                    return None
                adj = adjusted[feas_idx]
                sub = table.codes[np.ix_(feas_idx, survivor_idx)]
                inverse = _group_rows(
                    sub, [len(table.slot_fmts[i]) for i in survivor_idx])
                _first, winner = _first_and_winner(inverse, adj)
                full_idx = feas_idx[winner]
                adj = adj[winner]
                sub = sub[winner]
                if pruner is not None and len(adj) > 1 and survivor_idx:
                    deltas = pruner.slot_deltas(
                        tuple(cls.members[i] for i in survivor_idx),
                        [table.slot_fmts[i] for i in survivor_idx])
                    keep = _prune_rows(adj, sub, deltas, stats)
                    if keep is not None:
                        adj, full_idx, sub = adj[keep], full_idx[keep], \
                            sub[keep]
                # Encode the surviving sub-states into the new key space.
                base = slot_offsets[cls.cid]
                for j, i in enumerate(survivor_idx):
                    sub[:, j] = _recode(sub[:, j], table.slot_fmts[i],
                                        key_fmt_codes[base + j])
                proj = _Proj(adj, full_idx, sub)
                proj_cache[key] = proj
                return proj

            # ---------------- apply + cross product ----------------
            ecosts: list[np.ndarray] = []
            ekeys: list[np.ndarray] = []
            eprov: list[tuple] = []  # (projections, outs_list)
            out_codes_map = key_fmt_codes[-1] if v_survives else None
            for in_fmts, outs in groups.items():
                projections = []
                feasible = True
                for cls in involved:
                    needs = tuple(in_fmts[pos]
                                  for _edge, pos in edges_of_class[cls.cid])
                    proj = project(cls, needs)
                    if proj is None:
                        feasible = False
                        break
                    projections.append((cls, needs, proj))
                if not feasible:
                    continue
                # Outer-sum chain == the object path's per-class adds.
                base = np.zeros(1, dtype=np.float64)
                for _cls, _needs, proj in projections:
                    base = (base[:, None] + proj.adj[None, :]).ravel()
                n_combos = base.shape[0]
                outs_list = list(outs.items())
                n_outs = len(outs_list)
                impl_costs = np.array([c for _f, (c, _i) in outs_list],
                                      dtype=np.float64)
                costs_g = (base[:, None] + impl_costs[None, :]).ravel()

                combo_idx = np.arange(n_combos)
                blocks = []
                stride = n_combos
                for _cls, _needs, proj in projections:
                    size = proj.sub_codes.shape[0]
                    stride //= size
                    if proj.sub_codes.shape[1]:
                        blocks.append(
                            proj.sub_codes[(combo_idx // stride) % size])
                keys_combo = np.hstack(blocks) if blocks else \
                    np.empty((n_combos, 0), dtype=np.int64)
                keys_g = np.repeat(keys_combo, n_outs, axis=0)
                if v_survives:
                    ocol = np.empty(n_outs, dtype=np.int64)
                    for oi, (fmt, _ci) in enumerate(outs_list):
                        code = out_codes_map.get(fmt)
                        if code is None:
                            code = len(out_codes_map)
                            out_codes_map[fmt] = code
                        ocol[oi] = code
                    keys_g = np.hstack(
                        [keys_g, np.tile(ocol, n_combos)[:, None]])
                ecosts.append(costs_g)
                ekeys.append(keys_g)
                eprov.append((projections, outs_list))

            if not ecosts:
                raise OptimizationError(
                    f"no feasible annotation for vertex {v.name!r} "
                    f"({v.op.name} over {[str(t) for t in in_types]})")

            all_costs = np.concatenate(ecosts)
            all_keys = np.vstack(ekeys)
            group_sizes = [c.shape[0] for c in ecosts]
            cards = [len(d) for d in key_fmt_codes]
            inverse = _group_rows(all_keys, cards)
            _first, winner = _first_and_winner(inverse, all_costs)
            table_costs = all_costs[winner]
            table_keys = all_keys[winner]
            stats.charge_phase("project", time.perf_counter() - mark)

            if pruner is not None:
                mark = time.perf_counter()
                if len(table_costs) > 1 and new_members:
                    deltas = pruner.slot_deltas(
                        new_members, [tuple(d) for d in key_fmt_codes])
                    keep = _prune_rows(table_costs, table_keys, deltas,
                                       stats)
                    if keep is not None:
                        idx = np.flatnonzero(keep)
                        winner = winner[idx]
                        table_costs = table_costs[idx]
                        table_keys = table_keys[idx]
                stats.charge_phase("prune", time.perf_counter() - mark)

            if max_states is not None and len(table_costs) > max_states:
                stats.states_beamed += len(table_costs) - max_states
                beam = np.argsort(table_costs, kind="stable")[:max_states]
                winner = winner[beam]
                table_costs = table_costs[beam]
                table_keys = table_keys[beam]

            # Materialize states + back-pointers for the survivors only:
            # each new state decodes from its key codes, and each merged
            # class's full state (hence its transform choices and retiring
            # formats) is read back through the projection's ``full_idx``.
            mark = time.perf_counter()
            slot_fmts = tuple(tuple(d) for d in key_fmt_codes)
            bounds = np.cumsum([0] + group_sizes)
            group_of = np.searchsorted(bounds, winner, side="right") - 1
            states: list[State] = []
            backs: list[_Back | None] = []
            for entry, g, key_row in zip(winner.tolist(), group_of.tolist(),
                                         table_keys.tolist()):
                projections, outs_list = eprov[g]
                combo, out_i = divmod(entry - int(bounds[g]),
                                      len(outs_list))
                out_fmt, (_icost, impl) = outs_list[out_i]
                prev = []
                edge_choices = []
                retired = []
                stride = 1
                for _cls, _needs, proj in projections:
                    stride *= proj.sub_codes.shape[0]
                for cls, needs, proj in projections:
                    size = proj.sub_codes.shape[0]
                    stride //= size
                    fi = int(proj.full_idx[(combo // stride) % size])
                    full_state = cls.table.states[fi]
                    prev.append((cls.cid, full_state))
                    for (slot, edge, ptype), need in zip(
                            class_edges[cls.cid], needs):
                        transform = ctx.transform_choice(
                            ptype, full_state[slot], need)[0]
                        edge_choices.append((edge, transform, need))
                    retired.extend((m, full_state[i])
                                   for i, m in class_retiring[cls.cid])
                if not v_survives:
                    retired.append((vid, out_fmt))
                states.append(tuple(fmts[c]
                                    for fmts, c in zip(slot_fmts, key_row)))
                backs.append(_Back(vid, impl, tuple(edge_choices), out_fmt,
                                   tuple(prev), tuple(retired)))
            stats.charge_phase("materialize", time.perf_counter() - mark)

            new_table = _ArrayTable(states, table_costs, backs, table_keys,
                                    slot_fmts)
            cls = new_class(new_members, new_table)
            if not new_members:
                completed.append((float(table_costs[0]), (cls.cid, ())))
                del active[cls.cid]
        sweep_span.set(steps=len(stats.sweep_order),
                       states_examined=stats.states_examined,
                       states_pruned=stats.states_pruned,
                       states_beamed=stats.states_beamed,
                       max_class_size=stats.max_class_size,
                       max_table_size=stats.max_table_size)

    if active:  # pragma: no cover - defensive; all vertices should retire
        raise OptimizationError(
            f"frontier did not fully retire: {sorted(active)}")

    mark = time.perf_counter()
    with tracer.span("reconstruct", kind="search-phase",
                     components=len(completed)):
        annotation = _reconstruct(history, completed)
    stats.charge_phase("reconstruct", time.perf_counter() - mark)
    elapsed = time.perf_counter() - started
    return make_plan(graph, annotation, ctx, "frontier", elapsed,
                     profile=stats.profile(frontier="array"))
