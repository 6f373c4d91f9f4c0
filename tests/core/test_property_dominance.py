"""Property test: the vectorized dominance mask vs the pairwise oracle.

:func:`repro.core.frontier._prune_rows` is the vectorized twin of the
per-state oracle's ``_dominance_prune`` (``frontier_oracle.py``): rank
candidates by cost (stable, so insertion order breaks ties), let each of
the first :data:`~repro.core.frontier.DOMINANCE_COMPARISONS` *kept* states
mark every later candidate whose cost strictly exceeds the kept cost plus
the summed per-slot Δ bounds.  This suite drives both over randomly generated cost
tables and Δ-matrices — with deliberately tie-rich costs drawn from a tiny
grid, ``inf`` gaps, and zero diagonals — and demands the exact same keep
set, in the same order, with the same ``states_pruned`` accounting.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import (
    DOMINANCE_COMPARISONS,
    FrontierStats,
    _prune_rows,
)

#: Tie-rich cost grid: a handful of values so equal costs (and therefore
#: insertion-order tie-breaks) occur in nearly every generated table.
COST_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]

#: Δ entries: zero (free), small, large, and unreachable.
DELTA_GRID = [0.0, 0.25, 1.0, math.inf]


def pairwise_oracle(costs, codes, slot_deltas):
    """The per-state oracle's pairwise loop, re-stated over array inputs.

    Returns ``(keep_mask, dropped_count)``.  Candidates are visited in
    stable cost order (``sorted`` is stable, so equal costs keep their
    original — i.e. insertion — order); a candidate is dominated when any
    of the first ``DOMINANCE_COMPARISONS`` kept states beats it with a
    strictly smaller completed bound.
    """
    n = len(costs)
    order = sorted(range(n), key=lambda i: costs[i])
    kept: list[int] = []
    dropped: set[int] = set()
    for j in order:
        dominated = False
        for i in kept[:DOMINANCE_COMPARISONS]:
            bound = costs[i]
            for slot, mats in enumerate(slot_deltas):
                for mat in mats:
                    bound += mat[codes[i, slot], codes[j, slot]]
            if bound < costs[j]:
                dominated = True
                break
        if dominated:
            dropped.add(j)
        else:
            kept.append(j)
    keep = np.ones(n, dtype=bool)
    for j in dropped:
        keep[j] = False
    return keep, len(dropped)


@st.composite
def prune_case(draw, max_states=24):
    """A random (costs, codes, slot_deltas) pruning problem."""
    n = draw(st.integers(2, max_states))
    n_slots = draw(st.integers(0, 3))
    costs = np.array(draw(st.lists(st.sampled_from(COST_GRID),
                                   min_size=n, max_size=n)))
    slot_sizes = [draw(st.integers(1, 3)) for _ in range(n_slots)]
    codes = np.zeros((n, max(n_slots, 1)), dtype=np.int64)[:, :n_slots]
    for s, k in enumerate(slot_sizes):
        codes[:, s] = draw(st.lists(st.integers(0, k - 1),
                                    min_size=n, max_size=n))
    slot_deltas = []
    for k in slot_sizes:
        mats = []
        for _ in range(draw(st.integers(0, 2))):
            mat = np.zeros((k, k))
            for a in range(k):
                for b in range(k):
                    if a != b:
                        mat[a, b] = draw(st.sampled_from(DELTA_GRID))
            mats.append(mat)
        slot_deltas.append(mats)
    return costs, codes, slot_deltas


def run_both(costs, codes, slot_deltas):
    stats = FrontierStats()
    mask = _prune_rows(costs, codes, slot_deltas, stats)
    expected, dropped = pairwise_oracle(costs, codes, slot_deltas)
    return mask, stats, expected, dropped


@settings(max_examples=300, deadline=None)
@given(prune_case())
def test_mask_matches_pairwise_oracle(case):
    """The vectorized mask keeps exactly what the strict-< oracle keeps."""
    costs, codes, slot_deltas = case
    mask, stats, expected, dropped = run_both(costs, codes, slot_deltas)
    if dropped == 0:
        assert mask is None  # "nothing dominated" is reported as None
        assert stats.states_pruned == 0
    else:
        assert mask is not None
        assert np.array_equal(mask, expected)
        assert stats.states_pruned == dropped


@settings(max_examples=100, deadline=None)
@given(prune_case(max_states=60))
def test_mask_matches_oracle_past_the_comparison_cap(case):
    """Tables larger than DOMINANCE_COMPARISONS: the cap applies to the
    *kept* states doing the marking, identically in both implementations."""
    costs, codes, slot_deltas = case
    mask, stats, expected, dropped = run_both(costs, codes, slot_deltas)
    if dropped == 0:
        assert mask is None
    else:
        assert np.array_equal(mask, expected)
        assert stats.states_pruned == dropped


class TestTiesAndInsertionOrder:
    def test_equal_costs_never_dominate(self):
        """Strict <: two states of equal cost and zero gaps both survive."""
        costs = np.array([1.0, 1.0, 1.0])
        codes = np.zeros((3, 1), dtype=np.int64)
        deltas = [[np.zeros((1, 1))]]
        mask, stats, expected, dropped = run_both(costs, codes, deltas)
        assert mask is None and dropped == 0

    def test_survivors_keep_original_order(self):
        """The mask is over rows in their original order — the caller's
        filtered table preserves insertion order, exactly like filtering
        the per-state oracle's dict."""
        # Rows: cheap (kept), expensive same-format (dominated), and an
        # unreachable-format row (kept: inf gap voids the bound).
        costs = np.array([2.0, 1.0, 3.0, 2.5])
        codes = np.array([[1], [0], [0], [1]], dtype=np.int64)
        delta = np.zeros((2, 2))
        delta[0, 1] = delta[1, 0] = math.inf
        mask, stats, expected, dropped = run_both(costs, codes, [[delta]])
        # Same-format dominations only: row1 (cost 1.0) beats row2 (3.0);
        # row0 (2.0) beats row3 (2.5) despite ranking after row1.
        assert list(mask) == [True, True, False, False]
        assert np.array_equal(mask, expected)
        assert stats.states_pruned == dropped == 2

    @staticmethod
    def _cap_case(prefix):
        """``prefix`` mutually-incomparable kept states (one format each,
        ``inf`` gaps between distinct formats), then a dominator/target
        pair sharing one further format."""
        k = prefix + 1
        costs = np.concatenate([np.arange(prefix) * 0.001, [10.0], [11.0]])
        codes = np.array([[i] for i in range(prefix)] + [[prefix], [prefix]],
                         dtype=np.int64)
        delta = np.full((k, k), math.inf)
        np.fill_diagonal(delta, 0.0)
        return costs, codes, [[delta]]

    def test_comparison_cap_limits_the_markers(self):
        """The 49th kept state marks nobody: a candidate only it could
        dominate survives, in both implementations."""
        costs, codes, deltas = self._cap_case(DOMINANCE_COMPARISONS)
        mask, stats, expected, dropped = run_both(costs, codes, deltas)
        # The only possible dominator of the target is the (cap+1)-th kept
        # state — beyond the cap, so nothing is pruned.
        assert mask is None and dropped == 0

    def test_target_pruned_when_dominator_is_inside_the_cap(self):
        """Shrink the kept prefix by one: the same dominator now acts."""
        costs, codes, deltas = self._cap_case(DOMINANCE_COMPARISONS - 1)
        mask, stats, expected, dropped = run_both(costs, codes, deltas)
        assert mask is not None and dropped == 1
        assert not mask[-1]
        assert np.array_equal(mask, expected)
