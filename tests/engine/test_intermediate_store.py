"""Property and reconciliation suite for the shared intermediate store.

Three layers:

* Hypothesis properties over scripted put/fetch sequences (with stub
  stored matrices, so thousands of operations run in milliseconds): the
  store never exceeds its byte budget, oversized offers are rejected,
  and replaying a sequence reproduces the exact same entries and
  counters — eviction is a pure function of the operation history;
* a subprocess probe that replays one scripted history under
  ``PYTHONHASHSEED=0``, ``42`` and ``12345`` and demands bit-identical
  store state — no interpreter hash randomization may leak into
  eviction order;
* real executions through :func:`repro.engine.executor.execute_plan`:
  every ``intermediate_cache`` second the ledgers charge reconciles
  exactly with the store's own fetch/store accounting, warm runs do
  strictly less work than cold ones, and a starved budget degrades to
  plain recomputation without corrupting results.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptimizerContext, optimize
from repro.core.formats import col_strips, row_strips
from repro.engine import (
    INTERMEDIATE_CACHE,
    IntermediateStore,
    execute_plan,
)
from repro.lang import build, input_matrix

SRC = str(Path(__file__).resolve().parents[2] / "src")


# ----------------------------------------------------------------------
# Stub stored matrices: CacheEntry only reads relation.total_bytes and
# relation.home, so properties need none of the real storage machinery.
# ----------------------------------------------------------------------
class _FakeRelation:
    def __init__(self, total_bytes: float, home: dict) -> None:
        self.total_bytes = total_bytes
        self.home = home


class _FakeStored:
    def __init__(self, total_bytes: float, workers=(0,)) -> None:
        self.relation = _FakeRelation(
            total_bytes, {i: w for i, w in enumerate(workers)})


PUTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),      # key id
              st.floats(min_value=1.0, max_value=200.0,    # nbytes
                        allow_nan=False),
              st.floats(min_value=0.0, max_value=10.0,     # seconds saved
                        allow_nan=False)),
    min_size=1, max_size=40)


class TestBudgetProperties:
    @given(budget=st.floats(min_value=50.0, max_value=400.0,
                            allow_nan=False), puts=PUTS)
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_budget(self, budget, puts):
        store = IntermediateStore(budget)
        for key_id, nbytes, saved in puts:
            admitted, _ = store.put(f"k{key_id}", _FakeStored(nbytes),
                                    seconds_saved=saved)
            assert store.used_bytes <= store.budget_bytes
            assert admitted == (nbytes <= budget)
            if not admitted:
                assert f"k{key_id}" not in store or \
                    store.entries[f"k{key_id}"].nbytes != nbytes
        assert store.rejected == sum(1 for _, nbytes, _ in puts
                                     if nbytes > budget)

    @given(puts=PUTS, fetches=st.lists(
        st.integers(min_value=0, max_value=12), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_replay_is_deterministic(self, puts, fetches):
        """Same history => same entries, same counters, same order."""
        snapshots = []
        for _ in range(2):
            store = IntermediateStore(300.0)
            for key_id, nbytes, saved in puts:
                store.put(f"k{key_id}", _FakeStored(nbytes),
                          seconds_saved=saved)
            for key_id in fetches:
                if f"k{key_id}" in store:
                    store.fetch(f"k{key_id}")
            snapshots.append((list(store.entries),
                              [(e.nbytes, e.seconds_saved, e.hits, e.seq)
                               for e in store.entries.values()],
                              store.stats()))
        assert snapshots[0] == snapshots[1]

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            IntermediateStore(0)

    def test_eviction_drops_lowest_value_first(self):
        store = IntermediateStore(100.0)
        store.put("cheap", _FakeStored(40.0), seconds_saved=0.1)
        store.put("dear", _FakeStored(40.0), seconds_saved=9.0)
        store.put("new", _FakeStored(40.0), seconds_saved=1.0)
        assert sorted(store.entries) == ["dear", "new"]
        assert store.evictions == 1

    def test_invalidate_workers_drops_resident_entries(self):
        store = IntermediateStore(1000.0)
        store.put("a", _FakeStored(10.0, workers=(0, 1)), seconds_saved=1)
        store.put("b", _FakeStored(10.0, workers=(2,)), seconds_saved=1)
        assert store.invalidate_workers({1}) == 1
        assert "a" not in store and "b" in store
        assert store.invalidated == 1


class TestHashSeedIndependence:
    _PROBE = (
        "from repro.engine import IntermediateStore\n"
        "class R:\n"
        "    def __init__(s, n, w): s.total_bytes, s.home = n, "
        "{i: x for i, x in enumerate(w)}\n"
        "class M:\n"
        "    def __init__(s, n, w=(0,)): s.relation = R(n, w)\n"
        "store = IntermediateStore(250.0)\n"
        "for i in range(9):\n"
        "    store.put(f'k{i % 5}', M(20.0 + 13 * i, (i % 3,)), "
        "seconds_saved=(7 * i) % 4)\n"
        "for i in (1, 3, 1, 4):\n"
        "    _ = f'k{i}' in store and store.fetch(f'k{i}')\n"
        "store.invalidate_workers({2})\n"
        "print(sorted((k, e.nbytes, e.hits, e.seq)\n"
        "             for k, e in store.entries.items()), store.stats())\n"
    )

    def test_store_state_identical_across_hash_seeds(self):
        outputs = set()
        for seed in ("0", "42", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run([sys.executable, "-c", self._PROBE],
                                  env=env, capture_output=True, text=True,
                                  check=True)
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1, outputs


# ----------------------------------------------------------------------
# Real executions: ledger reconciliation and warm-run reuse.
# ----------------------------------------------------------------------
def _workload():
    # The Section 2.1 chain (matA x matB) x matC with its strip layouts,
    # at laptop scale: at paper scale matC alone is 763 MiB dense, and
    # none of the ledger properties below depends on scale.
    mat_a = input_matrix("matA", 100, 1000, fmt=row_strips(10))
    mat_b = input_matrix("matB", 1000, 100, fmt=col_strips(10))
    mat_c = input_matrix("matC", 100, 20_000, fmt=col_strips(10_000))
    graph = build((mat_a @ mat_b) @ mat_c)
    rng = np.random.default_rng(7)
    inputs = {s.name: rng.standard_normal((s.mtype.rows, s.mtype.cols))
              for s in graph.sources}
    return graph, inputs


class TestLedgerReconciliation:
    def test_cache_charges_reconcile_with_store_accounting(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        store = IntermediateStore(1e12)

        cold = execute_plan(plan, inputs, ctx, store=store)
        warm = execute_plan(plan, inputs, ctx, store=store)
        assert cold.ok and warm.ok

        ledger_cache = (cold.ledger.intermediate_cache_seconds
                        + warm.ledger.intermediate_cache_seconds)
        assert ledger_cache == pytest.approx(
            store.fetch_seconds + store.store_seconds, rel=1e-12)
        # Cold run only wrote; warm run only fetched.
        assert cold.ledger.intermediate_cache_seconds == pytest.approx(
            store.store_seconds, rel=1e-12)
        assert warm.ledger.intermediate_cache_seconds == pytest.approx(
            store.fetch_seconds, rel=1e-12)
        # Cache traffic is not booked as fault overhead.
        assert warm.ledger.recovery_seconds == 0.0

    def test_warm_run_does_strictly_less_work(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        store = IntermediateStore(1e12)

        cold = execute_plan(plan, inputs, ctx, store=store)
        warm = execute_plan(plan, inputs, ctx, store=store)
        assert warm.ledger.work_seconds < cold.ledger.work_seconds
        assert store.hits > 0
        for name, value in cold.outputs.items():
            np.testing.assert_allclose(warm.outputs[name], value)

    def test_starved_budget_degrades_to_recompute(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        store = IntermediateStore(1.0)  # nothing fits

        cold = execute_plan(plan, inputs, ctx, store=store)
        warm = execute_plan(plan, inputs, ctx, store=store)
        assert cold.ok and warm.ok
        assert len(store) == 0
        assert store.rejected > 0
        assert warm.ledger.work_seconds == pytest.approx(
            cold.ledger.work_seconds)
        assert warm.ledger.intermediate_cache_seconds == 0.0
        for name, value in cold.outputs.items():
            np.testing.assert_allclose(warm.outputs[name], value)

    def test_warm_ledgers_identical_across_schedulers(self):
        """Fetch records are sid-keyed, so every scheduler merges the
        same warm-run ledger bit-for-bit."""
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        ledgers = []
        for scheduler in ("sequential", "threads"):
            store = IntermediateStore(1e12)
            execute_plan(plan, inputs, ctx, store=store)
            warm = execute_plan(plan, inputs, ctx, store=store,
                                scheduler=scheduler)
            ledgers.append([(s.name, s.seconds, s.category)
                            for s in warm.ledger.stages])
        assert ledgers[0] == ledgers[1]
        assert any(c == INTERMEDIATE_CACHE for _, _, c in ledgers[0])
