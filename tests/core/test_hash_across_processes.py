"""Formats and types keep their computed-once hash across processes.

``PhysicalFormat`` and ``MatrixType`` compute their hash on construction
and carry it in their instance state, so a pickled instance arrives in
another process with the hash it was given.  That hash must match what a
fresh instance hashes to there, whatever that process's
``PYTHONHASHSEED``: a format's hash is built from integers only, and a
type's from its extents and sparsity.  Process-pool stage jobs pickle
formats, so one process-pool run must also charge exactly what the
sequential scheduler charges.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import ComputeGraph, OptimizerContext, optimize
from repro.core.atoms import ADD, MATMUL, TRANSPOSE
from repro.core.formats import csr_strips, row_strips, tiles
from repro.core.types import matrix
from repro.engine.executor import execute_plan
from repro.engine.scheduler import ProcessPoolScheduler, SequentialScheduler

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Builds the instances under test; run in every process involved.
BUILD = ("from repro.core.formats import tiles\n"
         "from repro.core.types import matrix, vector\n"
         "fresh = [tiles(1000, 500), matrix(4000, 3000, 0.01), vector(77)]\n")

PICKLER = BUILD + (
    "import pickle, sys\n"
    "sys.stdout.buffer.write(pickle.dumps(fresh))\n")

CHECKER = BUILD + (
    "import json, pickle, sys\n"
    "arrived = pickle.loads(sys.stdin.buffer.read())\n"
    "lookup = {obj: i for i, obj in enumerate(fresh)}\n"
    "print(json.dumps({\n"
    "    'equal': [a == f for a, f in zip(arrived, fresh)],\n"
    "    'same_hash': [hash(a) == hash(f) for a, f in zip(arrived, fresh)],\n"
    "    'found': [lookup.get(a) for a in arrived],\n"
    "}))\n")


def _python(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], input=stdin,
                          capture_output=True, env=env, timeout=120,
                          check=True)
    return done.stdout


def test_pickled_instances_hash_alike_under_another_hash_seed():
    """Pickled under one seed, unpickled under another: equal to, hashing
    like and found as dict keys by the fresh instances there."""
    payload = _python(PICKLER, seed="1")
    result = json.loads(_python(CHECKER, seed="2", stdin=payload))
    assert result == {"equal": [True] * 3, "same_hash": [True] * 3,
                      "found": [0, 1, 2]}


def test_process_pool_charges_like_sequential():
    """Stage jobs pickle their input blocks with their formats; a process
    pool must charge exactly what the sequential scheduler charges."""
    rng = np.random.default_rng(7)
    g = ComputeGraph()
    x = g.add_source("X", matrix(48, 40), row_strips(16))
    w = g.add_source("W", matrix(40, 48), tiles(8))
    s = g.add_source("S", matrix(48, 48, 0.05), csr_strips(16))
    prod = g.add_op("P", MATMUL, (x, w))
    g.add_op("OUT", ADD, (prod, s))
    g.add_op("OUT_T", TRANSPOSE, (prod,))
    sparse = rng.standard_normal((48, 48))
    sparse[rng.random((48, 48)) > 0.05] = 0.0
    inputs = {"X": rng.standard_normal((48, 40)),
              "W": rng.standard_normal((40, 48)), "S": sparse}
    ctx = OptimizerContext()
    plan = optimize(g, ctx)
    seq = execute_plan(plan, inputs, ctx, scheduler=SequentialScheduler())
    pool = execute_plan(plan, inputs, ctx,
                        scheduler=ProcessPoolScheduler(max_workers=2))
    assert seq.ok and pool.ok
    assert [(r.name, r.seconds, r.category) for r in seq.ledger.stages] == \
        [(r.name, r.seconds, r.category) for r in pool.ledger.stages]
    assert seq.ledger.total_seconds == pool.ledger.total_seconds
    for name, value in seq.outputs.items():
        assert np.array_equal(pool.outputs[name], value), name
