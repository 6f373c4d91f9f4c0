"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics from the benchmark's own spans.  Wall times
are scaled to a reference speed (``harness.Reference``); the ``#`` lines
before the result give them unscaled.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any output check failed and 2 when the program under test cannot be
found.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Threads of the program's BLAS pools.  One, not the machine's two: the
#: client loop is single threaded, the matrices are small, and with two
#: BLAS threads on a 2-core machine the spread of pass times grew from 5%
#: to 87% of their mean as soon as one other process ran.
BLAS_THREADS = "1"

WORKLOADS = ("plan_cold", "sql_repeat", "execute", "execute_churn")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_workload(name: str):
    if name == "plan_cold":
        from plan_cold import PlanCold
        return PlanCold()
    if name == "sql_repeat":
        from sql_repeat import SqlRepeat
        return SqlRepeat()
    if name == "execute":
        from execute import Execute
        return Execute()
    from churn import ExecuteChurn
    return ExecuteChurn()


def prepare() -> bool:
    """Put the program on ``sys.path`` and size its BLAS pools; must run
    before numpy is imported.  False when the program is missing."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({src}/repro)",
              file=sys.stderr)
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not prepare():
        return 2

    import harness
    workload = load_workload(args.workload)
    import_seconds = time.perf_counter() - STARTED

    setups = harness.timed_setups(workload, args.seed)
    # Set-up objects live for the whole run: keep them out of the
    # collector's scans so its pauses in the loop depend on the loop alone.
    gc.collect()
    gc.freeze()
    reference = harness.Reference(workload.reference)
    loop = harness.run_loop(workload, workload.stream, args.seconds,
                            trace=bool(args.trace), reference=reference)
    if args.trace:
        metrics = harness.per_layer(workload, loop)
    else:
        metrics = harness.end_to_end(
            workload, loop, import_seconds + statistics.median(setups))
    print(f"# reference work ({workload.reference}): mean "
          f"{statistics.fmean(reference.samples) * 1e3:.4f} ms over "
          f"{len(reference.samples)} samples")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
