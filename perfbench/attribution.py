"""Hot-spot attribution from one traced run of a planning workload.

Prints each layer's self time as a share of request time, per request
family, per rewrite engine, and per family and engine, then the run's
non-zero per-layer metrics.  The families of
``plan_cold`` are its graph families, with the size set, width or scale
in brackets (the front door is ``PlannerService.optimize``, or
``optimize_batch`` for the batch family); those of ``sql_repeat`` are its
script templates.  Usage, from the root of a checkout::

    python3 perfbench/attribution.py --workload plan_cold --seed 1
    python3 perfbench/attribution.py --beam 1500       # the figures' beam
    python3 perfbench/attribution.py --frontier object # the other frontier

``--beam`` and ``--frontier`` change how ``plan_cold`` plans (the beam of
fig05 and fig09, the frontier of every request); the benchmark itself
always runs with the defaults.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

LAYERS = {
    "plan_cold": ("search", "rewrite", "fingerprint", "service", "batch"),
    "sql_repeat": ("sql", "lang", "rewrite", "fingerprint", "service",
                   "search"),
}


GROUPINGS = ("family", "engine", "family/engine")


def groups_of(workload: str, req) -> tuple[str, str, str]:
    """The request's group under each of ``GROUPINGS``."""
    if workload == "plan_cold":
        _, family, engine, args, _ = req.key
        if args:
            family += f"({args[0]})"
    else:
        family, engine = req.key[0], req.key[1]
    return family, engine, f"{family}/{engine}"


def shares(workload: str, stream, records, contains) -> list[dict]:
    """Per group: request count, request seconds and layer self seconds,
    one table per entry of ``GROUPINGS``."""
    import harness

    tables = [defaultdict(lambda: defaultdict(float)) for _ in GROUPINGS]
    spans = defaultdict(list)
    for span in records:
        spans[span.request].append(span)
    for rid, group in spans.items():
        keys = groups_of(workload, stream[rid % len(stream)])
        selfs = harness.self_seconds(group, contains)
        root = sum(s.seconds for s in group if s.kind == "root")
        for table, key in zip(tables, keys):
            row = table[key]
            row["requests"] += 1
            row["request"] += root
            for layer, seconds in selfs.items():
                if layer != "request":
                    row[layer] += seconds
    return tables


def render(title: str, table: dict, layers: tuple[str, ...]) -> str:
    rows = [f"| {title} | requests | request ms | "
            + " | ".join(layers) + " |",
            "|---|---|---|" + "---|" * len(layers)]
    for name in sorted(table, key=lambda n: -table[n]["request"]):
        row = table[name]
        cells = " | ".join(f"{row[layer] / row['request']:.0%}"
                           for layer in layers)
        rows.append(f"| {name} | {row['requests']:.0f} | "
                    f"{1e3 * row['request'] / row['requests']:.1f} | "
                    f"{cells} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(LAYERS),
                        default="plan_cold")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--beam", type=int, default=None)
    parser.add_argument("--frontier", choices=("array", "object"),
                        default="array")
    args = parser.parse_args(argv)
    import run
    if not run.prepare():
        return 2
    import harness

    if args.workload == "plan_cold":
        import plan_cold
        workload = plan_cold.PlanCold(args.beam or plan_cold.BEAM,
                                      args.frontier)
    else:
        from sql_repeat import SqlRepeat
        workload = SqlRepeat()
    workload.reset()
    workload.setup(args.seed)
    loop = harness.run_loop(workload, workload.stream, args.seconds,
                            trace=True)
    if loop.failed:
        print(f"{loop.failed} of {loop.attempted} requests failed",
              file=sys.stderr)
        return 1
    tables = shares(args.workload, workload.stream, loop.spans.records,
                    workload.contains)
    print("\n\n".join(render(title, table, LAYERS[args.workload])
                      for title, table in zip(GROUPINGS, tables)))
    print("\nPer-layer metrics of the traced passes:", ", ".join(
        f"{name} {value:.4g}" for name, (value, _)
        in harness.per_layer(workload, loop).items() if value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
