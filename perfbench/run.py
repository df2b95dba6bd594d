"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mc-table1 --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``mc-table1``    - the Table 1 Monte-Carlo grid, cold then tighten pass;
* ``protocol-mix`` - full protocol simulations over four registered
  protocol scenarios;
* ``oracle-serve`` - a cold oracle artifact build, then open-loop,
  closed-loop and batch traffic against ``python -m repro.oracle serve``.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (from a separate traced run); the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``perfbench/METRICS.md`` maps each per-layer metric to
the end-to-end metric and workload it should move.  ``--size tiny``
shrinks every workload for the harness tests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("mc-table1", "protocol-mix", "oracle-serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import common, mc_table1, oracle_serve, protocol_mix
    from harness.pairs import summarize
    from harness.tracer import Tracer

    module = {
        "mc-table1": mc_table1,
        "protocol-mix": protocol_mix,
        "oracle-serve": oracle_serve,
    }[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    catalog = spec["per_layer"] if args.trace else spec["end_to_end"]

    result = common.Result()
    tracer = Tracer() if args.trace else None
    try:
        ops = module.run(result, args.seed, args.seconds, args.size, tracer)
        if tracer is not None:
            summarize(result, tracer, ops, args.workload, args.seed)
            # Layers this workload never enters read zero.
            for metric in catalog:
                result.metrics.setdefault(metric["name"], 0.0)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    result.emit(catalog)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
