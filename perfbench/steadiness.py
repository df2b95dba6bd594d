"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workload oracle-serve --runs 10

For every end-to-end metric it prints the median of the runs and the
spread, ``(Q3 - Q1) / median`` with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``; a spread under a third of the bound is steady.  Runs
are sequential and use seeds ``--first-seed``, ``--first-seed + 1``, ...
Results also go to ``perfbench/out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={result['metrics'][name]['value']:.6g}" for name in values
        ), flush=True)

    report = {}
    for metric in spec["end_to_end"]:
        samples = values[metric["name"]]
        q1, middle, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / statistics.median(samples)
        report[metric["name"]] = {
            "values": samples,
            "median": statistics.median(samples),
            "spread": spread,
            "bound": metric["bound"],
        }
        verdict = "steady" if spread < metric["bound"] / 3 else "NOT STEADY"
        print(
            f"{metric['name']:20s} median {statistics.median(samples):12.6g}"
            f"  spread {spread:7.4f}  bound {metric['bound']:5.3f}  {verdict}"
        )
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.workload}.json").write_text(
        json.dumps(report, indent=2)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
