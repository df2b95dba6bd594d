"""Shared pieces of the benchmark: paths, seeds, statistics, results."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches and artifacts (removed when a run ends).
WORK = BENCH_DIR / ".work"
#: Where a traced run writes its spans.
OUT = BENCH_DIR / "out"


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and integer keys, so
    every op of a run gets its own fresh, reproducible seed."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)
    return int(state[0])


def clock() -> float:
    return time.perf_counter()


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return float(ordered[index])


def import_seconds(modules: list[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = clock()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=env,
        check=True,
        cwd=ROOT,
    )
    return clock() - start


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Result:
    """Metrics, op accounting and check failures of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict[str, float] = {}

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def note(self, name: str, value: float) -> None:
        """A printed side figure that is not a catalogued metric."""
        self.notes[name] = float(value)

    def op(self, problems: list[str]) -> None:
        """Account one op; it failed when any of its checks failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, ok: bool, message: str) -> None:
        """A run-level check (not tied to one op)."""
        if not ok:
            self.problems.append(message)

    def emit(self, catalog: list[dict]) -> dict:
        """Print every catalogued metric with its unit, then the result
        object as the last line of standard output."""
        missing = [m["name"] for m in catalog if m["name"] not in self.metrics]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        metrics = {
            m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]}
            for m in catalog
        }
        for name, entry in metrics.items():
            print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
        for name, value in self.notes.items():
            print(f"note: {name} {value:.6g}")
        share = self.failed / self.attempted if self.attempted else 0.0
        print(
            f"ops attempted {self.attempted}, failed {self.failed} "
            f"(failed share {share:.4f})"
        )
        for problem in self.problems[:20]:
            print(f"CHECK FAILED: {problem}")
        payload = {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        print(json.dumps(payload, sort_keys=False))
        return payload
