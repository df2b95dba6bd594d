"""``mc-table1``: the registered Table 1 grid, cold pass then tighten pass.

One op runs the 27-point ``table1`` grid (alpha x p_h/(1-alpha) x k on
``iid-settlement``) through ``run_grid`` on the serial backend with a
fresh ``ResultCache``: first adaptively to ``TARGET_SE`` (the cold pass,
which writes ledger chunks), then on the same ledger to half that target
(the tighten pass, which reads every earlier chunk and samples only the
new waves).  Every grid point must lie within 6 sigma of the exact DP
(see :func:`sigma`).
"""

from __future__ import annotations

import math
import shutil

from repro.analysis.exact import settlement_violation_probability
from repro.engine import sweeps
from repro.engine.cache import ResultCache

from harness import common
from harness.hostref import MIXED, HostClock, untimed
from harness.layers import engine_patches
from harness.pairs import run_ops

MODULES = ["repro.engine.sweeps", "repro.analysis.exact"]

GRID = "table1"
#: Per-point standard-error target of the cold pass, by size.
TARGET_SE = {"full": 2e-3, "tiny": 2e-2}
#: Trial ceiling per point; high enough that no point stops on it.
MAX_TRIALS = 4_000_000
SIGMAS = 6.0

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seed keys: 0 = warm-up op, 1 = timed ops.
_WARMUP, _OPS = 0, 1


def exact_values(grid) -> list[float]:
    """The exact DP value of every grid point, in expansion order."""
    return [
        settlement_violation_probability(
            point.scenario.probabilities, point.scenario.depth
        )
        for point in grid.points()
    ]


def run_pass(grid, cache, seed: int, target_se: float) -> list[dict]:
    return sweeps.run_grid(
        grid, cache=cache, seed=seed, target_se=target_se,
        max_trials=MAX_TRIALS,
    )


def run_op(grid, seed: int, target_se: float, name: str, timed) -> dict:
    """One cold + tighten op on a fresh cache directory, each pass timed
    on its own (see ``pairs.run_ops``)."""
    directory = common.fresh_dir(name)
    try:
        cache = ResultCache(directory)
        cold, cold_s, cold_host = timed(run_pass, grid, cache, seed, target_se)
        tight, tighten_s, tighten_host = timed(
            run_pass, grid, cache, seed, target_se / 2
        )
        stats = cache.stats()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "cold_s": cold_s,
        "tighten_s": tighten_s,
        "wall_s": cold_s + tighten_s,
        "cold_adjusted_s": cold_s / cold_host,
        "adjusted_s": cold_s / cold_host + tighten_s / tighten_host,
        "cold": cold,
        "tight": tight,
        "sampled": sum(r["sampled_trials"] for r in cold + tight),
        "chunk_hits": stats["chunk_hits"],
        "chunk_lookups": stats["chunk_lookups"],
    }


def outputs(op: dict) -> list[tuple]:
    """What traced and untraced runs of one seed must agree on."""
    return [
        (r["value"], r["standard_error"], r["trials"], r["sampled_trials"])
        for r in op["cold"] + op["tight"]
    ]


def sigma(row: dict, exact: float) -> float:
    """The standard error a grid point is judged by: the larger of the
    estimate's own (Wald) error and the binomial error at the exact
    value.

    The adaptive pass may stop a rare cell after a few thousand trials
    with 0 or 1 hits, where the Wald error understates the uncertainty
    (1 hit at an exact 4.6e-4 reads 6.5 Wald sigmas off); the binomial
    error at the exact value covers that case, and the Wald error covers
    a single hit at an exact value far below the sampling resolution.
    """
    null = math.sqrt(exact * (1.0 - exact) / row["trials"])
    return max(row["standard_error"], null)


def check(op: dict, exact: list[float]) -> list[str]:
    """Every point within 6 sigma of the DP; the tighten pass reused
    every chunk the cold pass wrote."""
    problems = []
    for label, rows in (("cold", op["cold"]), ("tighten", op["tight"])):
        for row, value in zip(rows, exact, strict=True):
            if abs(row["value"] - value) > SIGMAS * sigma(row, value):
                problems.append(
                    f"{label} point alpha={row['alpha']} "
                    f"fraction={row['unique_fraction']} k={row['depth']}: "
                    f"MC {row['value']} +- {row['standard_error']} vs "
                    f"exact {value}"
                )
    reused = sum(r["reused_trials"] for r in op["tight"])
    cold_trials = sum(r["trials"] for r in op["cold"])
    if reused != cold_trials:
        problems.append(
            f"tighten pass reused {reused} trials, cold pass realized "
            f"{cold_trials}"
        )
    return problems


def run(result: common.Result, seed: int, seconds: float, size: str,
        tracer=None):
    grid = sweeps.get_grid(GRID)
    target_se = TARGET_SE[size]

    # Set-up: imports, the exact reference values and one warm-up op,
    # timed part by part.
    def set_up(repeat, timed):
        _, import_s, import_host = timed(common.import_seconds, MODULES)
        exact, exact_s, exact_host = timed(exact_values, grid)
        warm = run_op(grid, common.derive_seed(seed, _WARMUP, repeat),
                      target_se, "warmup", timed)
        adjusted = import_s / import_host + exact_s / exact_host
        return exact, adjusted + warm["adjusted_s"]

    host_clock = HostClock(MIXED)
    setups = []
    for repeat in range(1 if tracer else SETUP_REPEATS):
        exact, adjusted = set_up(repeat, host_clock.timed)
        setups.append(adjusted)

    ops = run_ops(
        result,
        seconds,
        lambda index: common.derive_seed(seed, _OPS, index),
        lambda op_seed, index, timed: run_op(
            grid, op_seed, target_se, f"op-{index}", timed
        ),
        lambda op: check(op, exact),
        outputs,
        tracer,
        engine_patches(),
        MIXED,
    )
    untraced = ops.untraced
    if tracer is None:
        result.set("setup_s", common.median(setups))
        result.note(
            "host slowness factor, median over ops (metrics are divided by it)",
            common.median(op["host"] for op in untraced),
        )
        result.set("peak_rss_mb", common.self_peak_rss_mb())
        result.set(
            "latency_p50_ms",
            1000 * common.median(op["cold_adjusted_s"] for op in untraced),
        )
        result.set(
            "throughput_per_s",
            common.median(op["sampled"] / op["adjusted_s"] for op in untraced),
        )
        return ops
    traced = ops.traced
    result.set(
        "table1_tighten_s",
        common.median(op["tighten_s"] / op["host"] for op in untraced),
    )
    tight_trials = sum(r["trials"] for op in traced for r in op["tight"])
    tight_reused = sum(r["reused_trials"] for op in traced for r in op["tight"])
    result.set("engine.runner.reuse_ratio", tight_reused / tight_trials)
    result.set(
        "engine.cache.chunk_hit_ratio",
        sum(op["chunk_hits"] for op in traced)
        / sum(op["chunk_lookups"] for op in traced),
    )
    return ops
