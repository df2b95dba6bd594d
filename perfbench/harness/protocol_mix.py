"""``protocol-mix``: full protocol simulations over a fixed scenario mix.

One op runs ``ProtocolRunner`` on the serial backend over four
registered scenarios, each with its own fresh seed: ``protocol-honest``
(VRF lottery and hashing), ``protocol-split`` (concurrent honest leaders,
tie-break and chain selection), ``protocol-private-chain`` (the
adversary) and ``protocol-wan`` (the continuous-time transport).
``protocol-honest`` must report zero violations, and re-running an op
with its seed must reproduce its estimates exactly.
"""

from __future__ import annotations

from repro.engine.protocol import ProtocolRunner
from repro.engine.scenarios import get_scenario

from harness import common
from harness.hostref import INTERPRETER, HostClock, untimed
from harness.layers import protocol_patches
from harness.pairs import run_ops

MODULES = ["repro.engine.protocol"]

#: Scenario -> simulations per op, by size.
MIX = {
    "full": {
        "protocol-honest": 8,
        "protocol-split": 8,
        "protocol-private-chain": 16,
        "protocol-wan": 16,
    },
    "tiny": {
        "protocol-honest": 1,
        "protocol-split": 1,
        "protocol-private-chain": 1,
        "protocol-wan": 1,
    },
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seed keys: 0 = warm-up op, 1 = timed ops.
_WARMUP, _OPS = 0, 1


def run_scenario(name: str, trials: int, seed: int):
    return ProtocolRunner(get_scenario(name)).run(trials, seed)


def run_op(mix: dict, seed: int, timed) -> dict:
    """One op: every scenario of the mix, each on its own derived seed
    and timed on its own (see ``pairs.run_ops``)."""
    estimates, seconds, adjusted = {}, {}, 0.0
    for key, (name, trials) in enumerate(mix.items()):
        estimates[name], seconds[name], host = timed(
            run_scenario, name, trials, common.derive_seed(seed, key)
        )
        adjusted += seconds[name] / host
    return {
        "seed": seed,
        "wall_s": sum(seconds.values()),
        "adjusted_s": adjusted,
        "sims": sum(mix.values()),
        "estimates": estimates,
        "seconds": seconds,
    }


def outputs(op: dict) -> dict:
    return op["estimates"]


def check(op: dict) -> list[str]:
    honest = op["estimates"]["protocol-honest"]
    if honest.value != 0.0:
        return [f"protocol-honest violated settlement: {honest}"]
    return []


def run(result: common.Result, seed: int, seconds: float, size: str,
        tracer=None):
    mix = MIX[size]

    # Set-up: imports and one warm-up op, timed part by part.
    def set_up(repeat, timed):
        _, import_s, import_host = timed(common.import_seconds, MODULES)
        warm = run_op(mix, common.derive_seed(seed, _WARMUP, repeat), timed)
        return import_s / import_host + warm["adjusted_s"]

    host_clock = HostClock(INTERPRETER)
    setups = [
        set_up(repeat, host_clock.timed)
        for repeat in range(1 if tracer else SETUP_REPEATS)
    ]

    ops = run_ops(
        result,
        seconds,
        lambda index: common.derive_seed(seed, _OPS, index),
        lambda op_seed, index, timed: run_op(mix, op_seed, timed),
        check,
        outputs,
        tracer,
        protocol_patches(),
        INTERPRETER,
    )
    # Determinism: the first op, re-run on its seed, reproduces exactly.
    first = ops.untraced[0]
    again = run_op(mix, first["seed"], untimed)
    result.check(
        outputs(again) == outputs(first),
        "re-running an op with its seed changed its estimates",
    )
    if tracer is None:
        result.set("setup_s", common.median(setups))
        result.note(
            "host slowness factor, median over ops (metrics are divided by it)",
            common.median(op["host"] for op in ops.untraced),
        )
        result.set("peak_rss_mb", common.self_peak_rss_mb())
        result.set(
            "latency_p50_ms",
            1000 * common.median(op["adjusted_s"] for op in ops.untraced),
        )
        result.set(
            "throughput_per_s",
            common.median(op["sims"] / op["adjusted_s"] for op in ops.untraced),
        )
        return ops
    for name, trials in mix.items():
        result.set(
            f"protocol.mix.{name}.trials_per_s",
            common.median(
                trials * op["host"] / op["seconds"][name] for op in ops.untraced
            ),
        )
    return ops
