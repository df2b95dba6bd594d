"""The op loop shared by the workloads, untraced or traced.

Untraced runs (``--trace 0``) time ops back to back for the run's
seconds; every end-to-end metric comes from them.  Traced runs
(``--trace 1``) run each op seed twice, untraced and traced, alternating
which goes first.  The two must produce bit-identical outputs; the wall
ratio of the pair (host-adjusted) is the tracing overhead, and the traced
op's spans give the per-layer self times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from harness import common
from harness.hostref import HostClock, untimed
from harness.tracer import OP

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "engine.sweeps.run_grid": "engine.sweeps.run_grid_self_s",
    "engine.runner": "engine.runner.self_s",
    "engine.cache.get": "engine.cache.get_s",
    "engine.cache.put": "engine.cache.put_s",
    "engine.scenarios.sample": "engine.scenarios.sample_s",
    "engine.kernels.estimate": "engine.kernels.estimate_s",
    "protocol.simulation": "protocol.simulation.self_s",
    "protocol.leader.eligibility": "protocol.leader.eligibility_s",
    "protocol.crypto.hash": "protocol.crypto.hash_s",
    "protocol.node.receive": "protocol.node.receive_s",
    "protocol.block.add_block": "protocol.block.add_block_s",
    "protocol.transport": "protocol.transport.s",
    "analysis.genfunc": "analysis.genfunc.s",
    "analysis.exact": "analysis.exact.s",
    "oracle.tables.mc_check": "oracle.tables.mc_check_s",
    "oracle.store.save": "oracle.store.save_s",
    "oracle.store.load": "oracle.store.load_s",
    "oracle.service": "oracle.service.s",
    "oracle.app": "oracle.app.s",
    OP: "bench.other_s",
}

#: Work counts reported as per-op means.
COUNT_METRICS = (
    "engine.kernels.symbols",
    "engine.runner.chunks",
    "engine.runner.waves",
    "engine.cache.bytes_written",
    "protocol.leader.eligibility_calls",
    "protocol.crypto.hash_calls",
    "protocol.transport.events",
    "analysis.genfunc.convolutions",
    "analysis.exact.cells",
)


@dataclass
class Ops:
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    overhead: list = field(default_factory=list)


def traced_op(tracer, patches, do_op, op_seed, index):
    with tracer.op(patches) as op_id:
        return do_op(op_seed, index, untimed), op_id


def run_ops(result, seconds, seed_of, do_op, check, outputs, tracer,
            patches, reference) -> Ops:
    """Run ops for ``seconds`` (at least one); see the module docstring.

    ``do_op(op_seed, index, timed)`` times the parts of its op with
    ``timed`` (:meth:`hostref.HostClock.timed` or :func:`hostref.untimed`)
    and returns a dict with ``wall_s``, the op's raw wall time, and
    ``adjusted_s``, the sum of its parts' host-adjusted times.  Every op
    dict gains ``host``, its effective host factor: ``wall_s /
    adjusted_s`` for untraced runs, whose ops are timed part by part, and
    the factor around the whole op in traced pairs, where references
    inside the traced op would land in its spans.
    """
    ops = Ops()
    host_clock = HostClock(reference)
    start = common.clock()
    index = 0
    while index == 0 or common.clock() - start < seconds:
        op_seed = seed_of(index)
        if tracer is None:
            op = do_op(op_seed, index, host_clock.timed)
            op["host"] = op["wall_s"] / op["adjusted_s"]
            result.op(check(op))
            ops.untraced.append(op)
            index += 1
            continue
        adjusted = {}
        pair = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                (op, op_id), _, host = host_clock.timed(
                    traced_op, tracer, patches, do_op, op_seed, index
                )
                wall = tracer.op_walls[op_id]
            else:
                op, wall, host = host_clock.timed(
                    do_op, op_seed, index, untimed
                )
            op["host"] = host
            adjusted[traced] = wall / host
            result.op(check(op))
            pair[traced] = op
        result.check(
            outputs(pair[True]) == outputs(pair[False]),
            f"op {index}: traced and untraced outputs differ",
        )
        ops.untraced.append(pair[False])
        ops.traced.append(pair[True])
        ops.overhead.append(adjusted[True] / adjusted[False])
        index += 1
    return ops


def summarize(result, tracer, ops: Ops, name: str, seed: int) -> None:
    """Set the per-layer metrics of a traced run and write its spans.

    Self times and counts are means per traced op, so the self times
    plus ``bench.other_s`` sum to ``bench.op_s``, the mean traced op
    wall.
    """
    per_op = tracer.self_times
    walls = tracer.op_walls
    count = len(walls)
    totals: dict[str, float] = {}
    for layers in per_op.values():
        for layer, seconds in layers.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    unknown = set(totals) - set(SELF_TIME_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    for layer, metric in SELF_TIME_METRICS.items():
        result.set(metric, totals.get(layer, 0.0) / count)
    for metric in COUNT_METRICS:
        result.set(metric, tracer.counts.get(metric, 0) / count)
    wall = sum(walls.values()) / count
    other = totals.get(OP, 0.0) / count
    covered = sum(totals.values()) / count
    result.check(
        abs(covered - wall) <= 1e-6 * max(wall, 1.0),
        f"self times sum to {covered} s, op wall is {wall} s",
    )
    result.set("bench.op_s", wall)
    result.set("obs.span_coverage", 1.0 - other / wall)
    result.set("obs.tracing_overhead_ratio", common.median(ops.overhead))
    result.set(
        "bench.host_factor",
        common.median(op["host"] for op in ops.untraced + ops.traced),
    )

    common.OUT.mkdir(parents=True, exist_ok=True)
    stem = common.OUT / f"{name}-seed{seed}"
    tracer.dump(f"{stem}.spans.jsonl")
    shares = {
        layer: seconds / count / wall
        for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
    }
    with open(f"{stem}.summary.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"traced_ops": count, "op_wall_s": wall, "self_time_shares": shares},
            handle,
            indent=2,
        )
