"""``oracle-serve``: a cold artifact build, then HTTP traffic on the server.

Set-up builds a mid-size artifact cold (``DEFAULT_SPEC`` narrowed to
alpha in {0.10, 0.20, 0.30}, fraction in {0.5, 0.8, 1.0}, delta in
{0, 2}, k in {10, 20, 40, 80, 100}, adaptive Monte-Carlo cross-check
on), starts ``python -m repro.oracle serve`` with default flags (only an
ephemeral ``--port``) and warms it up.  Traffic then runs in rounds of
four phases:

a. an open loop at ``RATE`` requests/s of off-grid GETs split between
   ``/v1/violation`` and ``/v1/depth`` over two persistent connections,
   each timed from its due time;
b. a closed loop of the same kind of GETs on one connection;
c. a closed loop of columnar batch POSTs with ``BATCH`` queries each,
   over two connections;
d. blocks of the same GETs and batch bodies through an in-process
   ``OracleApp.handle``, which give the bounded figures (see ``PHASES``).

Sampled served bodies must be byte-equal to the in-process
``SettlementOracle`` answer, and sampled violation answers at least the
exact DP at the (off-grid) query point.  The traced run additionally
times the build's layers, the in-process service and app on the same
query stream, and derives the transport's share of scalar latency.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np

from repro.analysis.exact import settlement_violation_probability
from repro.oracle.app import OracleApp
from repro.oracle.service import SettlementOracle
from repro.oracle.tables import (
    DEFAULT_SPEC,
    TINY_SPEC,
    build_tables,
    effective_probabilities,
)

from harness import common, httpload
from harness.hostref import BATCH_BODIES, MIXED, SCALAR_REQUESTS, HostClock
from harness.layers import oracle_build_patches
from harness.pairs import run_ops

MODULES = ["repro.oracle"]

SPECS = {
    "full": dataclasses.replace(
        DEFAULT_SPEC,
        alphas=(0.10, 0.20, 0.30),
        unique_fractions=(0.5, 0.8, 1.0),
        deltas=(0, 2),
        depths=(10, 20, 40, 80, 100),
    ),
    "tiny": TINY_SPEC,
}
#: Open-loop rate (requests/s): a quarter of the ~2k req/s closed-loop
#: capacity of the default server on a slow moment of the shared 2-core
#: host, so host slowdowns do not build a backlog.
RATE = {"full": 500.0, "tiny": 200.0}
#: Queries per batch POST body, and distinct bodies per route.
BATCH = {"full": 2000, "tiny": 50}
BODIES = 4
#: Share of each round spent in phases a, b, c and d, and the number of
#: rounds a run is cut into.  Phase d handles GETs and batch bodies
#: through an in-process ``OracleApp`` in back-to-back blocks, each timed
#: between two host references (see ``hostref``); the bounded figures are
#: medians over those blocks.  On the shared 2-core host the HTTP figures
#: swing with the host's load by far more than any bound (ten seeds:
#: open-loop p50 spread 0.54, one-connection closed-loop p50 0.25-0.48,
#: HTTP batch rate 0.19-0.26), because they hinge on cross-process
#: wake-ups, which a CPU-bound reference does not track; they are printed
#: as notes and reported by the traced run.
PHASES = (0.25, 0.1, 0.1, 0.55)
ROUNDS = 6
#: Phase d alternates blocks of GETs handled in-process (about 0.02 s)
#: and one pass over the batch bodies (about 0.035 s), cycling through
#: ``IN_PROCESS_GETS`` of the round's closed-loop GETs.  Blocks this short
#: follow the host's fast swings: over 5-second windows, medians of
#: host-adjusted 500-GET blocks spread 0.017, of 3000-GET blocks 0.028.
IN_PROCESS_GETS = 3000
GETS_PER_BLOCK = 500
#: Closed-loop request lists are sized for this many requests/s.
CLOSED_CAPACITY = 8000
#: Keep every n-th scalar body (and every batch body) for the checks;
#: check the upper-bound contract by exact DP on this many of them.
SAMPLE_EVERY = 25
DP_CHECKS = 12
RELATIVE_SLACK = 1e-9

#: Set-ups per untraced run (each a cold build); ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seed keys.
_WARMUP, _OPS, _OPEN, _CLOSED, _BATCH = 0, 1, 2, 3, 4


# -- queries ---------------------------------------------------------------


def make_queries(seed: int, count: int, hull, violation=None) -> list[tuple]:
    """Off-grid scalar queries ``(path, (a, f, d, x), target)``: half
    violation (x = depth), half depth (x = target probability), or all
    of one kind when ``violation`` is given."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, hull.alphas[-1], count)
    fractions = rng.uniform(hull.unique_fractions[0], 1.0, count)
    deltas = rng.integers(0, hull.deltas[-1] + 1, count)
    depths = rng.integers(hull.depths[0], hull.depths[-1] + 21, count)
    targets = 10.0 ** rng.uniform(np.log10(hull.targets[-1]) + 0.1, -1.0, count)
    kinds = rng.random(count) < 0.5 if violation is None else [violation] * count
    queries = []
    for i in range(count):
        alpha, fraction = f"{alphas[i]:.5f}", f"{fractions[i]:.5f}"
        delta = str(int(deltas[i]))
        if kinds[i]:
            path, name, last = "/v1/violation", "depth", str(int(depths[i]))
        else:
            path, name, last = "/v1/depth", "target", f"{targets[i]:.4e}"
        target = (
            f"{path}?alpha={alpha}&unique_fraction={fraction}"
            f"&delta={delta}&{name}={last}"
        )
        values = tuple(float(v) for v in (alpha, fraction, delta, last))
        queries.append((path, values, target))
    return queries


def make_batches(seed: int, size: int, hull) -> list[tuple]:
    """Columnar batch bodies ``(path, columns, body bytes)``, alternating
    ``/v1/violation`` and ``/v1/depth``."""
    batches = []
    for index in range(2 * BODIES):
        violation = index % 2 == 0
        queries = make_queries(
            common.derive_seed(seed, index), size, hull, violation
        )
        names = ("alpha", "unique_fraction", "delta")
        names += ("depth",) if violation else ("target",)
        columns = [
            [values[axis] for _, values, _ in queries] for axis in range(4)
        ]
        body = json.dumps(dict(zip(names, columns))).encode()
        path = "/v1/violation" if violation else "/v1/depth"
        batches.append((path, columns, body))
    return batches


def expected_scalar(oracle, path: str, values) -> bytes:
    """The in-process answer, in the served response shape."""
    if path == "/v1/violation":
        payload = {
            "violation_probability": oracle.violation_probability(*values),
            "conservative": True,
        }
    else:
        depth, source = oracle.settlement_depth_with_source(*values)
        payload = {"depth": depth, "source": source, "conservative": True}
    return json.dumps(payload).encode()


def expected_batch(oracle, path: str, columns) -> bytes:
    if path == "/v1/violation":
        values = oracle.violation_probabilities(*columns)
        payload = {"violation_probability": values.tolist()}
    else:
        depths, sources = oracle.settlement_depths_with_source(*columns)
        payload = {"depth": depths.tolist(), "source": sources}
    return json.dumps(payload).encode()


def check_scalar(oracle, query, body, spec, with_dp: bool) -> list[str]:
    """Byte-equality with the in-process oracle and, for violation
    queries, the upper-bound contract against the exact DP."""
    path, values, target = query
    if body != expected_scalar(oracle, path, values):
        return [f"{target}: served {body[:120]!r} differs from the oracle"]
    if with_dp and path == "/v1/violation":
        alpha, fraction, delta, depth = values
        law = effective_probabilities(alpha, fraction, int(delta), spec.activity)
        exact = settlement_violation_probability(law, int(depth))
        served = json.loads(body)["violation_probability"]
        if served < exact * (1.0 - RELATIVE_SLACK):
            return [f"{target}: served {served} below the exact DP {exact}"]
    return []


# -- the server ------------------------------------------------------------


class Server:
    """``python -m repro.oracle serve ARTIFACT --port 0`` in a subprocess."""

    def __init__(self, artifact, cpus=None) -> None:
        env = dict(os.environ, PYTHONPATH=str(common.SRC), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.oracle", "serve", str(artifact),
             "--port", "0"],
            env=env,
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            if cpus is not None:
                os.sched_setaffinity(self.process.pid, cpus)
            line = self.process.stdout.readline()
            match = re.search(r"http://[^:/]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not announce a port: {line!r}")
            self.port = int(match.group(1))
            self.get("/healthz")
        except BaseException:
            self.stop()
            raise

    def get(self, target: str) -> bytes:
        link = httpload.Connection(self.port)
        try:
            status, body = link.request(httpload.get(target))
        finally:
            link.close()
        if status != 200:
            raise RuntimeError(f"GET {target} answered {status}")
        return body

    def errors(self) -> float:
        """Error responses counted by the server's own /metrics."""
        text = self.get("/metrics").decode()
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_oracle_errors_total")
        )

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def split_cpus():
    """Pin this process to one CPU and return the others for the server,
    so the two never compete for one CPU (left to the scheduler, their
    placement varies from run to run).  Returns ``None`` (no pinning) on
    a single-CPU machine.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, cpus[:1])
    return set(cpus[1:])


def set_up(spec, seed: int, size: str, repeat: int, server_cpus,
           timed) -> tuple:
    """Imports, cold build, then server start-up and warm-up: one
    set-up, timed in those three parts.  Returns the artifact, the
    server and the set-up's host-adjusted time."""
    _, import_s, import_host = timed(common.import_seconds, MODULES)
    artifact, build_s, build_host = timed(build, spec, repeat)
    server, serve_s, serve_host = timed(
        start_server, artifact, spec, seed, size, repeat, server_cpus
    )
    adjusted = import_s / import_host + build_s / build_host
    return artifact, server, adjusted + serve_s / serve_host


def build(spec, repeat: int):
    artifact = common.fresh_dir(f"artifact-setup-{repeat}")
    build_tables(spec, out_dir=artifact)
    return artifact


def start_server(artifact, spec, seed: int, size: str, repeat: int,
                 server_cpus) -> Server:
    """Start the server and warm it up with GETs and batch POSTs."""
    server = Server(artifact, server_cpus)
    try:
        warm = make_queries(common.derive_seed(seed, _WARMUP, repeat), 200, spec)
        batches = make_batches(common.derive_seed(seed, _WARMUP, repeat),
                               BATCH[size], spec)
        for requests in (
            [httpload.get(t) for _, _, t in warm],
            [httpload.post(p, b) for p, _, b in batches],
        ):
            phase = httpload.closed_loop(
                server.port, requests, 60.0, lambda index: False
            )
            if phase.completed != len(requests):
                raise RuntimeError("the server failed warm-up requests")
    except BaseException:
        server.stop()
        raise
    return server


# -- traffic ---------------------------------------------------------------


def open_queries(seed: int, round_: int, seconds: float, size: str, spec):
    """Round ``round_``'s open-loop query stream."""
    count = max(1, int(RATE[size] * PHASES[0] * seconds / ROUNDS))
    return make_queries(common.derive_seed(seed, _OPEN, round_), count, spec)


def account(result, oracle, spec, queries, phase, dp_checks: int) -> int:
    """Count every scalar request of a phase as an op and check the
    kept bodies; returns the exact-DP checks still to spend."""
    for index, status in enumerate(phase.status):
        if status is None:
            continue
        problems = []
        if status != 200:
            problems.append(f"{queries[index][2]}: status {status}")
        elif phase.body[index] is not None:
            problems = check_scalar(
                oracle, queries[index], phase.body[index], spec, dp_checks > 0
            )
            dp_checks -= queries[index][0] == "/v1/violation"
        result.op(problems)
    return dp_checks


def handle_gets(app, gets) -> float:
    """Phase d's GETs, one by one through ``OracleApp.handle`` in this
    process; returns their median time."""
    handled = []
    for target in gets:
        start = common.clock()
        app.handle("GET", target)
        handled.append(common.clock() - start)
    return common.median(handled)


def handle_batches(app, batches) -> None:
    """Phase d's pass over the batch bodies, in this process."""
    for path, _, body in batches:
        app.handle("POST", path, body)


def traffic(server, oracle, spec, seed, seconds, size, result) -> dict:
    """``ROUNDS`` rounds of phases a, b, c and d; accounts every request
    and checks the kept bodies."""
    share_a, share_b, share_c, share_d = PHASES
    window = seconds / ROUNDS
    batches = make_batches(common.derive_seed(seed, _BATCH), BATCH[size], spec)
    answers = [expected_batch(oracle, p, c) for p, c, _ in batches]
    app = OracleApp(oracle)
    requests = [httpload.post(path, body) for path, _, body in batches]
    keep = lambda index: index % SAMPLE_EVERY == 0  # noqa: E731
    measured = {
        "open_latency": [], "open_late": [], "closed_latency": [],
        "refused": 0, "closed_done": 0, "closed_s": 0.0,
        "host": [], "block_p50": [], "block_qps": [], "batch_qps": [],
    }
    dp_checks = DP_CHECKS
    # Every phase and block is timed between host references, GETs with
    # one kind and batches with another; the reference after one block
    # doubles as the one before the next of its kind.
    scalar_clock = HostClock(SCALAR_REQUESTS)
    batch_clock = HostClock(BATCH_BODIES)
    for round_ in range(ROUNDS):
        opened = open_queries(seed, round_, seconds, size, spec)
        closed = make_queries(
            common.derive_seed(seed, _CLOSED, round_),
            int(CLOSED_CAPACITY * share_b * window) + 1,
            spec,
        )
        posts = [
            requests[index % len(requests)]
            for index in range(int(CLOSED_CAPACITY * share_c * window) + 1)
        ]
        phase_a, _, host_a = scalar_clock.timed(
            httpload.open_loop,
            server.port, [httpload.get(t) for _, _, t in opened],
            RATE[size], keep,
        )
        phase_b, _, host_b = scalar_clock.timed(
            httpload.closed_loop,
            server.port, [httpload.get(t) for _, _, t in closed],
            share_b * window, keep, 1,
        )
        phase_c, _, host_c = batch_clock.timed(
            httpload.closed_loop,
            server.port, posts, share_c * window, lambda index: True,
        )
        # (d) the same GETs and batch bodies through OracleApp.handle in
        # this process, block after block for the phase's share.
        gets = [target for _, _, target in closed[:IN_PROCESS_GETS]]
        queried = len(batches) * BATCH[size]
        start = common.clock()
        block = 0
        while not block or common.clock() - start < share_d * window:
            first = block * GETS_PER_BLOCK % len(gets)
            block += 1
            p50, _, host_gets = scalar_clock.timed(
                handle_gets, app, gets[first:first + GETS_PER_BLOCK]
            )
            _, batch_s, host_batch = batch_clock.timed(
                handle_batches, app, batches
            )
            measured["block_p50"].append(p50 / host_gets)
            measured["block_qps"].append(queried * host_batch / batch_s)
            measured["host"] += [host_gets, host_batch]
        if phase_b.sent >= len(closed) or phase_c.sent >= len(posts):
            raise RuntimeError(
                "closed-loop request list ran out; raise CLOSED_CAPACITY"
            )
        dp_checks = account(result, oracle, spec, opened, phase_a, dp_checks)
        dp_checks = account(result, oracle, spec, closed, phase_b, dp_checks)
        for index, status in enumerate(phase_c.status):
            if status is None:
                continue
            ok = status == 200 and phase_c.body[index] == answers[
                index % len(batches)
            ]
            result.op([] if ok else [f"batch {index}: status {status} or body differs"])
        adjusted = [x / host_a for x in phase_a.latency]
        closed_latency = [
            x for x, status in zip(phase_b.latency, phase_b.status)
            if status is not None
        ]
        measured["batch_qps"].append(
            phase_c.completed * BATCH[size] * host_c / phase_c.elapsed
        )
        measured["open_latency"] += adjusted
        measured["open_late"] += phase_a.late
        measured["closed_latency"] += closed_latency
        measured["refused"] += phase_a.refused + phase_b.refused + phase_c.refused
        measured["closed_done"] += phase_b.completed
        measured["closed_s"] += phase_b.elapsed / host_b
        measured["host"] += [host_a, host_b, host_c]
    measured["scalar_rps"] = measured["closed_done"] / measured["closed_s"]
    return measured


# -- the traced run's in-process op ----------------------------------------


def layer_op(spec, tracer, seed: int, index: int, queries, batches) -> dict:
    """Cold build, load, then the service and the app in-process on the
    open-loop query stream and the batch bodies.  Runs in traced pairs
    only, which time the op as a whole."""
    if tracer.active:
        span = tracer.span
    else:
        span = lambda name: contextlib.nullcontext()  # noqa: E731
    directory = common.fresh_dir(f"artifact-op-{index}")
    build_tables(dataclasses.replace(spec, mc_seed=seed), out_dir=directory)
    oracle = SettlementOracle.load(directory)
    stored = sum(path.stat().st_size for path in directory.iterdir())

    with span("oracle.service"):
        start = common.clock()
        for path, values, _ in queries:
            if path == "/v1/violation":
                oracle.violation_probability(*values)
            else:
                oracle.settlement_depth_with_source(*values)
        scalar_s = common.clock() - start
        start = common.clock()
        for path, columns, _ in batches:
            if path == "/v1/violation":
                oracle.violation_probabilities(*columns)
            else:
                oracle.settlement_depths_with_source(*columns)
        batch_s = common.clock() - start

    app = OracleApp(oracle)
    with span("oracle.app"):
        start = common.clock()
        scalar_bodies = [app.handle("GET", t).body for _, _, t in queries]
        handle_scalar_s = common.clock() - start
        start = common.clock()
        batch_bodies = [app.handle("POST", p, b).body for p, _, b in batches]
        handle_batch_s = common.clock() - start

    tables = oracle.tables
    queried = len(queries)
    return {
        "oracle": oracle,
        "outputs": (
            tables.forward.tobytes(),
            tables.minimal_depth.tobytes(),
            tables.analytic_depth.tobytes(),
            tuple(scalar_bodies),
            tuple(batch_bodies),
        ),
        "store_bytes": stored,
        "scalar_us": 1e6 * scalar_s / queried,
        "batch_us_per_query": 1e6 * batch_s / sum(len(c[0]) for _, c, _ in batches),
        "handle_scalar_us": 1e6 * handle_scalar_s / queried,
        "handle_batch_ms": 1e3 * handle_batch_s / len(batches),
    }


def check_layer_op(op, queries, batches) -> list[str]:
    """The in-process app answers what the in-process oracle answers."""
    oracle = op["oracle"]
    scalar_bodies, batch_bodies = op["outputs"][3:]
    problems = []
    for query, body in zip(queries[::SAMPLE_EVERY], scalar_bodies[::SAMPLE_EVERY]):
        if body != expected_scalar(oracle, query[0], query[1]):
            problems.append(f"in-process app differs on {query[2]}")
    for (path, columns, _), body in zip(batches, batch_bodies):
        if body != expected_batch(oracle, path, columns):
            problems.append(f"in-process app differs on a {path} batch")
    return problems


# -- the workload ----------------------------------------------------------


def run(result: common.Result, seed: int, seconds: float, size: str,
        tracer=None):
    spec = dataclasses.replace(
        SPECS[size], mc_seed=common.derive_seed(seed, _WARMUP)
    )
    setups, server = [], None
    server_cpus = split_cpus()
    host_clock = HostClock(MIXED)
    try:
        for repeat in range(1 if tracer else SETUP_REPEATS):
            if server is not None:
                server.stop()
            artifact, server, adjusted = set_up(
                spec, seed, size, repeat, server_cpus, host_clock.timed
            )
            setups.append(adjusted)
        oracle = SettlementOracle.load(artifact)
        if tracer is None:
            measured = traffic(server, oracle, spec, seed, seconds, size, result)
            result.set("setup_s", common.median(setups))
            result.note(
                "host slowness factor, median over phases (metrics are "
                "divided by it)",
                common.median(measured["host"]),
            )
            result.set("peak_rss_mb", server.peak_rss_mb())
            result.set(
                "latency_p50_ms", 1000 * common.median(measured["block_p50"])
            )
            result.set("throughput_per_s", common.median(measured["block_qps"]))
            result.note(
                "HTTP closed-loop GET p50 ms (one connection)",
                1000 * common.median(measured["closed_latency"]),
            )
            result.note(
                "HTTP open-loop GET p50 ms (from due time)",
                1000 * common.median(measured["open_latency"]),
            )
            result.note(
                "HTTP batch queries/s", common.median(measured["batch_qps"])
            )
            return None

        # Traced run: in-process layer ops (untraced/traced pairs) on the
        # open-loop stream, then the traffic phases for the transport.
        queries = open_queries(seed, 0, seconds, size, spec)
        batches = make_batches(common.derive_seed(seed, _BATCH), BATCH[size], spec)
        ops = run_ops(
            result,
            seconds / 2,
            lambda index: common.derive_seed(seed, _OPS, index),
            lambda op_seed, index, timed: layer_op(
                spec, tracer, op_seed, index, queries, batches
            ),
            lambda op: check_layer_op(op, queries, batches),
            lambda op: op["outputs"],
            tracer,
            oracle_build_patches(),
            MIXED,
        )
        measured = traffic(server, oracle, spec, seed, seconds / 2, size, result)
        untraced = ops.untraced
        result.set(
            "oracle.store.bytes",
            common.median(op["store_bytes"] for op in untraced),
        )
        for metric, key in (
            ("oracle.service.scalar_us", "scalar_us"),
            ("oracle.service.batch_us_per_query", "batch_us_per_query"),
            ("oracle.app.handle_scalar_us", "handle_scalar_us"),
            ("oracle.app.handle_batch_ms", "handle_batch_ms"),
        ):
            result.set(
                metric, common.median(op[key] / op["host"] for op in untraced)
            )
        result.set(
            "oracle.transport.scalar_us",
            1e6 * common.median(measured["closed_latency"])
            - common.median(op["handle_scalar_us"] for op in untraced),
        )
        result.set("oracle.app.errors", server.errors())
        result.set("oracle.transport.refused", measured["refused"])
        result.set(
            "bench.gen_late_p99_ms",
            1000 * common.percentile(measured["open_late"], 0.99),
        )
        result.set(
            "serve_scalar_p50_ms", 1000 * common.median(measured["open_latency"])
        )
        result.set(
            "serve_scalar_p99_ms",
            1000 * common.percentile(measured["open_latency"], 0.99),
        )
        result.set("serve_scalar_rps", measured["scalar_rps"])
        result.set(
            "serve_closed_p50_ms",
            1000 * common.median(measured["closed_latency"]),
        )
        result.set("serve_batch_qps", common.median(measured["batch_qps"]))
        return ops
    finally:
        if server is not None:
            server.stop()
