"""Harness tests: tiny runs print every metric; corrupted outputs fail.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from harness import common, mc_table1, oracle_serve  # noqa: E402
from harness.hostref import (  # noqa: E402
    BATCH_BODIES,
    INTERPRETER,
    MIXED,
    SCALAR_REQUESTS,
    HostClock,
    Reference,
    untimed,
)
from harness.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mc-table1", "protocol-mix", "oracle-serve"])
def test_tiny_run_prints_every_metric(workload, trace):
    completed = tiny_run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalog = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in catalog]
    for metric in catalog:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        # The human-readable table names every metric with its unit too.
        assert any(
            line.split()[:1] == [metric["name"]]
            and line.split()[-1] == metric["unit"]
            for line in lines[:-1]
        )
        if not trace:
            assert entry["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark (no
    program to measure) makes the command fail and print nothing."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.fixture(scope="module")
def tiny_oracle():
    from repro.oracle.service import SettlementOracle
    from repro.oracle.tables import build_tables

    spec = oracle_serve.SPECS["tiny"]
    return spec, SettlementOracle(build_tables(spec).tables)


def perturb(body: bytes) -> bytes:
    payload = json.loads(body)
    payload["violation_probability"] *= 1.0 + 1e-12
    return json.dumps(payload).encode()


def test_served_scalar_answers_pass_when_exact(tiny_oracle):
    spec, oracle = tiny_oracle
    queries = oracle_serve.make_queries(3, 40, spec)
    for query in queries:
        body = oracle_serve.expected_scalar(oracle, query[0], query[1])
        assert oracle_serve.check_scalar(oracle, query, body, spec, True) == []


def test_perturbed_served_value_fails_the_check(tiny_oracle):
    spec, oracle = tiny_oracle
    query = oracle_serve.make_queries(3, 1, spec, violation=True)[0]
    body = oracle_serve.expected_scalar(oracle, query[0], query[1])
    problems = oracle_serve.check_scalar(
        oracle, query, perturb(body), spec, True
    )
    assert problems and "differs" in problems[0]
    result = common.Result()
    result.op(problems)
    assert result.failed == 1
    assert result.emit([])["correct"] is False


def test_perturbed_batch_answer_differs(tiny_oracle):
    spec, oracle = tiny_oracle
    path, columns, _ = oracle_serve.make_batches(5, 20, spec)[0]
    body = oracle_serve.expected_batch(oracle, path, columns)
    payload = json.loads(body)
    payload["violation_probability"][3] *= 1.0 + 1e-12
    assert json.dumps(payload).encode() != body


def test_mc_point_off_the_exact_value_fails():
    from repro.engine import sweeps

    grid = sweeps.get_grid(mc_table1.GRID)
    exact = mc_table1.exact_values(grid)
    op = mc_table1.run_op(
        grid, 11, mc_table1.TARGET_SE["tiny"], "test-op", untimed
    )
    assert mc_table1.check(op, exact) == []
    row = op["cold"][5]
    row["value"] = exact[5] + 7 * mc_table1.sigma(row, exact[5])
    problems = mc_table1.check(op, exact)
    assert len(problems) == 1 and "cold point" in problems[0]


def test_self_times_and_other_sum_to_the_op_wall():
    import time
    import types

    module = types.SimpleNamespace(
        outer=lambda: (time.sleep(0.002), module.inner()),
        inner=lambda: time.sleep(0.003),
    )
    original = module.outer
    tracer = Tracer()
    patches = [
        (module, "outer", "layer.outer", None),
        (module, "inner", "layer.inner", lambda a, k, r, counts: counts.update(["calls"])),
    ]
    with tracer.op(patches) as op:
        module.outer()
        time.sleep(0.001)
    assert module.outer is original  # unwrapped after the op
    selfs = tracer.self_times[op]
    assert sum(selfs.values()) == pytest.approx(tracer.op_walls[op], abs=1e-9)
    assert selfs["layer.inner"] >= 0.003
    assert selfs["op"] >= 0.001
    assert tracer.counts["calls"] == 1
    assert {span[1] for span in tracer.spans} == {"op", "layer.outer", "layer.inner"}


@pytest.mark.parametrize(
    "reference", [MIXED, INTERPRETER, SCALAR_REQUESTS, BATCH_BODIES]
)
def test_references_run_near_their_nominal_time(reference):
    # Within a factor of five either way on any host this runs on.
    assert 0.2 < reference.factor() < 5.0


def test_host_clock_shares_the_reference_between_blocks():
    calls = []
    clock = HostClock(Reference(lambda: calls.append(1), 1.0))
    for value in range(3):
        result, seconds, host = clock.timed(lambda x: x * 2, value)
        assert result == value * 2 and seconds >= 0.0 and host >= 0.0
    # One reference before the first block, then one after each block.
    assert len(calls) == 4
    assert untimed(lambda: "done")[::2] == ("done", 1.0)
