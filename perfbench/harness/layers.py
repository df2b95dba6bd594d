"""Which public functions of ``repro`` each per-layer span wraps.

Every entry is ``(owner, attribute, span name, count hook)``.  A span
name is the layer's metric prefix; per-layer self times are reported as
``<span name>_s`` style metrics by the workloads.  Count hooks run after
every call and add the layer's work counts (``Tracer.counts``).
"""

from __future__ import annotations

import os

from repro.analysis import genfunc
from repro.engine import kernels, sweeps
from repro.engine.cache import ResultCache
from repro.engine.protocol import ProtocolScenario
from repro.engine.runner import ExperimentRunner, PendingEstimate
from repro.engine.scenarios import Scenario
from repro.oracle import store, tables
from repro.protocol import block, crypto, leader, node, simulation, transport


def _count(name):
    def hook(args, kwargs, result, counts):
        counts[name] += 1

    return hook


def _symbols(args, kwargs, result, counts):
    counts["engine.kernels.symbols"] += int(args[0].size)


def _bytes_written(args, kwargs, result, counts):
    counts["engine.cache.bytes_written"] += os.path.getsize(result)


def _runner_report(args, kwargs, result, counts):
    report = args[0].last_report
    counts["engine.runner.chunks"] += report.sampled_chunks
    counts["engine.runner.waves"] += report.waves


def _deliveries(args, kwargs, result, counts):
    counts["protocol.transport.events"] += len(result)


def _broadcasts(args, kwargs, result, counts):
    # One scheduled delivery per recipient of an honest broadcast.
    counts["protocol.transport.events"] += len(args[0].recipients)


def _injections(args, kwargs, result, counts):
    counts["protocol.transport.events"] += 1


def engine_patches() -> list[tuple]:
    """Sweep, runner, cache, sampling and estimation kernels."""
    return [
        (sweeps, "run_grid", "engine.sweeps.run_grid", None),
        (ExperimentRunner, "run_until", "engine.runner", _runner_report),
        (ExperimentRunner, "run", "engine.runner", None),
        (ExperimentRunner, "submit", "engine.runner", None),
        (PendingEstimate, "result", "engine.runner", None),
        (ResultCache, "get", "engine.cache.get", None),
        (ResultCache, "get_chunks", "engine.cache.get", None),
        (ResultCache, "contains", "engine.cache.get", None),
        (ResultCache, "put", "engine.cache.put", _bytes_written),
        (ResultCache, "put_chunks", "engine.cache.put", _bytes_written),
        (Scenario, "sample_batch", "engine.scenarios.sample", None),
        (kernels, "joint_final_states", "engine.kernels.estimate", _symbols),
    ]


def protocol_patches() -> list[tuple]:
    """Full protocol execution: simulation, leader lottery, hashing,
    block reception, block trees and the continuous-time transport."""
    hash_calls = _count("protocol.crypto.hash_calls")
    return [
        (ExperimentRunner, "run", "engine.runner", None),
        (ExperimentRunner, "submit", "engine.runner", None),
        (PendingEstimate, "result", "engine.runner", None),
        (ProtocolScenario, "sample_batch", "protocol.simulation", None),
        (simulation.SimulationResult, "settlement_violation",
         "protocol.simulation", None),
        (simulation.SimulationResult, "max_reorg_depth",
         "protocol.simulation", None),
        (leader.VrfLeaderElection, "eligibility", "protocol.leader.eligibility",
         _count("protocol.leader.eligibility_calls")),
        # hash_data is looked up in crypto's own namespace by the VRF and
        # signature scheme, and imported by name into block.
        (crypto, "hash_data", "protocol.crypto.hash", hash_calls),
        (block, "hash_data", "protocol.crypto.hash", hash_calls),
        (node.HonestNode, "receive", "protocol.node.receive", None),
        (block.BlockTree, "add_block", "protocol.block.add_block", None),
        (transport.Transport, "__init__", "protocol.transport", None),
        (transport.Transport, "broadcast", "protocol.transport", _broadcasts),
        (transport.Transport, "inject", "protocol.transport", _injections),
        (transport.Transport, "due", "protocol.transport", _deliveries),
    ]


def oracle_build_patches() -> list[tuple]:
    """The artifact build: generating functions, exact DP, the
    Monte-Carlo cross-check (with the engine layers under it) and the
    artifact store."""
    convolutions = _count("analysis.genfunc.convolutions")
    cells = _count("analysis.exact.cells")
    return [
        # tables calls genfunc through the module, so internal genfunc
        # calls (series_compose -> series_multiply) hit the wrappers too.
        (genfunc, "bound1_dominating_series", "analysis.genfunc", None),
        (genfunc, "stationary_prefix_correction", "analysis.genfunc", None),
        (genfunc, "series_multiply", "analysis.genfunc", convolutions),
        (genfunc, "probability_tail", "analysis.genfunc", None),
        # tables imports the DP entry points and run_grid by name.
        (tables, "settlement_violation_probability", "analysis.exact", cells),
        (tables, "compute_settlement_probabilities", "analysis.exact", cells),
        (tables, "run_grid", "oracle.tables.mc_check", None),
        (store, "save_tables", "oracle.store.save", None),
        (store, "load_tables", "oracle.store.load", None),
        *[
            patch
            for patch in engine_patches()
            if patch[0] is not sweeps
        ],
    ]
