"""The host's speed, from fixed reference workloads that run no ``repro`` code.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by tens of percent over minutes, far more than the
changes the benchmark must resolve.  Timing a reference workload around
a measured block gives the host's speed during the block; dividing the
block's time by the host factor ``reference time / nominal time`` removes
most of the drift but keeps every change to the program, which the
reference never runs.

How much a busy host slows a piece of code depends on what the code
does (interpreter dispatch, hashing, memory traffic, NumPy loops), so
each workload is adjusted by a reference built from the same kinds of
operations as its own hot path:

* :data:`MIXED` (mc-table1): a large shuffled dict, SHA-256 and NumPy
  scans over a cache-sized array, like the vectorised kernels, sampling
  and cache bookkeeping of a Monte-Carlo grid;
* :data:`INTERPRETER` (protocol-mix): a small block-tree simulation in
  plain Python objects with a SHA-256 lottery, like the protocol's
  nodes, blocks and VRF;
* :data:`SCALAR_REQUESTS` (oracle-serve GETs): query-string parsing,
  bisection, NumPy scalar lookups and JSON encoding of small answers,
  like ``OracleApp.handle`` on a GET;
* :data:`BATCH_BODIES` (oracle-serve batch POSTs): JSON decoding,
  vectorised gathers and JSON encoding of 2000-query columnar bodies,
  like ``OracleApp.handle`` on a batch.

The two oracle paths get references of their own because the host
does not slow them alike: with one reference mixing both kinds of
request, three runs in a row of a ten-run set read the GET median 18%
lower than the others while the batch rate rose by only 7%.

A reference's nominal time is close to its median on the 2-core
development host, so host-adjusted times read "seconds on that host".
"""

from __future__ import annotations

import gc
import hashlib
import json
from bisect import bisect_right
from urllib.parse import parse_qs, urlsplit

import numpy as np

from harness.common import clock


class Reference:
    """A fixed workload and its nominal wall time."""

    def __init__(self, work, nominal_s: float) -> None:
        self.work = work
        self.nominal_s = nominal_s

    def factor(self) -> float:
        """Time one run of the workload; returns the host factor (1.0 =
        nominal, 1.3 = the host runs it 30% slower).

        The cyclic garbage collector is off while it runs: a collection
        there would cost in proportion to the program's live objects,
        which vary from op to op, not with the host's speed.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            self.work()
            return (clock() - start) / self.nominal_s
        finally:
            if enabled:
                gc.enable()


# -- MIXED -----------------------------------------------------------------

_MIXED_ARRAY = np.random.default_rng(0).random((4096, 32))
_MIXED_KEYS = [f"key-{i:06d}-{i * 7919 % 100_003}" for i in range(40_000)]
_MIXED_ORDER = np.random.default_rng(1).permutation(40_000).tolist()


def _mixed() -> None:
    table = {}
    for i in _MIXED_ORDER:
        table[_MIXED_KEYS[i]] = (i, _MIXED_KEYS[i][:4])
    total = 0
    for i in _MIXED_ORDER[::3]:
        total += table[_MIXED_KEYS[i]][0]
    sorted(table.items(), key=lambda item: item[1][0] % 977)
    for i in range(1_000):
        hashlib.sha256(b"%d" % i).digest()
    for _ in range(4):
        np.cumsum(_MIXED_ARRAY, axis=1)
        np.maximum.accumulate(_MIXED_ARRAY, axis=1)
        (_MIXED_ARRAY > 0.5).sum(axis=1)


# -- INTERPRETER -----------------------------------------------------------


class _Block:
    __slots__ = ("parent", "slot", "depth", "digest", "payload")

    def __init__(self, parent, slot, depth, digest, payload) -> None:
        self.parent = parent
        self.slot = slot
        self.depth = depth
        self.digest = digest
        self.payload = payload


class _Tree:
    def __init__(self) -> None:
        self.blocks: dict[str, _Block] = {}
        self.tips: dict[str, int] = {"genesis": 0}

    def add(self, block: _Block) -> bool:
        if block.digest in self.blocks:
            return False
        self.blocks[block.digest] = block
        self.tips.pop(block.parent, None)
        self.tips[block.digest] = block.depth
        return True

    def best(self) -> str:
        return max(self.tips.items(), key=lambda item: (item[1], item[0]))[0]

    def chain(self, tip: str) -> list[int]:
        slots = []
        while tip in self.blocks:
            block = self.blocks[tip]
            slots.append(block.slot)
            tip = block.parent
        return slots


def _interpreter(slots: int = 1_500, parties: int = 6) -> None:
    trees = [_Tree() for _ in range(parties)]
    for slot in range(1, slots + 1):
        for party in range(parties):
            ticket = hashlib.sha256(f"vrf|{party}|{slot}".encode()).digest()
            if int.from_bytes(ticket[:8], "big") >= 1 << 62:
                continue
            tree = trees[party]
            tip = tree.best()
            parent = tree.blocks.get(tip)
            digest = hashlib.sha256(f"{tip}|{slot}|{party}".encode()).hexdigest()
            block = _Block(
                tip, slot, parent.depth + 1 if parent else 1, digest,
                {"party": party, "slot": slot},
            )
            for other in trees:
                other.add(block)
    for tree in trees:
        tree.chain(tree.best())


# -- SCALAR_REQUESTS and BATCH_BODIES --------------------------------------

_REQUEST_TARGETS = [
    f"/v1/violation?alpha=0.{i % 90 + 10:02d}13"
    f"&unique_fraction=0.{i % 50 + 50}&delta={i % 3}&depth={i % 90 + 10}"
    for i in range(600)
]
_REQUEST_TABLE = np.random.default_rng(2).random((8, 8, 3, 12))
_REQUEST_AXIS = [0.05 * i for i in range(8)]
_REQUEST_DEPTHS = [10 * i for i in range(12)]
_REQUEST_BODY = json.dumps({
    "alpha": np.random.default_rng(3).uniform(0.05, 0.3, 2000).tolist(),
    "depth": list(range(2000)),
}).encode()


def _scalar_requests() -> None:
    for target in _REQUEST_TARGETS:
        params = {k: v[0] for k, v in parse_qs(urlsplit(target).query).items()}
        alpha = float(params["alpha"])
        fraction = float(params["unique_fraction"])
        delta = int(params["delta"])
        depth = float(params["depth"])
        value = float(_REQUEST_TABLE[
            max(bisect_right(_REQUEST_AXIS, alpha) - 1, 0),
            min(max(bisect_right(_REQUEST_AXIS, fraction) - 1, 0), 7),
            delta,
            min(bisect_right(_REQUEST_DEPTHS, depth) - 1, 11),
        ])
        json.dumps({"violation_probability": value, "conservative": True}).encode()


def _batch_bodies() -> None:
    axis = np.asarray(_REQUEST_AXIS)
    for _ in range(6):
        body = json.loads(_REQUEST_BODY)
        index = np.searchsorted(axis, np.asarray(body["alpha"], dtype=float))
        values = _REQUEST_TABLE[np.clip(index, 0, 7), 0, 0, 0]
        json.dumps({"violation_probability": values.tolist()}).encode()


MIXED = Reference(_mixed, 0.100)
INTERPRETER = Reference(_interpreter, 0.040)
SCALAR_REQUESTS = Reference(_scalar_requests, 0.017)
BATCH_BODIES = Reference(_batch_bodies, 0.026)


class HostClock:
    """Times blocks together with the host factor around them: the
    reference timing after one block doubles as the timing before the
    next, so back-to-back blocks pay one reference each.

    The host's speed moves by a third within a second or two, so a block
    should not run much longer than that: ops time their parts (each
    scenario, each pass) with :meth:`timed` rather than the whole op.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self._last: float | None = None

    def timed(self, function, *args):
        """Run ``function(*args)``; returns ``(result, seconds, host)``
        where ``host`` is the mean host factor before and after the
        call.  The host-adjusted time is ``seconds / host``."""
        before = self._last if self._last is not None else self.reference.factor()
        start = clock()
        result = function(*args)
        seconds = clock() - start
        self._last = after = self.reference.factor()
        return result, seconds, (before + after) / 2


def untimed(function, *args):
    """:meth:`HostClock.timed` without references (host factor 1.0), for
    the parts of an op that is timed as a whole."""
    start = clock()
    result = function(*args)
    return result, clock() - start, 1.0
