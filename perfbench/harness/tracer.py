"""In-memory span tracer that times repro layers from the outside.

The benchmark never edits the program: it wraps the public functions and
methods it imports (``Tracer.wrap``), records one span per outermost call
into a layer, and restores every wrapped attribute when the traced block
ends.  A span is ``(id, name, start, end, parent, op)``; spans stay in
memory (for the first op) and are written out once, when the run ends
(``Tracer.dump``).

Re-entrant calls into the layer that is already innermost (for example
``series_multiply`` called from ``bound1_dominating_series``) open no new
span; their count hooks still run.  A layer's *self time* is its spans'
durations minus the time their child spans cover, so the self times of
all layers plus the op root's own self time (the ``other`` bucket) sum to
the op's wall time exactly.

Tracing only reads clocks and argument/return values: it draws no random
numbers and feeds nothing back into the program, so traced and untraced
ops give bit-identical outputs (checked by every workload).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time

#: Name of the root span of every traced op; its self time is ``other``.
OP = "op"


class Tracer:
    """Collects spans, self times and counters of the ops run under
    :meth:`op`.

    Self times and op walls are accumulated as spans close, for every
    op.  Full span records are kept for the first op only, which bounds
    memory on workloads that make 10^5 layer calls per op.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        #: op -> layer -> self time (seconds).
        self.self_times: dict[int, collections.Counter] = {}
        #: op -> wall time of its root span (seconds).
        self.op_walls: dict[int, float] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> None:
        # frame: id, name, start, time covered by child spans
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        ident, name, start, children = self._stack.pop()
        duration = end - start
        self.self_times[self._op][name] += duration - children
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent = parent[0]
        else:
            parent = None
            self.op_walls[self._op] = duration
        if self._op == 0:
            self.spans.append((ident, name, start, end, parent, self._op))

    @property
    def active(self) -> bool:
        """Is a traced op open?"""
        return bool(self._stack)

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    @contextlib.contextmanager
    def op(self, patches):
        """Run one traced op: install ``patches``, open the root span,
        and restore every wrapped attribute afterwards."""
        self._op += 1
        self.self_times[self._op] = collections.Counter()
        try:
            for owner, attribute, layer, after in patches:
                self.wrap(owner, attribute, layer, after)
            with self.span(OP):
                yield self._op
        finally:
            self.unwrap_all()

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attribute: str, layer: str, after=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``after(args, kwargs, result, counts)`` runs after every call,
        re-entrant ones included, to record work counts.
        """
        # Classes: the attribute must be defined on ``owner`` itself, so
        # restoring it later cannot shadow an inherited definition.
        original = (
            vars(owner)[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        stack = self._stack
        counts = self.counts
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                result = original(*args, **kwargs)
            else:
                tracer._open(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close()
            if after is not None:
                after(args, kwargs, result, counts)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span (one JSON object per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for ident, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": ident,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
