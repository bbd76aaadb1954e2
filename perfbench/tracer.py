"""Outside-in layer tracer for the end-to-end benchmark.

The simulator is traced without touching its source: :class:`Tracer`
replaces public functions and methods of the ``repro`` modules with
timing wrappers for the duration of a ``with`` block and puts the
originals back on exit.

Two kinds of boundary are recorded:

* **coarse** boundaries (a cell, a design search, ``build_fabric``,
  ``System.run``, power, store get/put) become in-memory spans with a
  name, start, end, parent span and cell id;
* **per-tick** boundaries (router, NI, network, PE, CB, controller,
  fabric I/O, audit, telemetry) are called ~10^5 times per cell, so
  they are kept only as aggregated ``[calls, total_s, self_s]``
  counters per cell — spans at that rate would dominate memory.

A layer's self time is its elapsed time minus the time spent in
wrapped calls made from inside it, so the self times of a cell and
everything below it sum to the cell's wall time.  Counters returned by
``after`` hooks (flit moves, reply-poll hits, memory accesses, ...)
are kept per cell next to the timings.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

OUTSIDE = "-"
"""Context id for calls made outside any cell (set-up, store, bus)."""


class Tracer:
    """Wraps callables in place; restores every one on exit."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self._history: List[Tuple[object, str, object]] = []
        self._stack: List[List[float]] = []
        self._open_span = -1
        self.spans: List[Dict[str, object]] = []
        self.timings: Dict[str, Dict[str, List[float]]] = {}
        self.counts: Dict[str, Dict[str, float]] = {}
        self.cells = 0
        self.context = OUTSIDE
        self._switch(OUTSIDE)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        span: bool = False,
        cell: bool = False,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper timing it as ``layer``.

        ``span`` records a coarse span per call; ``cell`` additionally
        opens a new per-cell context (the call's counters are kept
        under a fresh cell id); ``after(tracer, args, result)`` may add
        counters derived from the call's arguments and return value.
        """
        original = vars(owner)[attr]
        tracer = self
        stack = self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if cell:
                outer = tracer.context
                tracer.cells += 1
                tracer._switch(f"cell{tracer.cells}")
            parent_span = tracer._open_span
            if span:
                span_record = {
                    "name": layer,
                    "start": 0.0,
                    "end": 0.0,
                    "parent": parent_span,
                    "cell": tracer.context,
                }
                tracer._open_span = len(tracer.spans)
                tracer.spans.append(span_record)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                agg = tracer._timing.get(layer)
                if agg is None:
                    agg = tracer._timing[layer] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if span:
                    span_record["start"] = start
                    span_record["end"] = end
                    tracer._open_span = parent_span
                if cell:
                    tracer._switch(outer)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._history.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leaks(self) -> List[str]:
        """Every callable this tracer wrapped that is not back in place."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._history
            if vars(owner).get(attr) is not original
        ]

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _switch(self, context: str) -> None:
        self.context = context
        self._timing = self.timings.setdefault(context, {})
        self._count = self.counts.setdefault(context, defaultdict(float))

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` in the current context."""
        self._count[name] += value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def layer(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of one layer over all contexts."""
        calls, total, self_s = 0, 0.0, 0.0
        for timing in self.timings.values():
            agg = timing.get(name)
            if agg is not None:
                calls += agg[0]
                total += agg[1]
                self_s += agg[2]
        return calls, total, self_s

    def total_count(self, name: str) -> float:
        return sum(c.get(name, 0.0) for c in self.counts.values())

    def export(self) -> Dict[str, object]:
        """Plain-JSON trace: spans plus per-context counters."""
        return {
            "spans": self.spans,
            "timings": self.timings,
            "counts": {k: dict(v) for k, v in self.counts.items()},
        }


def span_self_times(spans: Sequence[Dict[str, object]]) -> List[float]:
    """Self time of each span: its duration minus its children's.

    ``parent`` is the index of the enclosing span (-1 for a root).
    Children of one parent never overlap (calls are synchronous), so
    subtracting their durations leaves exactly the uncovered part.
    """
    self_times = [float(s["end"]) - float(s["start"]) for s in spans]
    for span in spans:
        parent = int(span["parent"])
        if parent >= 0:
            self_times[parent] -= float(span["end"]) - float(span["start"])
    return self_times
