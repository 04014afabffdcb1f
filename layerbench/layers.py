"""How the benchmark calls into the program's layers.

Every call the benchmark makes into a layer of ``repro`` goes through
one recorder method, ``rec.call(layer, fn, *args, **kwargs)``.  The
recorder decides what to observe around the call:

* :class:`Recorder` — nothing; the call runs as if made directly.
  The end-to-end metrics are measured with this one.
* :class:`RssRecorder` — the process's ``ru_maxrss`` high-water mark
  before and after each call, summed per layer (``*.rss_delta_mb``).
* :class:`SpanRecorder` — one span per call (name, start, end, parent
  span, run id), kept in memory and written out at the end; per-layer
  self times and the ``unattributed`` bucket come from these.
* :class:`AllocRecorder` — the ``tracemalloc`` peak of each call
  (``*.alloc_peak_mb``).  It slows allocation-heavy layers, so it runs
  in a pass that times nothing.
"""

from __future__ import annotations

import math
import resource
import sys
import tracemalloc
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

ROOT = "workload"
UNATTRIBUTED = "unattributed"


def max_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of sorted samples.

    With fewer than ``100 / (100 - q)`` samples this is the largest one.
    """
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Recorder:
    """Calls layers directly; observes nothing."""

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class RssRecorder(Recorder):
    """Sums the growth of the ``ru_maxrss`` high-water mark per layer."""

    def __init__(self) -> None:
        self.rss_delta_mb: Dict[str, float] = {}

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        before = max_rss_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            grown = max_rss_mb() - before
            self.rss_delta_mb[layer] = self.rss_delta_mb.get(layer, 0.0) + grown


class AllocRecorder(Recorder):
    """``tracemalloc`` peak of each call to the given layers, in MiB.

    Tracing runs only inside those calls.  Leave out layers made of
    many small allocations (the CONGEST simulator, the churn stream,
    per-delta repair): tracemalloc slows them more than ten-fold, and
    their memory shows in ``*.rss_delta_mb``.
    """

    def __init__(self, layers: Iterable[str]) -> None:
        self.layers = frozenset(layers)
        self.alloc_peak_mb: Dict[str, float] = {}

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if layer not in self.layers:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            mb = peak / (1024.0 * 1024.0)
            self.alloc_peak_mb[layer] = max(self.alloc_peak_mb.get(layer, 0.0), mb)


class SpanRecorder(Recorder):
    """Records one span per layer call under a root span.

    Spans are dicts ``{"run", "id", "name", "parent", "start", "end"}``
    with times in seconds from the recorder's creation; they stay in
    :attr:`spans` until the caller writes them out.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._t0 = perf_counter()
        self._stack: List[int] = []

    def _open(self, name: str) -> Dict[str, Any]:
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: Dict[str, Any]) -> None:
        span["end"] = perf_counter() - self._t0
        self._stack.pop()

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside the root span (the workload's wall time)."""
        return self.call(ROOT, fn)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name; the root's self time is ``unattributed``.

        A span's self time is its duration minus its children's
        durations (calls run on one thread, so children never overlap),
        hence the values sum to the root span's duration.
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                dur = span["end"] - span["start"]
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + dur
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            name = UNATTRIBUTED if span["name"] == ROOT else span["name"]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def root_seconds(self) -> float:
        roots = [s for s in self.spans if s["parent"] is None]
        return sum(s["end"] - s["start"] for s in roots)


def attribution_error(rec: SpanRecorder) -> Optional[str]:
    """Why the self times fail to sum to the root span, or ``None``."""
    total = sum(rec.self_times().values())
    root = rec.root_seconds()
    if abs(total - root) > 1e-6 * max(1.0, root):
        return f"layer self times sum to {total:.9f}s, root span is {root:.9f}s"
    return None
