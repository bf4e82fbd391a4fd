"""In-memory span recorder for the traced benchmark run.

A span is one timed call the benchmark makes into the library (or one
subprocess it runs).  Spans are kept in a list and written out once, when
the run ends, so tracing adds no I/O to the timed region.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans {id, name, parent, run, start, end} while enabled.

    With enabled=False, span() is a no-op context manager, so the same task
    code serves the untraced end-to-end runs.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (sum of durations) and self_s.

    Self time is a span's duration minus the time its direct children
    cover; children of one parent run one after another, so their
    durations add up without overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += dur
        agg["self_s"] += dur - child_time.get(s["id"], 0.0)
    return out
