"""In-memory spans for the benchmark's traced runs.

A span has a name, a start, an end, the id of the span that was open
when it began (its parent) and the id of the job it belongs to.  Times
come from time.perf_counter, which on Linux is CLOCK_MONOTONIC and so
comparable between the runner and the child interpreters it starts.
Spans stay in memory until the run writes them out as JSON.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans for one job; `counts` holds work counters."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "job": self.job}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self) -> dict:
        return {"job": self.job, "spans": self.spans, "counts": self.counts}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """The span's duration minus the part of it its child spans cover."""
    kids = sorted((s["start"], s["end"]) for s in spans
                  if s["parent"] == span["id"] and s["job"] == span["job"])
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in kids:
        lo, hi = max(lo, span["start"]), min(hi, span["end"])
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return duration(span) - covered


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called `name`."""
    return sum(duration(s) for s in spans if s["name"] == name)
