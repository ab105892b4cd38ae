"""Span recording around library calls, self time, and run statistics.

A ``Recorder`` wraps functions so that every call records a span: name,
start, end, the span that was open when it started (its parent), the job it
belongs to, and a few attributes taken from the call's arguments or result.
Spans stay in memory until the caller writes them out.

Self time of a span is its duration minus the part of that interval covered
by its child spans; inclusive time is the whole duration.
"""

import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int  # -1 for a root span
    job: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = ""
        self._stack = []

    def wrap(self, name, fn, probe=None):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``probe(args, kwargs, result)`` returns a dict of span attributes;
        it runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                sid=len(self.spans),
                name=name,
                parent=self._stack[-1] if self._stack else -1,
                job=self.job,
                start=0.0,
            )
            self.spans.append(span)
            self._stack.append(span.sid)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced

    def for_job(self, job):
        return [s for s in self.spans if s.job == job]

    def to_rows(self):
        return [
            [s.sid, s.name, s.parent, s.job, s.start, s.end, s.attrs]
            for s in self.spans
        ]


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = s.duration - covered
    return out


def summarize(spans):
    """Per-name calls, inclusive seconds, self seconds and summed numeric
    attributes (a bool attribute sums to the number of spans where it held)."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += selfs[s.sid]
        for k, v in s.attrs.items():
            row[k] = row.get(k, 0) + v
    return out


# -- run statistics -----------------------------------------------------------


def quartiles(values):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (exclusive method)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
