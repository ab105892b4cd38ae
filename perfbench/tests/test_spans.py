"""Tests of the span recorder, self time and the run statistics.

    python3 -m pytest perfbench/tests
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Recorder, Span, quartiles, self_times, spread, summarize  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(sid, name, parent, start, end, **attrs):
    return Span(sid, name, parent, "job", start, end, attrs)


def test_self_time_nested():
    # a [0, 10] > b [2, 8] > c [3, 5]
    spans = [span(0, "a", -1, 0, 10), span(1, "b", 0, 2, 8), span(2, "c", 1, 3, 5)]
    assert self_times(spans) == {0: 4, 1: 4, 2: 2}


def test_self_time_siblings_and_overlap():
    # siblings [1, 3] and [5, 6] leave 7 of 10; an overlapping pair [1, 4]
    # and [2, 6] covers 5, counted once
    spans = [span(0, "a", -1, 0, 10), span(1, "b", 0, 1, 3), span(2, "b", 0, 5, 6)]
    assert self_times(spans)[0] == 7
    spans = [span(0, "a", -1, 0, 10), span(1, "b", 0, 1, 4), span(2, "c", 0, 2, 6)]
    assert self_times(spans)[0] == 5


def test_self_time_clips_child_to_parent():
    spans = [span(0, "a", -1, 0, 4), span(1, "b", 0, 3, 9)]
    assert self_times(spans)[0] == 3


def test_summarize_sums_times_and_attributes():
    spans = [
        span(0, "f", -1, 0, 10, points=3),
        span(1, "g", 0, 2, 6, points=4),
        span(2, "h", 1, 3, 4, hit=True),
        span(3, "h", 0, 7, 8, hit=False),
    ]
    rows = summarize(spans)
    assert rows["f"] == {"calls": 1, "s": 10, "self_s": 5, "points": 3}
    assert rows["g"] == {"calls": 1, "s": 4, "self_s": 3, "points": 4}
    assert rows["h"] == {"calls": 2, "s": 2, "self_s": 2, "hit": 1}


def test_recorder_wraps_nested_calls():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def inner(x):
        clock.now += 2
        return x * 2

    traced_inner = rec.wrap("inner", inner, probe=lambda a, k, r: {"points": a[0]})

    def outer(x):
        clock.now += 1
        y = traced_inner(x) + traced_inner(x)
        clock.now += 1
        return y

    rec.job = "job"
    assert rec.wrap("outer", outer)(3) == 12
    out, a, b = rec.spans
    assert (out.parent, a.parent, b.parent) == (-1, out.sid, out.sid)
    assert all(s.job == "job" for s in rec.spans)
    rows = summarize(rec.for_job("job"))
    assert rows["outer"] == {"calls": 1, "s": 6, "self_s": 2}
    assert rows["inner"] == {"calls": 2, "s": 4, "self_s": 4, "points": 6}


def test_recorder_closes_span_on_exception():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def boom():
        clock.now += 1
        raise ValueError

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    rec.wrap("after", lambda: None)()
    first, after = rec.spans
    assert first.duration == 1
    assert after.parent == -1


@pytest.mark.parametrize(
    "values",
    [[1.0, 2.0], [3.0, 1.0, 2.0], [5, 1, 4, 2, 3], [0.9, 1.1, 1.0, 1.05, 0.95, 1.2, 1.0, 0.97, 1.02, 1.3]],
)
def test_quartiles_match_statistics(values):
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_value_and_constant_runs():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([4.0] * 10) == 0
    # ten runs 1..10: quartiles 2.75 and 8.25 around the median 5.5
    assert quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)
    assert spread(list(range(1, 11))) == pytest.approx(1.0)
