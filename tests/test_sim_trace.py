"""Tests for PiecewiseConstant traces, including property-based checks."""

from bisect import bisect_right
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim import PiecewiseConstant


def make_trace():
    # value 2 on [0,1), 4 on [1,3), 1 on [3,inf)
    return PiecewiseConstant([0.0, 1.0, 3.0], [2.0, 4.0, 1.0])


class TestConstruction:
    def test_single_segment(self):
        t = PiecewiseConstant.constant(3.0)
        assert t.value_at(0.0) == 3.0
        assert t.value_at(1e9) == 3.0

    def test_from_segments(self):
        t = PiecewiseConstant.from_segments([(1.0, 2.0), (2.0, 4.0)], start=5.0)
        assert t.value_at(5.5) == 2.0
        assert t.value_at(6.5) == 4.0
        assert t.value_at(100.0) == 4.0  # last value extends

    def test_rejects_unsorted(self):
        with pytest.raises(TraceError):
            PiecewiseConstant([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(TraceError):
            PiecewiseConstant([1.0, 0.0], [1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(TraceError):
            PiecewiseConstant([0.0, 1.0], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            PiecewiseConstant([], [])

    def test_rejects_nonpositive_segment_duration(self):
        with pytest.raises(TraceError):
            PiecewiseConstant.from_segments([(0.0, 1.0)])

    def test_immutable(self):
        t = make_trace()
        with pytest.raises(AttributeError):
            t.times = None


class TestValueAt:
    def test_right_continuity(self):
        t = make_trace()
        assert t.value_at(1.0) == 4.0  # value at breakpoint is the new one
        assert t.value_at(0.999999) == 2.0

    def test_vectorized(self):
        t = make_trace()
        np.testing.assert_array_equal(
            t.value_at([0.0, 0.5, 1.0, 2.0, 3.0, 10.0]),
            [2.0, 2.0, 4.0, 4.0, 1.0, 1.0],
        )

    def test_before_start_raises(self):
        with pytest.raises(TraceError):
            make_trace().value_at(-0.1)


class TestIntegrate:
    def test_within_one_segment(self):
        assert make_trace().integrate(0.25, 0.75) == pytest.approx(1.0)

    def test_across_segments(self):
        # 2*1 + 4*2 + 1*1 = 11 over [0,4]
        assert make_trace().integrate(0.0, 4.0) == pytest.approx(11.0)

    def test_zero_width(self):
        assert make_trace().integrate(2.0, 2.0) == 0.0

    def test_into_extended_tail(self):
        assert make_trace().integrate(3.0, 13.0) == pytest.approx(10.0)

    def test_backwards_raises(self):
        with pytest.raises(TraceError):
            make_trace().integrate(2.0, 1.0)


class TestInvertIntegral:
    def test_roundtrip_simple(self):
        t = make_trace()
        end = t.invert_integral(0.0, 11.0)
        assert end == pytest.approx(4.0)

    def test_zero_target(self):
        assert make_trace().invert_integral(1.5, 0.0) == 1.5

    def test_within_segment(self):
        # starting at 1.0, need 2.0 units at rate 4 -> 0.5 s
        assert make_trace().invert_integral(1.0, 2.0) == pytest.approx(1.5)

    def test_requires_positive_signal(self):
        t = PiecewiseConstant([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(TraceError):
            t.invert_integral(0.0, 5.0)

    def test_negative_target_rejected(self):
        with pytest.raises(TraceError):
            make_trace().invert_integral(0.0, -1.0)


# -- property-based checks ----------------------------------------------------

durations = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
values = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
segments = st.lists(st.tuples(durations, values), min_size=1, max_size=8)


@given(segments=segments, split=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_integral_additivity(segments, split):
    """integrate(a,c) == integrate(a,b) + integrate(b,c) for a<=b<=c."""
    t = PiecewiseConstant.from_segments(segments)
    total_span = sum(d for d, _ in segments) + 1.0
    a, c = 0.0, total_span
    b = a + split * (c - a)
    assert t.integrate(a, c) == pytest.approx(
        t.integrate(a, b) + t.integrate(b, c), rel=1e-9, abs=1e-12
    )


@given(segments=segments, frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_invert_integral_is_inverse(segments, frac):
    """invert_integral(a, integrate(a,b)) == b for positive signals."""
    t = PiecewiseConstant.from_segments(segments)
    total_span = sum(d for d, _ in segments) + 1.0
    b = frac * total_span
    target = t.integrate(0.0, b)
    recovered = t.invert_integral(0.0, target)
    assert t.integrate(0.0, recovered) == pytest.approx(target, rel=1e-9, abs=1e-12)


@given(segments=segments)
@settings(max_examples=50)
def test_mean_bounded_by_extremes(segments):
    t = PiecewiseConstant.from_segments(segments)
    span = sum(d for d, _ in segments)
    m = t.integrate(0.0, span) / span
    vals = [v for _, v in segments]
    assert min(vals) - 1e-9 <= m <= max(vals) + 1e-9


def invert_integral_oracle(trace, a, target):
    """The segment walk of ``invert_integral`` over fresh lists: bisect for
    the segment holding *a*, then spend *target* segment by segment."""
    if target < 0:
        raise TraceError(f"invert_integral: negative target {target}")
    if target == 0:
        return a
    times, values = trace.times.tolist(), trace.values.tolist()
    idx = bisect_right(times, a) - 1
    if idx < 0:
        raise TraceError(f"query before trace start: {a}")
    t = a
    remaining = float(target)
    while True:
        v = values[idx]
        if v <= 0:
            raise TraceError(f"non-positive signal {v} at segment {idx}")
        seg_end = times[idx + 1] if idx + 1 < len(times) else inf
        capacity = v * (seg_end - t)
        if remaining <= capacity:
            return t + remaining / v
        remaining -= capacity
        t = seg_end
        idx += 1


def outcome(query, *args):
    """A query's float, exactly (``repr`` tells -0.0 from 0.0), or the type
    of the exception it raised."""
    try:
        return repr(query(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@st.composite
def trace_queries(draw):
    """A multi-segment trace (some segments non-positive) and a query whose
    start may precede the trace or sit on a breakpoint, target 0 included."""
    times = [draw(st.floats(min_value=-5.0, max_value=5.0))]
    for d in draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), max_size=7)):
        times.append(times[-1] + d)
    level = st.one_of(
        st.floats(min_value=0.1, max_value=100.0), st.sampled_from([0.0, -1.0])
    )
    levels = draw(st.lists(level, min_size=len(times), max_size=len(times)))
    a = draw(st.one_of(
        st.floats(min_value=times[0] - 2.0, max_value=times[0]),
        st.floats(min_value=times[0], max_value=times[-1] + 2.0),
        st.sampled_from(times),
    ))
    target = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=-10.0, max_value=-1e-9),
    ))
    return PiecewiseConstant(times, levels), a, target


@given(trace_queries())
@settings(max_examples=300, deadline=None)
def test_invert_integral_matches_segment_walk(query):
    trace, a, target = query
    want = outcome(invert_integral_oracle, trace, a, target)
    assert outcome(trace.invert_integral, a, target) == want
    assert outcome(trace.invert_integral, a, target) == want  # lists cached
