"""Tests for IntervalSet, including the preemption finish_time query."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import IntervalSet


class TestNormalization:
    def test_empty(self):
        s = IntervalSet.empty()
        assert len(s) == 0
        assert s.total == 0.0
        assert s.is_empty()

    def test_merge_overlapping(self):
        s = IntervalSet.from_pairs([(0.0, 2.0), (1.0, 3.0)])
        assert list(s) == [(0.0, 3.0)]

    def test_merge_touching(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (1.0, 2.0)])
        assert list(s) == [(0.0, 2.0)]

    def test_sorts(self):
        s = IntervalSet.from_pairs([(5.0, 6.0), (1.0, 2.0)])
        assert list(s) == [(1.0, 2.0), (5.0, 6.0)]

    def test_drops_empty_intervals(self):
        s = IntervalSet.from_pairs([(1.0, 1.0), (2.0, 3.0)])
        assert list(s) == [(2.0, 3.0)]

    def test_from_events(self):
        s = IntervalSet.from_events([0.0, 10.0], [1.0, 0.5])
        assert list(s) == [(0.0, 1.0), (10.0, 10.5)]

    def test_from_events_negative_duration(self):
        with pytest.raises(ValueError):
            IntervalSet.from_events([0.0], [-1.0])

    def test_constructor_takes_seconds(self):
        """The public constructor quantizes seconds and normalizes, like
        from_pairs; only the internal ``_ns=True`` path takes raw ns."""
        s = IntervalSet(np.array([5.0, 1.0, 1.5]), np.array([6.0, 2.0, 3.0]))
        assert s == IntervalSet.from_pairs([(1.0, 3.0), (5.0, 6.0)])
        assert s.starts.dtype == np.int64
        assert s.total == 3.0
        assert s.overlap(0.0, 10.0) == 3.0
        with pytest.raises(ValueError):
            IntervalSet([0.0, 1.0], [2.0])
        with pytest.raises(ValueError):
            IntervalSet(np.zeros((1, 2)), np.ones((1, 2)))


class TestQueries:
    def setup_method(self):
        self.s = IntervalSet.from_pairs([(1.0, 2.0), (4.0, 6.0)])

    def test_total(self):
        assert self.s.total == pytest.approx(3.0)

    def test_contains_point(self):
        assert self.s.contains_point(1.5)
        assert not self.s.contains_point(2.0)  # half-open
        assert self.s.contains_point(4.0)
        assert not self.s.contains_point(0.0)
        assert not self.s.contains_point(3.0)

    def test_overlap(self):
        assert self.s.overlap(0.0, 10.0) == pytest.approx(3.0)
        assert self.s.overlap(1.5, 4.5) == pytest.approx(1.0)
        assert self.s.overlap(2.0, 4.0) == 0.0
        assert self.s.overlap(5.0, 5.0) == 0.0

    def test_clip(self):
        assert list(self.s.clip(1.5, 5.0)) == [(1.5, 2.0), (4.0, 5.0)]
        assert self.s.clip(2.0, 4.0).is_empty()

    def test_union(self):
        other = IntervalSet.from_pairs([(1.5, 4.5)])
        assert list(self.s.union(other)) == [(1.0, 6.0)]

    def test_complement_within(self):
        free = self.s.complement_within(0.0, 7.0)
        assert list(free) == [(0.0, 1.0), (2.0, 4.0), (6.0, 7.0)]

    def test_complement_of_empty(self):
        free = IntervalSet.empty().complement_within(2.0, 3.0)
        assert list(free) == [(2.0, 3.0)]

    def test_equality_and_hash(self):
        again = IntervalSet.from_pairs([(1.0, 2.0), (4.0, 6.0)])
        assert self.s == again
        assert hash(self.s) == hash(again)


class TestFinishTime:
    def test_no_interference(self):
        s = IntervalSet.empty()
        assert s.finish_time(1.0, 2.5) == pytest.approx(3.5)

    def test_zero_work(self):
        s = IntervalSet.from_pairs([(0.0, 10.0)])
        assert s.finish_time(5.0, 0.0) == 5.0

    def test_work_pushed_past_busy_interval(self):
        s = IntervalSet.from_pairs([(2.0, 3.0)])
        # 2s of work from t=1: 1s before the busy interval, then wait 1s, 1s after
        assert s.finish_time(1.0, 2.0) == pytest.approx(4.0)

    def test_start_inside_busy_interval(self):
        s = IntervalSet.from_pairs([(0.0, 5.0)])
        assert s.finish_time(2.0, 1.0) == pytest.approx(6.0)

    def test_multiple_interruptions(self):
        s = IntervalSet.from_pairs([(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
        # 3.5s of work from 0: gaps [0,1),[2,3),[4,5),[6,...)
        assert s.finish_time(0.0, 3.5) == pytest.approx(6.5)

    def test_work_fits_before_first_interval(self):
        s = IntervalSet.from_pairs([(10.0, 20.0)])
        assert s.finish_time(0.0, 5.0) == pytest.approx(5.0)

    def test_start_after_all_intervals(self):
        s = IntervalSet.from_pairs([(0.0, 1.0)])
        assert s.finish_time(2.0, 3.0) == pytest.approx(5.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet.empty().finish_time(0.0, -1.0)


# -- property-based -----------------------------------------------------------

#: Endpoints are stored in integer nanoseconds, so against float arithmetic
#: every interval endpoint (a set's or a query window's) may move by up to
#: half a nanosecond: the tolerances below allow the quantum, 1 ns, per
#: endpoint.
QUANTUM = 1e-9

interval_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    max_size=12,
).map(lambda pairs: [(s, s + d) for s, d in pairs])


@given(pairs=interval_lists)
@settings(max_examples=100)
def test_normalized_invariants(pairs):
    s = IntervalSet.from_pairs(pairs)
    items = list(s)
    # disjoint, sorted, non-empty intervals
    for (a1, b1), (a2, b2) in zip(items, items[1:]):
        assert b1 < a2
    for a, b in items:
        assert b > a
    # total measure never exceeds naive sum and is non-negative
    assert 0.0 <= s.total <= sum(b - a for a, b in pairs) + 2 * len(pairs) * QUANTUM


@given(pairs=interval_lists, start=st.floats(min_value=0.0, max_value=60.0),
       work=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=100)
def test_finish_time_consistency(pairs, start, work):
    """finish_time(t0, W) == t_end such that free time in [t0, t_end) == W."""
    s = IntervalSet.from_pairs(pairs)
    t_end = s.finish_time(start, work)
    assert t_end >= start + work - 1e-9  # busy time only adds delay
    free = (t_end - start) - s.overlap(start, t_end)
    assert free == pytest.approx(work, rel=1e-9, abs=2 * QUANTUM)


@given(pairs=interval_lists, a=st.floats(min_value=0.0, max_value=60.0),
       width=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=100)
def test_complement_partitions_window(pairs, a, width):
    b = a + width
    s = IntervalSet.from_pairs(pairs)
    inside = s.overlap(a, b)
    free = s.complement_within(a, b).total
    assert inside + free == pytest.approx(max(0.0, b - a), rel=1e-9, abs=2 * QUANTUM)
