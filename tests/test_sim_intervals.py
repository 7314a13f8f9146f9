"""Tests for IntervalSet, including the preemption finish_time query."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.intervals import IntervalBatch, IntervalSet


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


#: Int64-ns intervals on up to 6 rows, in any order: overlapping, touching,
#: empty and reversed intervals included.
row_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-50, max_value=2_000),
        st.integers(min_value=-20, max_value=300),
    ),
    max_size=40,
)


class TestPlaneBuilder:
    """``IntervalBatch.from_rows``: one sort-and-merge pass over every row
    answers as one :class:`IntervalSet` per row."""

    @staticmethod
    def _rows(events, n_rows=6):
        rows = np.asarray([r for r, _, _ in events], dtype=np.int64)
        starts = np.asarray([s for _, s, _ in events], dtype=np.int64)
        ends = starts + np.asarray([d for _, _, d in events], dtype=np.int64)
        per_row = []
        for k in range(n_rows):
            sel = rows == k
            per_row.append(IntervalSet(starts[sel] / 1e9, ends[sel] / 1e9))
        return IntervalBatch.from_rows(n_rows, rows, starts, ends), per_row

    @given(events=row_events, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_interval_sets(self, events, data):
        plane, per_row = self._rows(events)
        assert len(plane) == len(per_row)
        for k, s in enumerate(per_row):
            assert plane.row(k) == s
        rows = np.asarray(data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=12)))
        a = np.asarray(data.draw(st.lists(
            st.floats(min_value=-1e-7, max_value=2.5e-6), min_size=rows.size, max_size=rows.size)))
        b = np.asarray(data.draw(st.lists(
            st.floats(min_value=-1e-7, max_value=2.5e-6), min_size=rows.size, max_size=rows.size)))
        fused = plane.overlap_fused(a, b, rows)
        for q, k in enumerate(rows.tolist()):
            assert fused[q] == per_row[k].overlap(float(a[q]), float(b[q]))

    @given(events=row_events)
    @settings(max_examples=100, deadline=None)
    def test_intervals_round_trip(self, events):
        plane, per_row = self._rows(events)
        rows, starts, ends = plane.intervals_ns()
        again = IntervalBatch.from_rows(len(plane), rows, starts, ends)
        for k, s in enumerate(per_row):
            sel = rows == k
            assert np.array_equal(starts[sel], s.starts)
            assert np.array_equal(ends[sel], s.ends)
            assert again.row(k) == s

    @given(first=row_events, second=row_events)
    @settings(max_examples=100, deadline=None)
    def test_merged_equals_one_build(self, first, second):
        """Growing a plane under a fixed hull equals building it at once."""
        hull = (-50, 2_300)  # contains every generated interval
        plane_a, _ = self._rows(first)
        _, per_row = self._rows(first + second)
        grown = IntervalBatch.from_rows(
            len(plane_a), *plane_a.intervals_ns(), hull=hull
        ).merged(*self._rows(second)[0].intervals_ns())
        assert grown.hull == hull
        for k, s in enumerate(per_row):
            assert grown.row(k) == s

    def test_hull_must_contain_the_intervals(self):
        rows, starts, ends = np.asarray([0]), np.asarray([5]), np.asarray([9])
        plane = IntervalBatch.from_rows(1, rows, starts, ends, hull=(0, 10))
        with pytest.raises(ValueError, match="hull"):
            plane.merged(rows, np.asarray([8]), np.asarray([11]))
        with pytest.raises(ValueError, match="hull"):
            IntervalBatch.from_rows(1, rows, starts, ends, hull=(6, 10))

    def test_sets_form_is_the_same_plane(self):
        sets = [IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)]), IntervalSet.empty(),
                IntervalSet.from_pairs([(0.5, 2.5)])]
        plane = IntervalBatch(sets)
        for k, s in enumerate(sets):
            assert plane.row(k) == s
        assert plane.overlap_fused(np.zeros(3), np.full(3, 2.25)).tolist() == [
            s.overlap(0.0, 2.25) for s in sets
        ]

    def test_empty_plane_answers_zero(self):
        plane = IntervalBatch.from_rows(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert plane.overlap_fused(np.zeros(2), np.ones(2), np.asarray([0, 2])).tolist() == [0.0, 0.0]
        assert plane.row(1).is_empty()

    def test_sort_key_overflow_is_refused(self):
        big = np.int64(2**62)
        with pytest.raises(OverflowError, match="int64"):
            IntervalBatch.from_rows(
                4, np.asarray([0, 3]), np.asarray([0, 1]), np.asarray([1, big])
            )
