"""Tests for IntervalSet and IntervalBatch."""

from bisect import bisect_right
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.intervals import IntervalBatch, IntervalSet
from repro.units import NS_PER_SEC, to_sim_ns, to_sim_ns_array


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

    def test_overlap(self):
        assert self.s.overlap(0.0, 10.0) == pytest.approx(3.0)
        assert self.s.overlap(1.5, 4.5) == pytest.approx(1.0)
        assert self.s.overlap(2.0, 4.0) == 0.0
        assert self.s.overlap(5.0, 5.0) == 0.0

    def test_union(self):
        other = IntervalSet.from_pairs([(1.5, 4.5)])
        assert list(self.s.union(other)) == [(1.0, 6.0)]

    def test_equality_and_hash(self):
        again = IntervalSet.from_pairs([(1.0, 2.0), (4.0, 6.0)])
        assert self.s == again
        assert hash(self.s) == hash(again)


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


def overlap_oracle(s, a, b):
    """Measure before ``ns(b)`` minus measure before ``ns(a)``: bisect over
    fresh lists of starts and ends plus a running sum of lengths."""
    lo, hi = to_sim_ns(a), to_sim_ns(b)
    if hi <= lo or s.is_empty():
        return 0.0
    starts, ends = s.starts.tolist(), s.ends.tolist()
    cum = [0]
    for start, end in zip(starts, ends):
        cum.append(cum[-1] + end - start)

    def before(x):
        i = bisect_right(starts, x)
        return cum[i] - max(0, ends[i - 1] - x) if i else 0

    return (before(hi) - before(lo)) / NS_PER_SEC


def outcome(query, *args):
    """A query's float, exactly (``repr`` tells -0.0 from 0.0), or the type
    of the exception it raised."""
    try:
        return repr(query(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@st.composite
def overlap_queries(draw):
    """An interval set (possibly empty) and a window: arbitrary, reversed
    or empty, inside one interval, or on or 1 ns off an interval's
    endpoints."""
    s = IntervalSet.from_pairs(draw(interval_lists))
    edge = st.floats(min_value=-5.0, max_value=60.0)
    if len(s) and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(s) - 1))
        start, end = list(s)[k]
        ends = [x + d for x in (start, end) for d in (-1e-9, 0.0, 1e-9)]
        mid = st.floats(min_value=start, max_value=end)
        edge = st.one_of(st.sampled_from(ends), mid, edge)
    edge = st.one_of(edge, st.sampled_from([nan, inf, -inf]))
    return s, draw(edge), draw(edge)


@given(overlap_queries())
@settings(max_examples=300, deadline=None)
def test_overlap_matches_prefix_sum_reference(query):
    s, a, b = query
    want = outcome(overlap_oracle, s, a, b)
    assert outcome(s.overlap, a, b) == want
    assert outcome(s.overlap, a, b) == want  # lists cached


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
    """``IntervalBatch``: one sort-and-merge pass over every row answers
    as one :class:`IntervalSet` per row."""

    @staticmethod
    def _rows(events, n_rows=6):
        rows = np.asarray([r for r, _, _ in events], dtype=np.int64)
        starts = np.asarray([s for _, s, _ in events], dtype=np.int64)
        ends = starts + np.asarray([d for _, _, d in events], dtype=np.int64)
        per_row = []
        for k in range(n_rows):
            sel = rows == k
            per_row.append(IntervalSet(starts[sel] / 1e9, ends[sel] / 1e9))
        return IntervalBatch(n_rows, rows, starts, ends), per_row

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
        # the seconds form of the int64-ns measure
        measure = plane.measure_ns(to_sim_ns_array((a, b)), rows)
        assert measure.dtype == np.int64
        assert np.array_equal(measure / 1e9, fused)

    @given(events=row_events)
    @settings(max_examples=100, deadline=None)
    def test_intervals_round_trip(self, events):
        plane, per_row = self._rows(events)
        rows, starts, ends = plane.intervals_ns()
        again = IntervalBatch(len(plane), rows, starts, ends)
        for k, s in enumerate(per_row):
            sel = rows == k
            assert np.array_equal(starts[sel], s.starts)
            assert np.array_equal(ends[sel], s.ends)
            assert again.row(k) == s

    def test_empty_plane_answers_zero(self):
        plane = IntervalBatch(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert plane.overlap_fused(np.zeros(2), np.ones(2), np.asarray([0, 2])).tolist() == [0.0, 0.0]
        assert plane.row(1).is_empty()

    def test_sort_key_overflow_is_refused(self):
        big = np.int64(2**62)
        with pytest.raises(OverflowError, match="int64"):
            IntervalBatch(
                4, np.asarray([0, 3]), np.asarray([0, 1]), np.asarray([1, big])
            )
