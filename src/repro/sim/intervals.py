"""Sorted disjoint interval algebra in integer simulated time.

Noise accounting reduces to questions about unions of time intervals:
*how much of window [a, b) is stolen by noise on this hardware thread?* and
*given that noise preempts me entirely, when do I finish W seconds of work
started at t0?*  :class:`IntervalSet` answers both and is the workhorse of
:mod:`repro.omp.region`.

Intervals are half-open ``[start, end)`` with int64 endpoints in the
tracer's simulated-nanosecond time base (:func:`repro.units.to_sim_ns`),
quantized once per set and once per query window; measures come back in
seconds.  Overlaps difference exact prefix sums of interval lengths: O(log
L) per query, and independent of how queries are grouped or batched.

:class:`IntervalBatch` holds many rows in one flat plane under a
row-major int64 sort key.  One builder (:meth:`IntervalBatch.from_rows`)
sorts and merges every row in a single pass, :meth:`IntervalBatch.merged`
adds intervals to a plane with a fixed hull, and one ``searchsorted``
answers a query per row.  The noise model keeps one row per CPU.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from repro.units import NS_PER_SEC, to_sim_ns, to_sim_ns_array

__all__ = ["IntervalBatch", "IntervalSet"]

_EMPTY = np.empty(0, dtype=np.int64)
_INT64_MAX = int(np.iinfo(np.int64).max)


class IntervalSet:
    """An immutable union of disjoint, sorted half-open intervals, built
    from seconds (``IntervalSet(starts, ends)``, :meth:`from_pairs`,
    :meth:`from_events`) and held as int64 nanosecond ``starts``/``ends``."""

    __slots__ = ("starts", "ends", "_lists")

    def __init__(self, starts: Sequence[float], ends: Sequence[float], *, _ns: bool = False):
        if not _ns:  # _ns=True: already-normalized int64 ns arrays, kept as is
            starts, ends = to_sim_ns_array(starts), to_sim_ns_array(ends)
            if starts.shape != ends.shape or starts.ndim != 1:
                raise ValueError("starts/ends must be 1-D arrays of equal length")
            starts, ends = _normalize(starts, ends)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "_lists", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls((), ())

    @classmethod
    def from_events(cls, starts: Sequence[float], durations: Sequence[float]) -> "IntervalSet":
        """Build from event start times and durations (overlaps merged):
        an event covers ``[ns(start), ns(start + duration))``."""
        s = np.asarray(starts, dtype=np.float64)
        d = np.asarray(durations, dtype=np.float64)
        if np.any(d < 0):
            raise ValueError("negative duration")
        return cls(s, s + d)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalSet":
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        s, e = zip(*pairs)
        return cls(s, e)

    # -- basic properties ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.starts.size)

    def __iter__(self):
        """``(start, end)`` pairs in seconds."""
        return zip((self.starts / NS_PER_SEC).tolist(), (self.ends / NS_PER_SEC).tolist())

    @property
    def total(self) -> float:
        """Total measure (summed length) of the set, in seconds."""
        return int(np.sum(self.ends - self.starts)) / NS_PER_SEC

    def is_empty(self) -> bool:
        return self.starts.size == 0

    def _as_lists(self) -> tuple[list[int], list[int], list[int]]:
        """Starts, ends and prefix sums of lengths as int lists, built once
        on first use: scalar queries bisect without a NumPy round-trip."""
        cached = self._lists
        if cached is None:
            cum = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(self.ends - self.starts, out=cum[1:])
            cached = (self.starts.tolist(), self.ends.tolist(), cum.tolist())
            object.__setattr__(self, "_lists", cached)
        return cached

    def contains_point(self, t: float) -> bool:
        starts, ends, _ = self._as_lists()
        x = to_sim_ns(t)
        i = bisect_right(starts, x) - 1
        return i >= 0 and x < ends[i]

    # -- measure queries -----------------------------------------------------

    def _before(self, x: int) -> int:
        """Measure of the set before nanosecond *x*."""
        starts, ends, cum = self._as_lists()
        i = bisect_right(starts, x)
        return cum[i] - max(0, ends[i - 1] - x) if i else 0

    def overlap(self, a: float, b: float) -> float:
        """Measure of the intersection with window ``[a, b)``, in seconds."""
        lo, hi = to_sim_ns(a), to_sim_ns(b)
        if hi <= lo or self.is_empty():
            return 0.0
        return (self._before(hi) - self._before(lo)) / NS_PER_SEC

    def clip(self, a: float, b: float) -> "IntervalSet":
        """The intersection with ``[a, b)`` as a new set."""
        lo, hi = to_sim_ns(a), to_sim_ns(b)
        s = np.maximum(self.starts, lo)
        e = np.minimum(self.ends, hi)
        keep = e > s
        return IntervalSet(s[keep], e[keep], _ns=True)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(*_normalize(
            np.concatenate([self.starts, other.starts]),
            np.concatenate([self.ends, other.ends]),
        ), _ns=True)

    def complement_within(self, a: float, b: float) -> "IntervalSet":
        """``[a, b)`` minus this set — the *free* time in the window."""
        clipped = self.clip(a, b)
        gaps_s = np.concatenate([[to_sim_ns(a)], clipped.ends])
        gaps_e = np.concatenate([clipped.starts, [to_sim_ns(b)]])
        keep = gaps_e > gaps_s
        return IntervalSet(gaps_s[keep], gaps_e[keep], _ns=True)

    # -- the preemption query -------------------------------------------------

    def finish_time(self, start: float, work: float) -> float:
        """Completion time of *work* seconds of CPU started at *start*,
        assuming the CPU is unavailable whenever inside this set.

        The thread makes progress only in the gaps; if it starts inside a
        busy interval it waits until the interval ends.  ``work == 0``
        returns *start* even if *start* is inside a busy interval.
        """
        if work < 0:
            raise ValueError(f"negative work: {work}")
        if work == 0.0:
            return start
        t, remaining = float(start), float(work)
        starts, ends, _ = self._as_lists()
        # index of the first interval that could affect t
        i = bisect_right(ends, t * NS_PER_SEC)
        while True:
            if i >= len(starts):
                return t + remaining
            # free gap before interval i
            gap_end = starts[i] / NS_PER_SEC
            if t < gap_end:
                avail = gap_end - t
                if remaining <= avail:
                    return t + remaining
                remaining -= avail
            # skip busy interval i
            t = max(t, ends[i] / NS_PER_SEC)
            i += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet(n={len(self)}, total={self.total:.6g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return np.array_equal(self.starts, other.starts) and np.array_equal(
            self.ends, other.ends
        )

    def __hash__(self) -> int:
        return hash((self.starts.tobytes(), self.ends.tobytes()))


class IntervalBatch:
    """Rows of :class:`IntervalSet` in one flat plane, answering one overlap
    query per window.

    Row ``k``'s endpoints are shifted by ``k * span - lo``, where
    ``[lo, hi]`` is the hull of every row and ``span = hi - lo + 1``, so
    the shifted endpoints are one CPU-major sort key: every row sorts
    before the next, and one merge pass normalizes all rows at once
    without ever joining two of them.  One running sum of lengths follows.
    A window end clamped to the hull and shifted alike falls in its own
    row, so a ``searchsorted`` per window end finds the two exact prefix
    sums whose difference is :meth:`IntervalSet.overlap` of the row.
    """

    __slots__ = ("_n_rows", "_lo", "_hi", "_span", "_starts", "_ends", "_cum")

    def __init__(self, sets: Iterable["IntervalSet"]):
        sets = tuple(sets)
        rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        starts = np.concatenate([s.starts for s in sets] or [_EMPTY])
        ends = np.concatenate([s.ends for s in sets] or [_EMPTY])
        self._fill(len(sets), None, rows, starts, ends)

    @classmethod
    def from_rows(
        cls,
        n_rows: int,
        rows: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        hull: tuple[int, int] | None = None,
    ) -> "IntervalBatch":
        """The plane of int64-ns intervals ``[starts[i], ends[i])`` on row
        ``rows[i]``: unsorted, overlapping and empty intervals are allowed,
        and row ``k`` answers as ``IntervalSet`` of its own intervals.

        *hull* ``(lo, hi)`` fixes the row span instead of the intervals'
        own hull; it must contain every interval, including those a later
        :meth:`merged` adds.
        """
        batch = cls.__new__(cls)
        batch._fill(n_rows, hull, rows, starts, ends)
        return batch

    def merged(self, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> "IntervalBatch":
        """A new plane holding this plane's intervals and the given ones
        (as :meth:`from_rows`), which must lie inside this plane's hull."""
        batch = IntervalBatch.__new__(IntervalBatch)
        batch._fill(self._n_rows, (self._lo, self._hi), rows, starts, ends, self)
        return batch

    def _fill(
        self,
        n_rows: int,
        hull: tuple[int, int] | None,
        rows: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        base: "IntervalBatch | None" = None,
    ) -> None:
        keep = ends > starts
        if not keep.all():
            rows, starts, ends = rows[keep], starts[keep], ends[keep]
        if hull is None:
            hull = (int(starts.min()), int(ends.max())) if starts.size else (0, 0)
        elif starts.size and (int(starts.min()) < hull[0] or int(ends.max()) > hull[1]):
            raise ValueError(f"intervals outside the plane's hull {hull}")
        lo, hi = hull
        span = hi - lo + 1
        # the sort key of the last row's last end must not wrap int64
        if n_rows * span > _INT64_MAX:
            raise OverflowError(
                f"{n_rows} rows x {span} ns exceed the int64 plane key"
            )
        shift = np.asarray(rows, dtype=np.int64) * span
        shift -= lo
        flat_starts, flat_ends = starts + shift, shift
        flat_ends += ends
        if base is not None:  # already normalized, in the same keys
            flat_starts = np.concatenate((base._starts, flat_starts))
            flat_ends = np.concatenate((base._ends[1:], flat_ends))
        flat_starts, flat_ends = _normalize(flat_starts, flat_ends)
        self._n_rows, self._lo, self._hi, self._span = n_rows, lo, hi, span
        self._starts = flat_starts
        # _ends[i + 1] ends flat interval i; _ends[0] = 0 precedes any query
        self._ends = np.empty(flat_starts.size + 1, dtype=np.int64)
        self._ends[0] = 0
        self._ends[1:] = flat_ends
        self._cum = np.empty(flat_starts.size + 1, dtype=np.int64)
        self._cum[0] = 0
        np.subtract(flat_ends, flat_starts, out=self._cum[1:])
        np.cumsum(self._cum[1:], out=self._cum[1:])

    def __len__(self) -> int:
        return self._n_rows

    @property
    def hull(self) -> tuple[int, int]:
        """``(lo, hi)`` in int64 ns: every interval of every row lies inside."""
        return self._lo, self._hi

    def row(self, row: int) -> IntervalSet:
        """Row *row* as an :class:`IntervalSet`."""
        # the row's keys are [row * span, (row + 1) * span)
        i, j = np.searchsorted(self._starts, (row * self._span, (row + 1) * self._span))
        shift = row * self._span - self._lo
        return IntervalSet(
            self._starts[i:j] - shift, self._ends[i + 1 : j + 1] - shift, _ns=True
        )

    def intervals_ns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, starts, ends)`` of every interval, unshifted int64 ns."""
        rows = self._starts // self._span
        shift = rows * self._span - self._lo
        return rows, self._starts - shift, self._ends[1:] - shift

    def overlap_fused(
        self, a: np.ndarray, b: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """``sets[rows[k]].overlap(a[k], b[k])`` per query, bit-identical;
        *rows* defaults to one query per row, in row order."""
        if rows is None:
            rows = np.arange(self._n_rows)
        # both window edges in one pass: x[0] holds a, x[1] holds b
        x = to_sim_ns_array((a, b))
        np.maximum(x, self._lo, out=x)  # clamp to the hull (np.clip is slower)
        np.minimum(x, self._hi, out=x)
        x += np.asarray(rows, dtype=np.int64) * self._span - self._lo
        # measure of each queried row before x, as a global prefix sum in
        # ns; differences within one row are exact
        i = np.searchsorted(self._starts, x, side="right")
        before = self._cum[i] - np.maximum(self._ends[i] - x, 0)
        return np.maximum(before[1] - before[0], 0) / NS_PER_SEC


def _normalize(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by start, drop empties, merge overlapping/touching intervals.

    Fully vectorized: with sorted starts, the running maximum of ends up to
    interval ``i-1`` is exactly the current merge group's reach, so group
    heads are the intervals starting strictly past it, and each group's end
    is the running maximum at the group's last member.  (A full-scale noise
    realization normalizes ~10^6 ticks per CPU; a Python merge loop was the
    dominant cost of building per-CPU interval sets.)
    """
    keep = ends > starts
    if not keep.all():
        starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends, out=ends)
    head = np.empty(starts.size, dtype=bool)
    head[0] = True
    np.greater(starts[1:], reach[:-1], out=head[1:])
    head_idx = np.flatnonzero(head)
    last_idx = np.empty_like(head_idx)
    np.subtract(head_idx[1:], 1, out=last_idx[:-1])
    last_idx[-1] = starts.size - 1
    return starts[head_idx], reach[last_idx]
