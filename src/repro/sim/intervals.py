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
sorts and merges every row in a single pass, and one ``searchsorted``
answers a query per row, in int64 ns (:meth:`IntervalBatch.measure_ns`)
or in seconds (:meth:`IntervalBatch.overlap_fused`).  The noise model
keeps one row per CPU.
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
    from seconds (``IntervalSet(starts, ends)``, :meth:`from_pairs`) and
    held as int64 nanosecond ``starts``/``ends``."""

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

    def overlap(self, a: float, b: float) -> float:
        """Measure of the intersection with window ``[a, b)``, in seconds.

        The measure before ``ns(b)`` minus the measure before ``ns(a)``,
        each one bisect over the cached lists plus a prefix sum.
        """
        # the scalar query of every task body: to_sim_ns inlined
        lo, hi = int(round(a * NS_PER_SEC)), int(round(b * NS_PER_SEC))
        if hi <= lo:
            return 0.0
        starts, ends, cum = self._lists or self._as_lists()
        i = bisect_right(starts, hi)
        if not i:  # an empty set, or a window before its first interval
            return 0.0
        measure = cum[i]
        past = ends[i - 1] - hi
        if past > 0:  # hi falls inside interval i - 1
            measure -= past
        # lo < hi: its insertion point is at most i
        i = bisect_right(starts, lo, 0, i)
        if i:
            measure -= cum[i]
            past = ends[i - 1] - lo
            if past > 0:
                measure += past
        return measure / NS_PER_SEC

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

    # -- the preemption query -------------------------------------------------

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
        self._fill(len(sets), rows, starts, ends)

    @classmethod
    def from_rows(
        cls, n_rows: int, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> "IntervalBatch":
        """The plane of int64-ns intervals ``[starts[i], ends[i])`` on row
        ``rows[i]``: unsorted, overlapping and empty intervals are allowed,
        and row ``k`` answers as ``IntervalSet`` of its own intervals."""
        batch = cls.__new__(cls)
        batch._fill(n_rows, rows, starts, ends)
        return batch

    def _fill(
        self, n_rows: int, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        keep = ends > starts
        if not keep.all():
            rows, starts, ends = rows[keep], starts[keep], ends[keep]
        lo, hi = (int(starts.min()), int(ends.max())) if starts.size else (0, 0)
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

    def measure_ns(self, edges: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Int64 ns of row ``rows[k]`` inside the int64-ns window
        ``[edges[0, k], edges[1, k])``, per query; *rows* defaults to one
        query per row, in row order."""
        if rows is None:
            rows = np.arange(self._n_rows)
        # clamp both window edges to the hull in one pass (np.clip is slower)
        x = np.maximum(edges, self._lo)
        np.minimum(x, self._hi, out=x)
        x += np.asarray(rows, dtype=np.int64) * self._span - self._lo
        # measure of each queried row before x, as a global prefix sum in
        # ns; differences within one row are exact
        i = np.searchsorted(self._starts, x, side="right")
        before = self._cum[i] - np.maximum(self._ends[i] - x, 0)
        return np.maximum(before[1] - before[0], 0)

    def overlap_fused(
        self, a: np.ndarray, b: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """``sets[rows[k]].overlap(a[k], b[k])`` per query, bit-identical:
        :meth:`measure_ns` of the quantized windows, in seconds."""
        return self.measure_ns(to_sim_ns_array((a, b)), rows) / NS_PER_SEC


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
