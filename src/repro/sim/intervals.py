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
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from repro.units import NS_PER_SEC, to_sim_ns, to_sim_ns_array

__all__ = ["IntervalBatch", "IntervalSet"]


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
    """Rows of :class:`IntervalSet` answering one overlap query each.

    One flat plane holds every row's endpoints, row ``k`` shifted by ``k``
    times a span wider than the hull of all rows, and one running sum of
    lengths.  A window end clamped to the hull and shifted alike falls in
    its own row, so a ``searchsorted`` per window end finds the two exact
    prefix sums whose difference is :meth:`IntervalSet.overlap` of the row.
    """

    __slots__ = ("_lo", "_hi", "_shift", "_starts", "_ends", "_cum")

    def __init__(self, sets: Iterable["IntervalSet"]):
        sets = tuple(sets)
        self._lo = min((int(s.starts[0]) for s in sets if len(s)), default=0)
        self._hi = max((int(s.ends[-1]) for s in sets if len(s)), default=0)
        span = self._hi - self._lo + 1
        self._shift = np.arange(len(sets), dtype=np.int64) * span - self._lo
        n = sum(len(s) for s in sets)
        self._starts = np.empty(n, dtype=np.int64)
        # _ends[i + 1] ends flat interval i; _ends[0] = 0 precedes any query
        self._ends = np.zeros(n + 1, dtype=np.int64)
        self._cum = np.zeros(n + 1, dtype=np.int64)
        pos = 0
        for s, shift in zip(sets, self._shift.tolist()):
            end = pos + len(s)
            np.add(s.starts, shift, out=self._starts[pos:end])
            np.add(s.ends, shift, out=self._ends[pos + 1 : end + 1])
            pos = end
        np.subtract(self._ends[1:], self._starts, out=self._cum[1:])
        np.cumsum(self._cum[1:], out=self._cum[1:])

    def __len__(self) -> int:
        return int(self._shift.size)

    def _before(self, t: np.ndarray) -> np.ndarray:
        """Measure of row ``k`` before ``t[k]`` seconds, in ns, per row."""
        x = np.clip(to_sim_ns_array(t), self._lo, self._hi)
        x += self._shift
        i = np.searchsorted(self._starts, x, side="right")
        return self._cum[i] - np.maximum(self._ends[i] - x, 0)

    def overlap_fused(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-row ``sets[k].overlap(a[k], b[k])``, bit-identical."""
        return np.maximum(self._before(b) - self._before(a), 0) / NS_PER_SEC


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
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    head = np.empty(starts.size, dtype=bool)
    head[0] = True
    head[1:] = starts[1:] > reach[:-1]
    head_idx = np.flatnonzero(head)
    last_idx = np.append(head_idx[1:] - 1, starts.size - 1)
    return starts[head_idx].copy(), reach[last_idx].copy()
