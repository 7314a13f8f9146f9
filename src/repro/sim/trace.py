"""Right-continuous piecewise-constant signals.

Used throughout the simulator for per-core frequency traces: a signal holds
breakpoints ``t_0 < t_1 < ... < t_{n-1}`` and values ``v_0 ... v_{n-1}``
where ``v_i`` applies on ``[t_i, t_{i+1})`` and ``v_{n-1}`` extends to
infinity.  All queries are NumPy-vectorized; integration is exact.

The inverse-integral query :meth:`PiecewiseConstant.invert_integral` answers
the central question of the execution model: *starting at time t, how long
until a core running at frequency f(t) retires W cycles?*
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf
from typing import Iterable, Sequence

import numpy as np

from repro.errors import TraceError


class PiecewiseConstant:
    """An immutable right-continuous step function.

    Parameters
    ----------
    times:
        Strictly increasing breakpoints (seconds).  The signal is undefined
        before ``times[0]``.
    values:
        Signal value on each ``[times[i], times[i+1])`` segment;
        ``len(values) == len(times)``.
    """

    __slots__ = ("times", "values", "_lists")

    def __init__(
        self, times: Sequence[float], values: Sequence[float], *, _valid: bool = False
    ):
        if _valid:  # float64 arrays the caller built valid, kept as is
            t, v = times, values
        else:
            t = np.asarray(times, dtype=np.float64)
            v = np.asarray(values, dtype=np.float64)
            if t.ndim != 1 or v.ndim != 1:
                raise TraceError("times and values must be one-dimensional")
            if t.size == 0:
                raise TraceError("a trace needs at least one breakpoint")
            if t.size != v.size:
                raise TraceError(f"length mismatch: {t.size} times vs {v.size} values")
            if t.size > 1 and not np.all(np.diff(t) > 0):
                raise TraceError("breakpoints must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_lists", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PiecewiseConstant is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float, start: float = 0.0) -> "PiecewiseConstant":
        """A signal with a single value from *start* onwards."""
        return cls([start], [value])

    @classmethod
    def from_segments(
        cls, segments: Iterable[tuple[float, float]], start: float = 0.0
    ) -> "PiecewiseConstant":
        """Build from ``(duration, value)`` pairs laid end to end from *start*."""
        times = [start]
        values = []
        t = start
        for duration, value in segments:
            if duration <= 0:
                raise TraceError(f"segment duration must be positive, got {duration}")
            values.append(value)
            t += duration
            times.append(t)
        if not values:
            raise TraceError("from_segments needs at least one segment")
        # last breakpoint closes nothing; drop it and let the final value extend
        return cls(times[:-1], values)

    # -- queries ------------------------------------------------------------

    @property
    def start(self) -> float:
        return float(self.times[0])

    def __len__(self) -> int:
        return int(self.times.size)

    def _as_lists(self) -> tuple[list[float], list[float]]:
        """Times/values as plain Python lists, built once on first use.

        Scalar queries dominate the simulation hot path (one per task body
        / region segment); ``bisect`` over a float list plus list indexing
        avoids a NumPy round-trip per query while returning the exact same
        float64 values.
        """
        cached = self._lists
        if cached is None:
            cached = (self.times.tolist(), self.values.tolist())
            object.__setattr__(self, "_lists", cached)
        return cached

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, t, side="right") - 1
        if np.any(idx < 0):
            raise TraceError(
                f"query before trace start {self.start}: min t = {np.min(t)}"
            )
        return idx

    def _seg_idx(self, t: float) -> int:
        """Scalar segment lookup (same semantics as :meth:`_segment_index`)."""
        times, _ = self._as_lists()
        idx = bisect_right(times, t) - 1
        if idx < 0:
            raise TraceError(f"query before trace start {self.start}: min t = {t}")
        return idx

    def value_at(self, t):
        """Signal value at time(s) *t* (scalar or array)."""
        if type(t) is float or type(t) is int:
            return self._as_lists()[1][self._seg_idx(t)]
        t_arr = np.asarray(t, dtype=np.float64)
        idx = self._segment_index(np.atleast_1d(t_arr))
        out = self.values[idx]
        return float(out[0]) if t_arr.ndim == 0 else out

    def integrate(self, a: float, b: float) -> float:
        """Exact integral of the signal over ``[a, b]`` (``a <= b``)."""
        if b < a:
            raise TraceError(f"integrate: b={b} < a={a}")
        if b == a:
            return 0.0
        ia = self._seg_idx(a)
        ib = self._seg_idx(b)
        times, values = self._as_lists()
        if ia == ib:
            return float(values[ia] * (b - a))
        total = values[ia] * (times[ia + 1] - a)
        if ib > ia + 1:
            seg_lens = np.diff(self.times[ia + 1 : ib + 1])
            total += float(np.dot(self.values[ia + 1 : ib], seg_lens))
        total += values[ib] * (b - times[ib])
        return float(total)

    def invert_integral(self, a: float, target: float) -> float:
        """Smallest ``t >= a`` with ``integrate(a, t) == target``.

        Requires a strictly positive signal from *a* onwards (a frequency).
        """
        if target < 0:
            raise TraceError(f"invert_integral: negative target {target}")
        if target == 0:
            return a
        # the scalar query of every task body: _seg_idx inlined
        times, values = self._lists or self._as_lists()
        idx = bisect_right(times, a) - 1
        if idx < 0:
            raise TraceError(f"query before trace start {self.start}: min t = {a}")
        t = a
        remaining = float(target)
        n = len(times)
        while True:
            v = values[idx]
            if v <= 0:
                raise TraceError(
                    f"invert_integral requires positive signal, got {v} at segment {idx}"
                )
            seg_end = times[idx + 1] if idx + 1 < n else inf
            capacity = v * (seg_end - t)
            if remaining <= capacity:
                return t + remaining / v
            remaining -= capacity
            t = seg_end
            idx += 1

    def restricted(self, a: float, b: float) -> "PiecewiseConstant":
        """The trace clipped to start at *a*, keeping breakpoints < *b*."""
        if b <= a:
            raise TraceError(f"restricted: empty window [{a}, {b}]")
        ia = int(self._segment_index(np.asarray([a]))[0])
        mask = (self.times > a) & (self.times < b)
        times = np.concatenate([[a], self.times[mask]])
        values = np.concatenate([[self.values[ia]], self.values[mask]])
        return PiecewiseConstant(times, values)

    def min_value(self, a: float, b: float) -> float:
        """Minimum signal value attained on ``[a, b)``."""
        r = self.restricted(a, b)
        return float(np.min(r.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseConstant(n={len(self)}, start={self.start:.6f}, "
            f"values=[{self.values.min():.3g}..{self.values.max():.3g}])"
        )
