"""Unit helpers.

The simulator works internally in **seconds** (time), **hertz** (frequency)
and **bytes** (data).  The paper reports microseconds (EPCC) and milliseconds
(BabelStream); these helpers keep conversions explicit and greppable instead
of scattering bare ``1e-6`` factors around the code base.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

#: One microsecond expressed in seconds.
USEC = 1e-6
#: One millisecond expressed in seconds.
MSEC = 1e-3
#: One nanosecond expressed in seconds.
NSEC = 1e-9
#: Nanoseconds per second: the integer simulated-time base shared by trace
#: timestamps and noise intervals.
NS_PER_SEC = 1e9


def to_sim_ns(seconds: float) -> int:
    """Simulated *seconds* -> integer simulated nanoseconds.

    Multiplies by 1e9 and rounds half to even.  This is the one
    quantization of the simulated-time base: the tracer stamps spans with
    it and :class:`~repro.sim.intervals.IntervalSet` stores noise
    endpoints with it, so the two agree exactly.
    """
    return int(round(seconds * NS_PER_SEC))


def to_sim_ns_array(seconds) -> np.ndarray:
    """Elementwise :func:`to_sim_ns` as an int64 array, rounding identically."""
    ns = np.array(seconds, dtype=np.float64)  # a fresh copy, scaled in place
    ns *= NS_PER_SEC
    return np.rint(ns, out=ns).astype(np.int64)


def us(value: float) -> float:
    """Convert *value* microseconds to seconds."""
    return value * USEC


def ms(value: float) -> float:
    """Convert *value* milliseconds to seconds."""
    return value * MSEC


def ns(value: float) -> float:
    """Convert *value* nanoseconds to seconds."""
    return value * NSEC


def to_us(seconds: float) -> float:
    """Convert *seconds* to microseconds."""
    return seconds / USEC


def to_ms(seconds: float) -> float:
    """Convert *seconds* to milliseconds."""
    return seconds / MSEC


# ---------------------------------------------------------------------------
# Frequency
# ---------------------------------------------------------------------------

#: One gigahertz in hertz.
GHZ = 1e9


def ghz(value: float) -> float:
    """Convert *value* GHz to Hz."""
    return value * GHZ


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

#: One gigabyte (decimal, as used in bandwidth figures).
GB = 1e9


def gb_per_s(value: float) -> float:
    """Convert *value* GB/s (decimal) to bytes/s."""
    return value * GB

