"""Unit helpers.

The simulator works internally in **seconds** (time), **hertz** (frequency)
and **bytes** (data).  The paper reports microseconds (EPCC) and milliseconds
(BabelStream); these helpers keep conversions explicit and greppable instead
of scattering bare ``1e-6`` factors around the code base.
"""

from __future__ import annotations

import math

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
    endpoints with it, so the two agree exactly.  (:func:`to_ns` divides
    by :data:`NSEC`, which can differ in the last bit.)
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


def to_ns(seconds: float) -> float:
    """Convert *seconds* to nanoseconds."""
    return seconds / NSEC


# ---------------------------------------------------------------------------
# Frequency
# ---------------------------------------------------------------------------

#: One gigahertz in hertz.
GHZ = 1e9
#: One megahertz in hertz.
MHZ = 1e6
#: One kilohertz in hertz (sysfs cpufreq reports kHz).
KHZ = 1e3


def ghz(value: float) -> float:
    """Convert *value* GHz to Hz."""
    return value * GHZ


def mhz(value: float) -> float:
    """Convert *value* MHz to Hz."""
    return value * MHZ


def to_ghz(hz: float) -> float:
    """Convert *hz* to GHz."""
    return hz / GHZ


def to_khz(hz: float) -> float:
    """Convert *hz* to kHz (the unit used by the Linux cpufreq sysfs)."""
    return hz / KHZ


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

#: One kibibyte.
KIB = 1024
#: One mebibyte.
MIB = 1024 ** 2
#: One gibibyte.
GIB = 1024 ** 3
#: One gigabyte (decimal, as used in bandwidth figures).
GB = 1e9


def gib(value: float) -> float:
    """Convert *value* GiB to bytes."""
    return value * GIB


def gb_per_s(value: float) -> float:
    """Convert *value* GB/s (decimal) to bytes/s."""
    return value * GB


def to_gb_per_s(bytes_per_s: float) -> float:
    """Convert *bytes_per_s* to decimal GB/s."""
    return bytes_per_s / GB


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def fmt_time(seconds: float) -> str:
    """Render a duration with an auto-selected engineering unit.

    >>> fmt_time(1.5e-6)
    '1.500 us'
    >>> fmt_time(0.25)
    '250.000 ms'
    """
    if not math.isfinite(seconds):
        return str(seconds)
    a = abs(seconds)
    if a >= 1.0:
        return f"{seconds:.3f} s"
    if a >= MSEC:
        return f"{to_ms(seconds):.3f} ms"
    if a >= USEC:
        return f"{to_us(seconds):.3f} us"
    return f"{to_ns(seconds):.1f} ns"


def fmt_freq(hz: float) -> str:
    """Render a frequency in GHz or MHz as appropriate.

    >>> fmt_freq(2.25e9)
    '2.250 GHz'
    """
    if abs(hz) >= GHZ:
        return f"{hz / GHZ:.3f} GHz"
    return f"{hz / MHZ:.1f} MHz"


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary unit.

    >>> fmt_bytes(2 ** 25 * 8)
    '256.0 MiB'
    """
    a = abs(n)
    if a >= GIB:
        return f"{n / GIB:.1f} GiB"
    if a >= MIB:
        return f"{n / MIB:.1f} MiB"
    if a >= KIB:
        return f"{n / KIB:.1f} KiB"
    return f"{n:.0f} B"
