"""EPCC measurement machinery shared by syncbench and schedbench.

The EPCC suite's procedure, reproduced here:

1. calibrate ``delay(delaylength)`` so one call lasts ``delaytime`` — in
   the simulator the calibration frequency is the platform's single-core
   boost, so the *nominal* delay stretches when a loaded machine runs at a
   lower all-core frequency, exactly as on real hardware;
2. choose ``innerreps`` by doubling from 1 until ``innerreps x
   estimated-iteration-time`` reaches the target test time;
3. run ``outer_repetitions`` timed tests and report mean / sd / min / max
   plus the count of 3-sigma outliers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class EpccStats:
    """The statistics an EPCC benchmark prints for one measurement."""

    mean: float
    sd: float
    minimum: float
    maximum: float
    n: int
    n_outliers: int

    @property
    def cv(self) -> float:
        """Coefficient of variation (the paper's Figure 5 metric)."""
        return self.sd / self.mean if self.mean else float("inf")

    @property
    def norm_min(self) -> float:
        """Minimum normalized to the mean (the paper's Figure 3 metric)."""
        return self.minimum / self.mean if self.mean else float("nan")

    @property
    def norm_max(self) -> float:
        """Maximum normalized to the mean."""
        return self.maximum / self.mean if self.mean else float("nan")


def require_finite(params: object) -> None:
    """Reject a benchmark-parameter dataclass holding a NaN or infinite float.

    Range checks such as ``x < 0`` are false for NaN and let infinities
    through, so every ``__post_init__`` runs this first; the violation
    surfaces as :class:`~repro.errors.BenchmarkError` (``error: ...`` at
    the CLI) instead of a failure deep inside the simulation.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise BenchmarkError(f"{f.name} must be finite, got {value!r}")


#: Field annotations (as ``from __future__ import annotations`` keeps
#: them) that hold an integer count.
_INTEGER_ANNOTATIONS = ("int", "int | None")


def require_integers(params: object) -> None:
    """Reject a benchmark-parameter dataclass holding a non-integer count.

    A field annotated ``int`` (or ``int | None``, which may be ``None``)
    must hold a :class:`numbers.Integral` that is not a ``bool``: a float
    count such as ``1e3`` would fail deep inside NumPy, or be accepted
    under a second cache key for the same config.  NumPy integers pass.
    """
    for f in fields(params):
        if f.type not in _INTEGER_ANNOTATIONS:
            continue
        value = getattr(params, f.name)
        if value is None and f.type == "int | None":
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise BenchmarkError(f"{f.name} must be an integer, got {value!r}")


def epcc_stats(times: np.ndarray, outlier_sigmas: float = 3.0) -> EpccStats:
    """EPCC-style statistics over repetition times.

    Outliers are repetitions more than ``outlier_sigmas`` standard
    deviations from the mean (counted, not removed — matching the suite's
    output).
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size == 0:
        raise BenchmarkError("no repetitions to summarize")
    if np.any(t < 0):
        raise BenchmarkError("negative repetition time")
    mean = float(t.mean())
    sd = float(t.std(ddof=1)) if t.size > 1 else 0.0
    n_out = int(np.count_nonzero(np.abs(t - mean) > outlier_sigmas * sd)) if sd else 0
    return EpccStats(
        mean=mean,
        sd=sd,
        minimum=float(t.min()),
        maximum=float(t.max()),
        n=int(t.size),
        n_outliers=n_out,
    )


def target_innerreps(test_time: float, iter_time_estimate: float,
                     max_reps: int = 1 << 22) -> int:
    """EPCC's inner-repetition doubling: smallest power of two ``p`` with
    ``p * iter_time_estimate >= test_time``.

    >>> target_innerreps(1e-3, 1e-5)
    128
    """
    if test_time <= 0:
        raise BenchmarkError(f"test time must be positive, got {test_time}")
    if iter_time_estimate <= 0:
        raise BenchmarkError(
            f"iteration estimate must be positive, got {iter_time_estimate}"
        )
    p = 1
    while p * iter_time_estimate < test_time and p < max_reps:
        p <<= 1
    return p
