"""Descriptive statistics used throughout the evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample of times."""

    n: int
    mean: float
    sd: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    @property
    def cv(self) -> float:
        """Coefficient of variation, sd/mean (the paper's Figure 5 metric)."""
        return self.sd / self.mean if self.mean else float("inf")

    @property
    def norm_min(self) -> float:
        return self.minimum / self.mean if self.mean else float("nan")

    @property
    def norm_max(self) -> float:
        return self.maximum / self.mean if self.mean else float("nan")

    @property
    def spread_ratio(self) -> float:
        """max/min — the paper quotes "up to 6x" for unpinned BabelStream."""
        return self.maximum / self.minimum if self.minimum else float("inf")


def _validated(sample, min_size: int = 1) -> np.ndarray:
    """*sample* as a 1-D float64 array of at least *min_size* finite
    points; the one sample check of :mod:`repro.stats`."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1 or x.size < min_size:
        raise ReproError(f"need a 1-D sample with >= {min_size} points")
    if not np.all(np.isfinite(x)):
        raise ReproError("sample contains non-finite values")
    return x


def summarize(sample) -> SummaryStats:
    """Full summary of a sample.

    >>> s = summarize([1.0, 2.0, 3.0, 4.0])
    >>> s.mean, s.minimum, s.maximum
    (2.5, 1.0, 4.0)
    """
    x = _validated(sample)
    return SummaryStats(
        n=int(x.size),
        mean=float(x.mean()),
        sd=float(x.std(ddof=1)) if x.size > 1 else 0.0,
        minimum=float(x.min()),
        p25=float(np.percentile(x, 25)),
        median=float(np.median(x)),
        p75=float(np.percentile(x, 75)),
        maximum=float(x.max()),
    )


def coefficient_of_variation(sample) -> float:
    """CV = sd/mean (lower is better, per the paper)."""
    x = _validated(sample)
    mean = float(x.mean())
    if mean == 0:
        raise ReproError("CV undefined for zero-mean sample")
    sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return sd / mean


def normalized_min_max(sample) -> tuple[float, float]:
    """(min/mean, max/mean) — the paper's Figure 3 y-axis.

    Always satisfies ``norm_min <= 1 <= norm_max``.
    """
    x = _validated(sample)
    mean = float(x.mean())
    if mean == 0:
        raise ReproError("normalization undefined for zero-mean sample")
    return float(x.min()) / mean, float(x.max()) / mean
