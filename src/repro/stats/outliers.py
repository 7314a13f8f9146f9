"""Outlier detectors.

Three standard detectors with different robustness/efficiency trade-offs:

* :func:`sigma_outliers` — the EPCC suite's 3-sigma rule (sensitive to the
  outliers themselves inflating sigma; kept for fidelity with the suite);
* :func:`iqr_outliers` — Tukey fences (robust, the boxplot rule);
* :func:`mad_outliers` — modified z-score via the median absolute
  deviation (most robust; the usual choice for heavy-tailed run-time
  distributions like Figure 4b's).

All return a boolean mask, True where the point is an outlier.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.stats.descriptive import _validated

#: Consistency constant: MAD * 1.4826 estimates sigma for normal data.
MAD_SIGMA_SCALE = 1.4826


def sigma_outliers(sample, n_sigmas: float = 3.0) -> np.ndarray:
    """Points more than *n_sigmas* standard deviations from the mean."""
    if n_sigmas <= 0:
        raise ReproError("n_sigmas must be positive")
    x = _validated(sample)
    if x.size < 2:
        return np.zeros(x.size, dtype=bool)
    sd = x.std(ddof=1)
    if sd == 0:
        return np.zeros(x.size, dtype=bool)
    return np.abs(x - x.mean()) > n_sigmas * sd


def iqr_outliers(sample, k: float = 1.5) -> np.ndarray:
    """Tukey fences: outside ``[Q1 - k*IQR, Q3 + k*IQR]``."""
    if k <= 0:
        raise ReproError("k must be positive")
    x = _validated(sample)
    q1, q3 = np.percentile(x, [25, 75])
    iqr = q3 - q1
    return (x < q1 - k * iqr) | (x > q3 + k * iqr)


def mad_outliers(sample, threshold: float = 3.5) -> np.ndarray:
    """Modified z-score: ``|x - median| / (1.4826 * MAD) > threshold``."""
    if threshold <= 0:
        raise ReproError("threshold must be positive")
    x = _validated(sample)
    med = np.median(x)
    mad = np.median(np.abs(x - med))
    if mad == 0:
        # degenerate: fall back to "anything not equal to the median"
        return x != med
    z = np.abs(x - med) / (MAD_SIGMA_SCALE * mad)
    return z > threshold
