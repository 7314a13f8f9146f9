"""Distribution characterization.

The paper's methodology ("a statistical analysis of the observed execution
times") needs more than summary statistics once pinning is off: Figure 4b's
unpinned repetition times are *bimodal* — a tight mode of clean repetitions
plus a heavy cloud of OS-delayed ones.  This module provides the
characterization tools the analysis layer uses:

* :func:`fit_lognormal` / :func:`lognormal_ks` — pinned repetition times
  are well described by a log-normal (multiplicative jitter);
* :func:`bimodality_coefficient` — the SAS bimodality coefficient
  (``(skew^2 + 1) / kurtosis``-style); values above ~0.555 (the uniform
  distribution's value) indicate more than one mode;
* :func:`tail_fraction` — fraction of mass beyond k x the mode estimate,
  a direct "how many repetitions were disturbed" measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.stats.descriptive import _validated

#: Bimodality-coefficient value of the uniform distribution; the customary
#: threshold above which a sample is flagged as potentially multi-modal.
BIMODALITY_THRESHOLD = 5.0 / 9.0


@dataclass(frozen=True)
class LognormalFit:
    """Maximum-likelihood log-normal fit (location fixed at zero)."""

    mu: float  # mean of log(sample)
    sigma: float  # std of log(sample)

    @property
    def median(self) -> float:
        return float(np.exp(self.mu))

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu + 0.5 * self.sigma**2))


def fit_lognormal(sample) -> LognormalFit:
    """Fit a zero-location log-normal to strictly positive data.

    >>> fit = fit_lognormal([1.0, 1.0, 1.0])
    >>> fit.median
    1.0
    """
    x = _validated(sample, min_size=2)
    if np.any(x <= 0):
        raise ReproError("log-normal fit requires strictly positive data")
    logs = np.log(x)
    return LognormalFit(mu=float(logs.mean()), sigma=float(logs.std(ddof=0)))


def lognormal_ks(sample) -> tuple[float, float]:
    """KS statistic and p-value of the sample against its log-normal fit.

    High p-values mean "consistent with log-normal" — the expected verdict
    for pinned repetition times; unpinned times fail decisively.
    """
    from scipy import stats as sps  # lazily: most CLI calls never need scipy

    x = _validated(sample, min_size=8)
    fit = fit_lognormal(x)
    if fit.sigma <= 1e-12 * max(1.0, abs(fit.mu)):
        # degenerate (constant sample up to rounding): trivially consistent
        return 0.0, 1.0
    result = sps.kstest(np.log(x), "norm", args=(fit.mu, fit.sigma))
    return float(result.statistic), float(result.pvalue)


def bimodality_coefficient(sample) -> float:
    """Sarle's bimodality coefficient ``(g1^2 + 1) / (g2 + 3(n-1)^2/((n-2)(n-3)))``.

    Returns a value in ``(0, 1]``; > 5/9 suggests bimodality/heavy tails.
    """
    from scipy import stats as sps  # lazily: most CLI calls never need scipy

    x = _validated(sample, min_size=4)
    n = x.size
    g1 = float(sps.skew(x, bias=False))
    g2 = float(sps.kurtosis(x, bias=False))  # excess kurtosis
    denom = g2 + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    if denom <= 0:
        raise ReproError("degenerate kurtosis; cannot compute coefficient")
    return (g1**2 + 1.0) / denom


def is_bimodal(sample, threshold: float = BIMODALITY_THRESHOLD) -> bool:
    """Bimodality verdict by Sarle's coefficient."""
    return bimodality_coefficient(sample) > threshold


def tail_fraction(sample, k: float = 2.0) -> float:
    """Fraction of repetitions slower than ``k x`` the sample's mode.

    The mode is estimated as the median of the fastest half — robust to a
    large disturbed cloud — so this directly answers "what fraction of
    repetitions were hit by the OS?".
    """
    if k <= 1.0:
        raise ReproError(f"k must exceed 1, got {k}")
    x = _validated(sample, min_size=4)
    fastest_half = np.sort(x)[: max(2, x.size // 2)]
    mode_estimate = float(np.median(fastest_half))
    if mode_estimate <= 0:
        raise ReproError("non-positive mode estimate")
    return float(np.mean(x > k * mode_estimate))
