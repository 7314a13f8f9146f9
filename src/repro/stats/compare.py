"""Two-sample comparisons between experiment configurations.

Used to answer the paper's qualitative claims quantitatively, e.g. "after
pinning, run-to-run variability is almost eliminated": the harness compares
the pinned and unpinned samples with distribution-free tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.stats.descriptive import _validated


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-sample comparison (a vs b)."""

    ks_statistic: float
    ks_pvalue: float
    mw_statistic: float
    mw_pvalue: float
    mean_ratio: float  # mean(a) / mean(b)
    variance_ratio: float  # var(a) / var(b)


def variance_ratio(a, b) -> float:
    """var(a)/var(b); > 1 means *a* is more variable."""
    xa, xb = _validated(a, min_size=2), _validated(b, min_size=2)
    vb = xb.var(ddof=1)
    if vb == 0:
        return float("inf") if xa.var(ddof=1) > 0 else 1.0
    return float(xa.var(ddof=1) / vb)


def compare_samples(a, b) -> ComparisonResult:
    """Compare two timing samples (e.g. unpinned vs pinned).

    Returns KS and Mann-Whitney statistics plus mean/variance ratios;
    ratios are oriented a/b so "a is worse" shows as ratios > 1.
    """
    # scipy is imported here, not at module level: only the significance
    # tests and distribution checks need it, and every CLI call imports
    # this module
    from scipy import stats as sps

    xa, xb = _validated(a, min_size=2), _validated(b, min_size=2)
    ks = sps.ks_2samp(xa, xb)
    mw = sps.mannwhitneyu(xa, xb, alternative="two-sided")
    mean_b = xb.mean()
    if mean_b == 0:
        raise ReproError("cannot form mean ratio against zero-mean sample")
    return ComparisonResult(
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        mw_statistic=float(mw.statistic),
        mw_pvalue=float(mw.pvalue),
        mean_ratio=float(xa.mean() / mean_b),
        variance_ratio=variance_ratio(xa, xb),
    )
