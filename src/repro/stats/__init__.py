"""Statistical analysis of performance variability.

Implements the paper's metrics and the standard characterization toolkit:

* :mod:`repro.stats.descriptive` — mean/sd/CV, normalized min/max
  (Figure 3's metric), percentiles;
* :mod:`repro.stats.outliers` — 3-sigma (EPCC), IQR and MAD detectors;
* :mod:`repro.stats.bootstrap` — bootstrap confidence intervals;
* :mod:`repro.stats.compare` — two-sample comparisons (Kolmogorov-Smirnov,
  Mann-Whitney, variance ratio) used to decide whether a mitigation
  (pinning, ST) significantly changed the distribution;
* :mod:`repro.stats.variability` — run-to-run vs within-run variance
  decomposition and the :class:`~repro.stats.variability.VariabilityReport`
  the harness renders.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.stats.descriptive": [
        "SummaryStats", "summarize", "coefficient_of_variation",
        "normalized_min_max",
    ],
    "repro.stats.outliers": ["sigma_outliers", "iqr_outliers", "mad_outliers"],
    "repro.stats.bootstrap": ["bootstrap_ci"],
    "repro.stats.compare": [
        "compare_samples", "ComparisonResult", "variance_ratio",
    ],
    "repro.stats.distribution": [
        "LognormalFit", "fit_lognormal", "lognormal_ks",
        "bimodality_coefficient", "is_bimodal", "tail_fraction",
    ],
    "repro.stats.variability": [
        "VariabilityDecomposition", "VariabilityReport",
        "decompose_variability",
    ],
})
