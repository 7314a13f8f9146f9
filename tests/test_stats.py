"""Tests for the statistics package."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.stats import (
    VariabilityReport,
    bootstrap_ci,
    coefficient_of_variation,
    compare_samples,
    decompose_variability,
    iqr_outliers,
    mad_outliers,
    normalized_min_max,
    sigma_outliers,
    summarize,
    variance_ratio,
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == 2.5
        assert s.sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_single_point(self):
        s = summarize([5.0])
        assert s.sd == 0.0
        assert s.cv == 0.0

    def test_spread_ratio(self):
        assert summarize([1.0, 6.0]).spread_ratio == 6.0

    def test_rejects_bad_input(self):
        with pytest.raises(ReproError):
            summarize([])
        with pytest.raises(ReproError):
            summarize([1.0, np.nan])
        with pytest.raises(ReproError):
            summarize([[1.0, 2.0]])

    def test_cv(self):
        assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0
        with pytest.raises(ReproError):
            coefficient_of_variation([0.0, 0.0])

    def test_normalized_min_max(self):
        lo, hi = normalized_min_max([1.0, 2.0, 3.0])
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.5)


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=50))
@settings(max_examples=100)
def test_normalized_min_max_brackets_one(sample):
    lo, hi = normalized_min_max(sample)
    assert lo <= 1.0 + 1e-12
    assert hi >= 1.0 - 1e-12


@given(
    st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2, max_size=50),
    st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=100)
def test_cv_scale_invariant(sample, scale):
    a = coefficient_of_variation(sample)
    b = coefficient_of_variation([x * scale for x in sample])
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestOutliers:
    def test_sigma_detects_spike(self):
        x = np.ones(50)
        x[7] = 100.0
        mask = sigma_outliers(x)
        assert mask[7]
        assert mask.sum() == 1

    def test_sigma_constant_sample(self):
        assert not sigma_outliers(np.ones(10)).any()

    def test_iqr_detects_spike(self):
        x = np.concatenate([np.random.default_rng(0).normal(10, 0.1, 100), [50.0]])
        assert iqr_outliers(x)[-1]

    def test_mad_detects_spike(self):
        x = np.concatenate([np.full(99, 10.0), [1000.0]])
        assert mad_outliers(x)[-1]

    def test_mad_degenerate(self):
        x = np.asarray([5.0] * 9 + [6.0])
        mask = mad_outliers(x)
        assert mask[-1] and mask.sum() == 1

    def test_validation(self):
        with pytest.raises(ReproError):
            sigma_outliers([1.0], n_sigmas=0)
        with pytest.raises(ReproError):
            iqr_outliers([1.0], k=-1)
        with pytest.raises(ReproError):
            mad_outliers([], threshold=1)


class TestBootstrap:
    def test_degenerate_sample(self):
        ci = bootstrap_ci(np.ones(30))
        assert ci.low == ci.high == ci.estimate == 1.0

    def test_mean_ci_covers_truth(self):
        rng = np.random.default_rng(1)
        x = rng.normal(10.0, 1.0, 200)
        ci = bootstrap_ci(x, np.mean, rng=np.random.default_rng(2))
        assert ci.contains(float(x.mean()))
        assert ci.low < 10.2 and ci.high > 9.8

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(3)
        small = bootstrap_ci(rng.normal(0, 1, 20), np.mean,
                             rng=np.random.default_rng(4))
        big = bootstrap_ci(rng.normal(0, 1, 2000), np.mean,
                           rng=np.random.default_rng(5))
        assert big.width < small.width

    def test_validation(self):
        with pytest.raises(ReproError):
            bootstrap_ci([], np.mean)
        with pytest.raises(ReproError):
            bootstrap_ci([1.0], np.mean, confidence=1.5)
        with pytest.raises(ReproError):
            bootstrap_ci([1.0], np.mean, n_resamples=2)

    @staticmethod
    def _loop_reference(x, statistic, n_resamples, rng):
        """The pre-vectorization implementation, kept as the oracle."""
        x = np.asarray(x, dtype=np.float64)
        estimates = np.empty(n_resamples)
        n = x.size
        for i in range(n_resamples):
            estimates[i] = statistic(x[rng.integers(0, n, size=n)])
        alpha = 0.025
        low, high = np.percentile(estimates, [100 * alpha, 100 * (1 - alpha)])
        return float(low), float(high)

    @pytest.mark.parametrize(
        "statistic",
        [np.mean, np.median, lambda s: float(np.percentile(s, 90))],
        ids=["mean", "median", "p90"],
    )
    def test_vectorized_matches_loop_reference(self, statistic):
        x = np.random.default_rng(7).lognormal(0.0, 0.8, 37)
        ref_low, ref_high = self._loop_reference(
            x, statistic, 200, np.random.default_rng(11)
        )
        ci = bootstrap_ci(x, statistic, n_resamples=200,
                          rng=np.random.default_rng(11))
        assert ci.low == ref_low
        assert ci.high == ref_high


class TestCompare:
    def test_identical_distributions(self):
        rng = np.random.default_rng(6)
        a = rng.normal(10, 1, 300)
        b = rng.normal(10, 1, 300)
        r = compare_samples(a, b)
        assert r.ks_pvalue >= 0.001
        assert r.mean_ratio == pytest.approx(1.0, abs=0.05)

    def test_shifted_distributions_detected(self):
        rng = np.random.default_rng(7)
        a = rng.normal(20, 1, 300)
        b = rng.normal(10, 1, 300)
        r = compare_samples(a, b)
        assert r.ks_pvalue < 0.01
        assert r.mw_pvalue < 0.01
        assert r.mean_ratio == pytest.approx(2.0, abs=0.1)

    def test_variance_ratio(self):
        rng = np.random.default_rng(8)
        noisy = rng.normal(10, 4, 500)
        quiet = rng.normal(10, 1, 500)
        assert variance_ratio(noisy, quiet) > 8.0

    def test_variance_ratio_degenerate(self):
        assert variance_ratio([1.0, 1.0], [1.0, 1.0]) == 1.0
        assert variance_ratio([1.0, 2.0], [1.0, 1.0]) == float("inf")

    def test_validation(self):
        with pytest.raises(ReproError):
            compare_samples([1.0], [1.0, 2.0])


class TestDecomposition:
    def test_pure_within_run_variance(self):
        rng = np.random.default_rng(9)
        # all runs drawn from the same distribution: ICC ~ 0
        runs = rng.normal(10, 1, size=(10, 200))
        d = decompose_variability(runs)
        assert d.icc < 0.1
        assert d.within_run_var == pytest.approx(1.0, rel=0.2)

    def test_pure_between_run_variance(self):
        rng = np.random.default_rng(10)
        offsets = rng.normal(0, 5, size=(10, 1))
        runs = 100.0 + offsets + rng.normal(0, 0.01, size=(10, 200))
        d = decompose_variability(runs)
        assert d.icc > 0.95

    def test_grand_mean(self):
        runs = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        assert decompose_variability(runs).grand_mean == 2.5

    def test_validation(self):
        with pytest.raises(ReproError):
            decompose_variability(np.ones((1, 5)))
        with pytest.raises(ReproError):
            decompose_variability(np.ones(5))


class TestVariabilityReport:
    def test_from_runs(self):
        rng = np.random.default_rng(11)
        runs = rng.normal(1e-3, 1e-5, size=(5, 50))
        rep = VariabilityReport.from_runs("demo", runs)
        assert rep.n_runs == 5
        assert rep.pooled.n == 250
        assert rep.decomposition is not None
        assert rep.run_means().shape == (5,)

    def test_render_contains_rows(self):
        rng = np.random.default_rng(12)
        rep = VariabilityReport.from_runs("demo", rng.normal(1e-3, 1e-5, (3, 20)))
        text = rep.render()
        assert "demo" in text
        assert text.count("\n") >= 5
        assert "ICC" in text

    def test_rejects_1d(self):
        with pytest.raises(ReproError):
            VariabilityReport.from_runs("x", np.ones(5))
