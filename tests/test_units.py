"""Tests for repro.units."""

import numpy as np
import pytest

from repro import units


class TestTimeConversions:
    def test_us_roundtrip(self):
        assert units.to_us(units.us(15.0)) == pytest.approx(15.0)

    def test_ms_roundtrip(self):
        assert units.to_ms(units.ms(124.02)) == pytest.approx(124.02)

    def test_us_is_seconds(self):
        assert units.us(1_000_000) == pytest.approx(1.0)

    def test_constants_consistent(self):
        assert units.USEC == 1e-6
        assert units.MSEC == 1e-3
        assert units.NSEC == 1e-9

    def test_sim_ns_rounds_half_to_even(self):
        halves = [0.5e-9, 1.5e-9, 2.5e-9, -0.5e-9]
        assert [units.to_sim_ns(t) for t in halves] == [0, 2, 2, 0]
        assert units.to_sim_ns_array(halves).tolist() == [0, 2, 2, 0]

    def test_sim_ns_array_matches_scalar(self):
        t = np.random.default_rng(3).uniform(-1.0, 50.0, 1000)
        out = units.to_sim_ns_array(t)
        assert out.dtype == np.int64
        assert out.tolist() == [units.to_sim_ns(x) for x in t.tolist()]


class TestFrequencyConversions:
    def test_ghz(self):
        assert units.ghz(2.25) == pytest.approx(2.25e9)


class TestDataConversions:
    def test_gb_per_s_roundtrip(self):
        assert units.gb_per_s(204.8) / units.GB == pytest.approx(204.8)
