"""Tests for repro.units."""

import math

import numpy as np
import pytest

from repro import units


class TestTimeConversions:
    def test_us_roundtrip(self):
        assert units.to_us(units.us(15.0)) == pytest.approx(15.0)

    def test_ms_roundtrip(self):
        assert units.to_ms(units.ms(124.02)) == pytest.approx(124.02)

    def test_ns_roundtrip(self):
        assert units.to_ns(units.ns(74.0)) == pytest.approx(74.0)

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

    def test_babelstream_array_size(self):
        # paper: array size 2^25 doubles = 256 MiB
        nbytes = 2**25 * 8
        assert nbytes == 256 * units.MIB


class TestFormatting:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (1.5e-6, "1.500 us"),
            (0.25, "250.000 ms"),
            (2.0, "2.000 s"),
            (5e-9, "5.0 ns"),
        ],
    )
    def test_fmt_time(self, seconds, expected):
        assert units.fmt_time(seconds) == expected

    def test_fmt_time_nan(self):
        assert units.fmt_time(math.nan) == "nan"

    def test_fmt_freq_ghz(self):
        assert units.fmt_freq(2.25e9) == "2.250 GHz"

    def test_fmt_freq_mhz(self):
        assert units.fmt_freq(800e6) == "800.0 MHz"

    def test_fmt_bytes(self):
        assert units.fmt_bytes(2**25 * 8) == "256.0 MiB"
        assert units.fmt_bytes(512) == "512 B"
        assert units.fmt_bytes(4 * units.GIB) == "4.0 GiB"
        assert units.fmt_bytes(3 * units.KIB) == "3.0 KiB"
