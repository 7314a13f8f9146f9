"""The frequency logger (paper Section 3, "Frequency logging on a separate
core").

A background sampler pinned to a spare CPU reads ``scaling_cur_freq`` of
every CPU at a fixed interval, as the authors' background Python script
does through the Linux CPUFreq sysfs.  Here each sample reads the run's
frequency plan directly, in whole kHz as sysfs reports it.  Its samples
lie on a plain grid (``t_start``, then each previous sample time plus
the interval, while it does not pass ``t_end``), so no event queue is
involved.  Its CPU is
marked busy to the noise/placement models so the logger itself perturbs
the benchmark as little as possible (and measurably, if you pin it onto a
benchmark core on purpose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.freq.dvfs import FrequencyPlan


@dataclass(frozen=True)
class FrequencyLog:
    """Sampled frequencies: ``freqs_khz[i, c]`` at ``times[i]`` for cpu c."""

    logger_cpu: int
    interval: float
    times: np.ndarray = field(compare=False)
    freqs_khz: np.ndarray = field(compare=False)

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def min_freq_ghz(self) -> float:
        return float(self.freqs_khz.min()) / 1e6

    def max_freq_ghz(self) -> float:
        return float(self.freqs_khz.max()) / 1e6

    def band_occupancy(self, low_ghz: float) -> float:
        """Fraction of (sample, cpu) readings below *low_ghz* — the paper's
        "brown region": how often cores sat in a dipped state."""
        return float(np.mean(self.freqs_khz < low_ghz * 1e6))

    def summary(self) -> str:
        return (
            f"freqlog: {self.n_samples} samples @ {self.interval * 1e3:.1f} ms "
            f"on cpu {self.logger_cpu}; observed "
            f"{self.min_freq_ghz():.2f}-{self.max_freq_ghz():.2f} GHz"
        )


class FrequencyLogger:
    """Samples a run's frequency plan the way the real logger samples
    sysfs ``scaling_cur_freq``."""

    def __init__(self, logger_cpu: int, interval: float = 0.01):
        if interval <= 0:
            raise HarnessError(f"logger interval must be positive, got {interval}")
        if not math.isfinite(interval):
            raise HarnessError(f"logger interval must be finite, got {interval}")
        self.logger_cpu = int(logger_cpu)
        self.interval = float(interval)

    def capture(
        self, plan: FrequencyPlan, t_start: float, t_end: float
    ) -> FrequencyLog:
        """Sample every CPU at ``t_start``, ``t_start + interval``, ...
        up to ``t_end``, in kHz rounded to an integer.  Each time is the
        previous one plus the interval, accumulated in float64."""
        if t_end <= t_start:
            raise HarnessError("empty logging window")
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise HarnessError(f"logging window must be finite, got [{t_start}, {t_end}]")
        times: list[float] = []
        rows: list[np.ndarray] = []
        t = float(t_start)
        while t <= t_end:
            times.append(t)
            rows.append(np.round(plan.snapshot(t) / 1e3).astype(np.int64))
            t = t + self.interval
        return FrequencyLog(
            logger_cpu=self.logger_cpu,
            interval=self.interval,
            times=np.asarray(times),
            freqs_khz=np.vstack(rows),
        )
