"""CPUfreq governor policies.

A governor maps the DVFS envelope (min frequency, boost-table limit) and the
core's utilization to a *target* frequency.  Only the steady-state decision
is modelled — ramp latencies are folded into the dip process — because the
paper's benchmarks run long enough that governors sit at their fixed point.

The governors mirror the Linux ones the paper's clusters expose:

* ``performance`` — always the boost-table limit (Vera's default).
* ``powersave`` — always the minimum.
* ``ondemand``   — limit when utilization exceeds a threshold, else scales
  proportionally with a floor at min.
* ``schedutil``  — the 1.25 * util * f_max curve used by the kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import FrequencyError


class Governor(ABC):
    """Target-frequency policy."""

    #: sysfs name, e.g. shown in ``scaling_governor``.
    name: str = "abstract"

    @abstractmethod
    def target_freq(self, min_hz: float, limit_hz: float, utilization: float) -> float:
        """Return the target frequency in Hz.

        Parameters
        ----------
        min_hz:
            Lowest p-state of the core.
        limit_hz:
            Current boost-table limit (depends on active core count).
        utilization:
            Fraction of the last window the core was busy, in ``[0, 1]``.
        """

    def _check(self, min_hz: float, limit_hz: float, utilization: float) -> None:
        if min_hz <= 0 or limit_hz <= 0:
            raise FrequencyError("frequencies must be positive")
        if limit_hz < min_hz:
            raise FrequencyError(f"limit {limit_hz} below min {min_hz}")
        if not 0.0 <= utilization <= 1.0:
            raise FrequencyError(f"utilization {utilization} outside [0, 1]")


class PerformanceGovernor(Governor):
    """Pin every core at the boost limit."""

    name = "performance"

    def target_freq(self, min_hz: float, limit_hz: float, utilization: float) -> float:
        self._check(min_hz, limit_hz, utilization)
        return limit_hz


class PowersaveGovernor(Governor):
    """Pin every core at the minimum p-state."""

    name = "powersave"

    def target_freq(self, min_hz: float, limit_hz: float, utilization: float) -> float:
        self._check(min_hz, limit_hz, utilization)
        return min_hz


class OndemandGovernor(Governor):
    """Classic ondemand: jump to the limit above the up-threshold."""

    name = "ondemand"

    def __init__(self, up_threshold: float = 0.80):
        if not 0.0 < up_threshold <= 1.0:
            raise FrequencyError(f"up_threshold {up_threshold} outside (0, 1]")
        self.up_threshold = up_threshold

    def target_freq(self, min_hz: float, limit_hz: float, utilization: float) -> float:
        self._check(min_hz, limit_hz, utilization)
        if utilization >= self.up_threshold:
            return limit_hz
        scaled = min_hz + (limit_hz - min_hz) * (utilization / self.up_threshold)
        return max(min_hz, scaled)


class SchedutilGovernor(Governor):
    """Kernel schedutil curve: ``f = 1.25 * util * f_limit`` clamped."""

    name = "schedutil"

    def __init__(self, margin: float = 1.25):
        if margin < 1.0:
            raise FrequencyError(f"margin {margin} must be >= 1")
        self.margin = margin

    def target_freq(self, min_hz: float, limit_hz: float, utilization: float) -> float:
        self._check(min_hz, limit_hz, utilization)
        return min(limit_hz, max(min_hz, self.margin * utilization * limit_hz))


_GOVERNORS = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "ondemand": OndemandGovernor,
    "schedutil": SchedutilGovernor,
}


def make_governor(name: str) -> Governor:
    """Instantiate a governor by sysfs name.

    >>> make_governor("performance").name
    'performance'
    """
    try:
        cls = _GOVERNORS[name]
    except KeyError:
        raise FrequencyError(
            f"unknown governor {name!r}; choose from {sorted(_GOVERNORS)}"
        ) from None
    return cls()

