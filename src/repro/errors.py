"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from simulation-internal problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An experiment, runtime or platform was configured inconsistently."""


class TopologyError(ConfigurationError):
    """A machine topology description is invalid (e.g. zero cores)."""


class PlacesSyntaxError(ConfigurationError):
    """An ``OMP_PLACES`` string could not be parsed."""


class BindingError(ConfigurationError):
    """Thread binding could not be satisfied (e.g. more threads than places
    with a strict policy, or a place referencing a non-existent CPU)."""


class ScheduleError(ConfigurationError):
    """An OpenMP loop schedule specification is invalid."""


class AxisPointError(ConfigurationError):
    """A study axis point (named in the message) builds no valid config;
    *field* is what built it: ``axes`` or ``derive.<key>``."""

    def __init__(self, message: str, field: str = "axes"):
        super().__init__(message)
        self.field = field


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TraceError(SimulationError):
    """A piecewise trace was queried outside its domain or built unsorted."""


class FrequencyError(SimulationError):
    """The DVFS subsystem was driven with invalid frequencies."""


class NoiseModelError(SimulationError):
    """A noise source produced or was configured with invalid events."""


class MemoryModelError(SimulationError):
    """The NUMA memory model was queried inconsistently."""


class BenchmarkError(ReproError):
    """A benchmark was invoked with unusable parameters."""


class HarnessError(ReproError):
    """The experiment harness failed (unknown experiment, bad result file)."""


class AnalysisError(ReproError):
    """The static-analysis framework was misused (unknown rule, bad
    baseline file) — distinct from the findings it reports."""


class ServiceError(ReproError):
    """The job service failed (unknown job, bad state transition, ...)."""


class JobSpecError(ServiceError):
    """A job spec failed validation; the message names the offending
    field (e.g. ``axes[1].kind``)."""
