"""Shared enums and small value types used across the library."""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Platform preset names (``ExperimentConfig.platform``), the choices of the
#: CLI's ``--platform``.  :mod:`repro.platform` maps each to its preset
#: factory; this table lets the CLI name them without importing it.
PLATFORMS = ("dardel", "toy", "vera")


class SMTMode(str, enum.Enum):
    """How hardware threads (SMT siblings) are used by an experiment.

    ``ST`` uses at most one hardware thread per physical core and leaves the
    sibling free (available to absorb OS activity); ``MT`` packs both
    hardware threads of each core.  Mirrors the paper's Section 3.
    """

    ST = "ST"
    MT = "MT"


class ProcBind(str, enum.Enum):
    """Values of ``OMP_PROC_BIND`` supported by the modelled runtime."""

    FALSE = "false"
    TRUE = "true"
    CLOSE = "close"
    SPREAD = "spread"
    MASTER = "master"

    @property
    def is_bound(self) -> bool:
        """Whether threads are pinned to places (anything but ``false``)."""
        return self is not ProcBind.FALSE


class ScheduleKind(str, enum.Enum):
    """OpenMP worksharing-loop schedule kinds."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"


class SyncConstruct(str, enum.Enum):
    """Synchronization constructs measured by EPCC ``syncbench``.

    The member order matches the order EPCC reports them in.
    """

    PARALLEL = "parallel"
    FOR = "for"
    PARALLEL_FOR = "parallel_for"
    BARRIER = "barrier"
    SINGLE = "single"
    CRITICAL = "critical"
    LOCK_UNLOCK = "lock_unlock"
    ORDERED = "ordered"
    ATOMIC = "atomic"
    REDUCTION = "reduction"


class StreamKernel(str, enum.Enum):
    """BabelStream kernels, in execution order."""

    COPY = "copy"
    MUL = "mul"
    ADD = "add"
    TRIAD = "triad"
    DOT = "dot"


@dataclass(frozen=True)
class TimeWindow:
    """A half-open interval of simulated time ``[start, end)`` in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"TimeWindow end {self.end} < start {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    def overlap(self, other: "TimeWindow") -> float:
        """Length of the intersection with *other* (0.0 if disjoint)."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        return max(0.0, hi - lo)

    def shifted(self, dt: float) -> "TimeWindow":
        return TimeWindow(self.start + dt, self.end + dt)
