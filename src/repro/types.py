"""Shared enums and small value types used across the library."""

from __future__ import annotations

import enum

#: Platform preset names (``ExperimentConfig.platform``), the choices of the
#: CLI's ``--platform``.  :mod:`repro.platform` maps each to its preset
#: factory; this table lets the CLI name them without importing it.
PLATFORMS = ("dardel", "toy", "vera")


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

