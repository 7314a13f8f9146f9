"""OpenMP environment configuration (the ``OMP_*`` variables).

:class:`OMPEnvironment` is the immutable description of how a benchmark
process would be launched: thread count, places, binding policy, loop
schedule and wait policy.  It can be built programmatically or parsed from
a mapping of environment variables (:meth:`OMPEnvironment.from_env`),
which also understands the vendor-specific ``KMP_BLOCKTIME`` (milliseconds
a passive waiter spins before sleeping, or ``infinite``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.omp.vendor import WaitPolicy
from repro.types import ProcBind, ScheduleKind


@dataclass(frozen=True)
class OMPEnvironment:
    """Launch-time OpenMP settings.

    Attributes
    ----------
    num_threads:
        ``OMP_NUM_THREADS``.
    places:
        ``OMP_PLACES`` string (``"threads"``, ``"cores"``, explicit lists,
        ...), or ``None`` for the implementation default (``cores``); only
        consulted when binding is requested.
    proc_bind:
        ``OMP_PROC_BIND``; ``false`` (the Linux default the paper starts
        from) leaves thread placement to the OS.
    schedule:
        Default ``schedule(runtime)`` kind and chunk (``OMP_SCHEDULE``).
    wait_policy:
        ``OMP_WAIT_POLICY``; ``None`` leaves the runtime vendor's default
        in force (see :mod:`repro.omp.vendor`).
    blocktime:
        ``KMP_BLOCKTIME``-style spin-before-sleep threshold in *seconds*;
        ``None`` keeps the vendor default.
    """

    num_threads: int
    places: Optional[str] = None
    proc_bind: ProcBind = ProcBind.FALSE
    schedule: ScheduleKind = ScheduleKind.STATIC
    schedule_chunk: Optional[int] = None
    wait_policy: Optional[WaitPolicy] = None
    blocktime: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise ConfigurationError(
                f"OMP_NUM_THREADS must be positive, got {self.num_threads}"
            )
        if self.schedule_chunk is not None and self.schedule_chunk <= 0:
            raise ConfigurationError(
                f"schedule chunk must be positive, got {self.schedule_chunk}"
            )
        if self.blocktime is not None and self.blocktime < 0:
            raise ConfigurationError(
                f"blocktime must be non-negative, got {self.blocktime}"
            )
        if self.proc_bind.is_bound and self.places is None:
            # the spec default when binding is requested without places
            object.__setattr__(self, "places", "cores")

    @property
    def bound(self) -> bool:
        """Whether threads are pinned (``OMP_PROC_BIND`` != ``false``)."""
        return self.proc_bind.is_bound

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "OMPEnvironment":
        """Parse a mapping of environment variables.

        >>> e = OMPEnvironment.from_env({
        ...     "OMP_NUM_THREADS": "16",
        ...     "OMP_PLACES": "cores",
        ...     "OMP_PROC_BIND": "close",
        ...     "OMP_SCHEDULE": "dynamic,1",
        ... })
        >>> e.num_threads, e.proc_bind.value, e.schedule.value, e.schedule_chunk
        (16, 'close', 'dynamic', 1)
        """
        try:
            num_threads = int(env.get("OMP_NUM_THREADS", "1"))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad OMP_NUM_THREADS {env.get('OMP_NUM_THREADS')!r}"
            ) from exc

        places = env.get("OMP_PLACES")

        bind_text = env.get("OMP_PROC_BIND", "false").strip().lower()
        try:
            proc_bind = ProcBind(bind_text)
        except ValueError as exc:
            raise ConfigurationError(f"bad OMP_PROC_BIND {bind_text!r}") from exc

        kind = ScheduleKind.STATIC
        chunk: Optional[int] = None
        sched_text = env.get("OMP_SCHEDULE")
        if sched_text:
            head, _, chunk_text = sched_text.partition(",")
            try:
                kind = ScheduleKind(head.strip().lower())
            except ValueError as exc:
                raise ConfigurationError(f"bad OMP_SCHEDULE kind {head!r}") from exc
            if chunk_text.strip():
                try:
                    chunk = int(chunk_text)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"bad OMP_SCHEDULE chunk {chunk_text!r}"
                    ) from exc

        wait_policy: Optional[WaitPolicy] = None
        wait_text = env.get("OMP_WAIT_POLICY")
        if wait_text is not None:
            try:
                wait_policy = WaitPolicy(wait_text.strip().lower())
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad OMP_WAIT_POLICY {wait_text!r}"
                ) from exc

        blocktime: Optional[float] = None
        block_text = env.get("KMP_BLOCKTIME")
        if block_text is not None:
            text = block_text.strip().lower()
            if text == "infinite":
                blocktime = math.inf
            else:
                try:
                    blocktime = int(text) / 1e3  # KMP_BLOCKTIME is in ms
                except ValueError as exc:
                    raise ConfigurationError(
                        f"bad KMP_BLOCKTIME {block_text!r}"
                    ) from exc

        return cls(
            num_threads=num_threads,
            places=places,
            proc_bind=proc_bind,
            schedule=kind,
            schedule_chunk=chunk,
            wait_policy=wait_policy,
            blocktime=blocktime,
        )

    def describe(self) -> str:
        """Shell-style one-liner (README/log rendering)."""
        parts = [f"OMP_NUM_THREADS={self.num_threads}"]
        if self.places is not None:
            parts.append(f"OMP_PLACES={self.places}")
        parts.append(f"OMP_PROC_BIND={self.proc_bind.value}")
        chunk = f",{self.schedule_chunk}" if self.schedule_chunk else ""
        parts.append(f"OMP_SCHEDULE={self.schedule.value}{chunk}")
        if self.wait_policy is not None:
            parts.append(f"OMP_WAIT_POLICY={self.wait_policy.value}")
        if self.blocktime is not None:
            text = (
                "infinite" if math.isinf(self.blocktime)
                else f"{round(self.blocktime * 1e3)}"
            )
            parts.append(f"KMP_BLOCKTIME={text}")
        return " ".join(parts)
