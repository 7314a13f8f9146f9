"""Generator-based simulation processes.

A process is a Python generator that yields :class:`Timeout` commands; the
engine resumes it after the simulated delay.  This is a deliberately tiny
subset of SimPy's model — the only blocking primitive the reproduction needs
is "sleep for dt", used by periodic activities such as the frequency logger
and the OS load balancer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional


@dataclass(frozen=True, slots=True)
class Timeout:
    """Command: resume the yielding process after ``delay`` seconds."""

    delay: float


class Process:
    """A running generator with liveness tracking.

    ``resume`` is the engine's per-process trampoline: one closure bound at
    spawn time that steps the generator, reused for every re-schedule so
    the event hot path allocates no per-step lambda.
    """

    __slots__ = ("generator", "name", "resume", "_alive", "_result")

    def __init__(self, generator: Generator, name: str = "proc"):
        self.generator = generator
        self.name = name
        self.resume: Any = None
        self._alive = True
        self._result: Any = None

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Value returned by the generator (``return x``), if finished."""
        return self._result

    def step(self) -> Optional[Timeout]:
        """Advance the generator one step; ``None`` means it finished."""
        if not self._alive:
            return None
        try:
            command = next(self.generator)
        except StopIteration as stop:
            self._alive = False
            self._result = stop.value
            return None
        return command

    def kill(self) -> None:
        """Terminate the process; it will never be stepped again."""
        if self._alive:
            self._alive = False
            self.generator.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return f"Process({self.name!r}, {state})"
