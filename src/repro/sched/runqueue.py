"""Per-CPU runqueue occupancy bookkeeping.

:class:`RunqueueState` is the scheduler model's view of "how many runnable
tasks does each logical CPU host".  It backs both wakeup placement (find an
idle CPU / idle core) and collision detection (who is stacked where).
"The core has no busy hardware thread" has one implementation,
:meth:`RunqueueState.idle_core_mask`: one vectorized pass over the counts
that the wakeup placer's idle-core pass and :meth:`idle_cores` share.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.topology.hwthread import Machine


class RunqueueState:
    """Mutable runnable-task counts per logical CPU."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._count = np.zeros(machine.n_cpus, dtype=np.int64)
        self._core_of = machine.core_ids_array()

    # -- mutation -----------------------------------------------------------

    def add(self, cpu: int, k: int = 1) -> None:
        if not 0 <= cpu < self.machine.n_cpus:
            raise SimulationError(f"no cpu {cpu}")
        self._count[cpu] += k

    def remove(self, cpu: int, k: int = 1) -> None:
        if self._count[cpu] < k:
            raise SimulationError(
                f"removing {k} tasks from cpu {cpu} holding {self._count[cpu]}"
            )
        self._count[cpu] -= k

    def move(self, src: int, dst: int) -> None:
        self.remove(src)
        self.add(dst)

    def reset(self) -> None:
        self._count[:] = 0

    # -- queries ------------------------------------------------------------

    def counts(self) -> np.ndarray:
        """A copy of the per-CPU runnable counts."""
        return self._count.copy()

    def idle_core_mask(self) -> np.ndarray:
        """Per CPU: ``True`` when no hardware thread of its core is busy."""
        busy = np.zeros(self.machine.n_cores, dtype=bool)
        busy[self._core_of[self._count != 0]] = True
        return ~busy[self._core_of]

    def idle_cores(self) -> list[int]:
        """Cores whose *every* hardware thread is idle."""
        return np.unique(self._core_of[self.idle_core_mask()]).tolist()

    def load_fraction(self) -> float:
        """Busy CPUs / all CPUs."""
        return float(np.count_nonzero(self._count)) / self.machine.n_cpus
