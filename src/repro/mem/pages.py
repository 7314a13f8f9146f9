"""First-touch page placement.

Linux backs an anonymous page on the NUMA domain of the CPU that first
writes it.  BabelStream initializes its arrays inside a parallel region, so
each thread's slice of every array lands on the domain where that thread
ran *during initialization*.  Pinned threads therefore stream from local
memory forever; unbound threads that later migrate stream remotely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryModelError
from repro.topology.hwthread import Machine


@dataclass(frozen=True)
class PagePlacement:
    """Home NUMA domain of each thread's array slice."""

    home_domain: tuple[int, ...]  # indexed by thread id

    @classmethod
    def first_touch(cls, machine: Machine, init_cpus: list[int]) -> "PagePlacement":
        """Pages land where the initializing threads ran."""
        if not init_cpus:
            raise MemoryModelError("first_touch needs at least one thread")
        return cls(tuple(machine.hwthread(c).numa_id for c in init_cpus))

    @classmethod
    def interleaved(cls, machine: Machine, n_threads: int) -> "PagePlacement":
        """``numactl --interleave``-style round-robin homes (ablation aid)."""
        if n_threads <= 0:
            raise MemoryModelError("need at least one thread")
        n = machine.n_numa
        return cls(tuple(i % n for i in range(n_threads)))

    @property
    def n_threads(self) -> int:
        return len(self.home_domain)

    def domain_of(self, thread: int) -> int:
        return self.home_domain[thread]
