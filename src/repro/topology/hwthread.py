"""Topology value objects: hardware threads, cores, NUMA domains, sockets,
and the :class:`Machine` aggregate with its lookup tables.

CPU numbering follows the Linux convention used on both paper platforms:
logical CPUs ``0 .. ncores-1`` are the first hardware thread of each core,
and CPUs ``ncores .. 2*ncores-1`` are the SMT siblings in the same core
order (so core *c* owns CPUs ``{c, c + ncores}`` on an SMT-2 machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.topology.cpuset import CpuSet


@dataclass(frozen=True)
class HWThread:
    """One logical CPU (a hardware thread)."""

    cpu_id: int
    core_id: int
    smt_index: int  # 0 for the first hw thread of the core, 1 for its sibling
    numa_id: int
    socket_id: int


@dataclass(frozen=True)
class Core:
    """A physical core and its SMT siblings (``cpu_ids[0]`` is thread 0)."""

    core_id: int
    cpu_ids: tuple[int, ...]
    numa_id: int
    socket_id: int

    @property
    def smt_level(self) -> int:
        return len(self.cpu_ids)


@dataclass(frozen=True)
class NUMADomain:
    """A NUMA domain: a set of cores sharing a local memory controller."""

    numa_id: int
    socket_id: int
    core_ids: tuple[int, ...]
    cpu_ids: tuple[int, ...]


@dataclass(frozen=True)
class Socket:
    """A processor package."""

    socket_id: int
    numa_ids: tuple[int, ...]
    core_ids: tuple[int, ...]
    cpu_ids: tuple[int, ...]


@dataclass(frozen=True)
class Machine:
    """A complete shared-memory node.

    Construct via :class:`repro.topology.builder.TopologyBuilder` or the
    platform presets; the constructor validates global consistency.
    """

    name: str
    hwthreads: tuple[HWThread, ...]
    cores: tuple[Core, ...]
    numa_domains: tuple[NUMADomain, ...]
    sockets: tuple[Socket, ...]
    numa_distance: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.hwthreads:
            raise TopologyError("machine has no hardware threads")
        ids = [t.cpu_id for t in self.hwthreads]
        if ids != list(range(len(ids))):
            raise TopologyError("hwthread cpu_ids must be 0..n-1 in order")
        core_ids = [c.core_id for c in self.cores]
        if core_ids != list(range(len(core_ids))):
            raise TopologyError("core ids must be 0..n-1 in order")
        for t in self.hwthreads:
            core = self.cores[t.core_id]
            if t.cpu_id not in core.cpu_ids:
                raise TopologyError(
                    f"cpu {t.cpu_id} claims core {t.core_id} which does not list it"
                )
            if (t.numa_id, t.socket_id) != (core.numa_id, core.socket_id):
                raise TopologyError(f"cpu {t.cpu_id} disagrees with its core's location")
        seen = set()
        for d in self.numa_domains:
            for c in d.core_ids:
                if c in seen:
                    raise TopologyError(f"core {c} in two NUMA domains")
                seen.add(c)
        if seen != set(core_ids):
            raise TopologyError("NUMA domains do not partition the cores")
        if self.numa_distance:
            n = len(self.numa_domains)
            if len(self.numa_distance) != n or any(len(r) != n for r in self.numa_distance):
                raise TopologyError("numa_distance must be n_domains x n_domains")

    # -- sizes ----------------------------------------------------------------

    @property
    def n_cpus(self) -> int:
        return len(self.hwthreads)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def n_numa(self) -> int:
        return len(self.numa_domains)

    @property
    def n_sockets(self) -> int:
        return len(self.sockets)

    @property
    def smt_level(self) -> int:
        return self.cores[0].smt_level

    # -- lookups ---------------------------------------------------------------

    def hwthread(self, cpu_id: int) -> HWThread:
        try:
            return self.hwthreads[cpu_id]
        except IndexError:
            raise TopologyError(f"no cpu {cpu_id} on {self.name}") from None

    def core_of(self, cpu_id: int) -> Core:
        return self.cores[self.hwthread(cpu_id).core_id]

    def siblings_of(self, cpu_id: int) -> tuple[int, ...]:
        """The other hardware threads sharing this CPU's core."""
        core = self.core_of(cpu_id)
        return tuple(c for c in core.cpu_ids if c != cpu_id)

    @cached_property
    def sibling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`siblings_of` for every cpu as int64 CSR arrays ``(ptr,
        idx)``: cpu *c*'s siblings are ``idx[ptr[c]:ptr[c + 1]]``."""
        siblings = [self.siblings_of(c) for c in range(self.n_cpus)]
        ptr = np.zeros(self.n_cpus + 1, dtype=np.int64)
        np.cumsum([len(s) for s in siblings], out=ptr[1:])
        idx = np.asarray([c for s in siblings for c in s], dtype=np.int64)
        return ptr, idx

    def all_cpus(self) -> CpuSet:
        return CpuSet(range(self.n_cpus))

    def primary_cpus(self) -> CpuSet:
        """The first hardware thread of every core (the ST cpu pool)."""
        return CpuSet(core.cpu_ids[0] for core in self.cores)

    def distance(self, numa_a: int, numa_b: int) -> int:
        """ACPI SLIT-style distance between two NUMA domains (10 = local)."""
        if not self.numa_distance:
            return 10 if numa_a == numa_b else 20
        return self.numa_distance[numa_a][numa_b]

    # -- derived structure -------------------------------------------------------

    def numa_span(self, cpus: Sequence[int] | CpuSet) -> int:
        """Number of distinct NUMA domains touched by a CPU set."""
        return len({self.hwthread(c).numa_id for c in cpus})

    def socket_span(self, cpus: Sequence[int] | CpuSet) -> int:
        """Number of distinct sockets touched by a CPU set."""
        return len({self.hwthread(c).socket_id for c in cpus})

    def cores_spanned(self, cpus: Sequence[int] | CpuSet) -> int:
        return len({self.hwthread(c).core_id for c in cpus})

    def numa_ids_array(self) -> np.ndarray:
        """``numa_id`` per cpu, as an int array indexed by cpu id."""
        return np.asarray([t.numa_id for t in self.hwthreads], dtype=np.int64)

    def core_ids_array(self) -> np.ndarray:
        """``core_id`` per cpu, as an int array indexed by cpu id."""
        return np.asarray([t.core_id for t in self.hwthreads], dtype=np.int64)

    def summary(self) -> str:
        """Human-readable one-paragraph description (README/CLI use)."""
        return (
            f"{self.name}: {self.n_sockets} socket(s), {self.n_numa} NUMA "
            f"domain(s), {self.n_cores} cores, SMT-{self.smt_level}, "
            f"{self.n_cpus} hardware threads"
        )
