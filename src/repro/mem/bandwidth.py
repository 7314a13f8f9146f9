"""NUMA bandwidth contention model.

Each NUMA domain owns a memory-controller capacity; each core owns a link
limit; remote streams pay a path penalty *and* consume capacity at their
home domain.  :meth:`BandwidthModel.solve` computes the achieved per-thread
bandwidth by iterative proportional fair sharing (water-filling): threads
start at their core limit and are scaled down uniformly at every
oversubscribed domain until demand fits capacity everywhere.

This reproduces the three regimes BabelStream shows in the paper:

* few threads — each thread pinned at its core link limit (time falls
  roughly 1/n as threads are added, Figure 2);
* many threads — domain capacities saturate (time flattens);
* unpinned / migrated threads — remote paths cut the achievable rate by
  the cross-NUMA / cross-socket factor (min/max spread up to ~6x,
  Figure 4c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryModelError
from repro.mem.pages import PagePlacement
from repro.topology.hwthread import Machine


@dataclass(frozen=True)
class MemorySpec:
    """Static memory-system parameters of a platform.

    Attributes
    ----------
    numa_bw:
        Achievable streaming bandwidth of one NUMA domain's controllers
        (bytes/s).
    core_bw:
        Per-core link limit (bytes/s) — what one thread can stream alone.
    same_socket_remote_factor:
        Multiplier (< 1) on a stream whose pages live in another domain of
        the same socket.
    cross_socket_remote_factor:
        Multiplier on a stream crossing the socket interconnect.
    kernel_launch_overhead:
        Fixed per-kernel-invocation cost (loop setup, barrier), seconds.
    stream_jitter_base / stream_jitter_util:
        Log-normal sigma of per-iteration streaming-time jitter (DRAM
        refresh alignment, page-coloring luck, prefetcher state):
        ``sigma = base + util_coeff * utilization^2`` where utilization is
        the total demand over total domain capacity.  The paper's Figure 3
        shows BabelStream's normalized min/max spreading as thread counts
        approach saturation.
    smt_stream_jitter:
        Additional sigma when teammates share cores (the MT configuration
        destabilizes streaming — Figure 5f).
    """

    numa_bw: float
    core_bw: float
    same_socket_remote_factor: float = 0.7
    cross_socket_remote_factor: float = 0.45
    kernel_launch_overhead: float = 2.0e-6
    stream_jitter_base: float = 0.002
    stream_jitter_util: float = 0.015
    smt_stream_jitter: float = 0.010

    def __post_init__(self) -> None:
        if self.numa_bw <= 0 or self.core_bw <= 0:
            raise MemoryModelError("bandwidths must be positive")
        if not 0 < self.cross_socket_remote_factor <= 1:
            raise MemoryModelError("cross-socket factor outside (0, 1]")
        if not 0 < self.same_socket_remote_factor <= 1:
            raise MemoryModelError("same-socket factor outside (0, 1]")
        if self.kernel_launch_overhead < 0:
            raise MemoryModelError("negative launch overhead")
        if min(self.stream_jitter_base, self.stream_jitter_util,
               self.smt_stream_jitter) < 0:
            raise MemoryModelError("stream jitter sigmas must be non-negative")


class BandwidthModel:
    """Fair-share bandwidth solver over the NUMA topology."""

    def __init__(self, machine: Machine, spec: MemorySpec):
        self.machine = machine
        self.spec = spec

    # -- path classification ---------------------------------------------------

    def path_factor(self, cpu: int, home_domain: int) -> float:
        """Efficiency multiplier for a thread on *cpu* streaming from *home_domain*."""
        t = self.machine.hwthread(cpu)
        if t.numa_id == home_domain:
            return 1.0
        home_socket = self.machine.numa_domains[home_domain].socket_id
        if t.socket_id == home_socket:
            return self.spec.same_socket_remote_factor
        return self.spec.cross_socket_remote_factor

    # -- solver ------------------------------------------------------------------

    def solve(
        self,
        cpus: list[int],
        placement: PagePlacement,
        smt_shared: np.ndarray | None = None,
        iterations: int = 8,
    ) -> np.ndarray:
        """Achieved bandwidth (bytes/s) per thread.

        Parameters
        ----------
        cpus:
            Current CPU of each thread.
        placement:
            Home domain of each thread's pages.
        smt_shared:
            Optional boolean array: thread shares its core with another
            streaming thread (SMT siblings split the core link).
        """
        n = len(cpus)
        if placement.n_threads != n:
            raise MemoryModelError("placement/thread count mismatch")
        spec = self.spec
        factors = np.asarray(
            [self.path_factor(c, placement.domain_of(i)) for i, c in enumerate(cpus)]
        )
        core_limit = np.full(n, spec.core_bw)
        if smt_shared is not None:
            core_limit = np.where(smt_shared, spec.core_bw / 2.0, core_limit)
        # demand starts at the per-core limit scaled by path efficiency
        bw = core_limit * factors
        homes = np.asarray([placement.domain_of(i) for i in range(n)])
        for _ in range(iterations):
            # scale down at each oversubscribed home domain
            scale = np.ones(n)
            for d in range(self.machine.n_numa):
                mask = homes == d
                demand = float(bw[mask].sum())
                if demand > spec.numa_bw:
                    scale[mask] = np.minimum(scale[mask], spec.numa_bw / demand)
            bw = bw * scale
            if np.all(scale >= 1.0 - 1e-12):
                break
        return bw

    def kernel_time(
        self,
        bytes_per_thread: np.ndarray,
        cpus: list[int],
        placement: PagePlacement,
        smt_shared: np.ndarray | None = None,
    ) -> float:
        """Wall time of one barrier-terminated streaming kernel.

        The kernel finishes when the slowest thread finishes its slice.
        """
        bw = self.solve(cpus, placement, smt_shared=smt_shared)
        times = np.asarray(bytes_per_thread, dtype=np.float64) / bw
        return float(times.max()) + self.spec.kernel_launch_overhead

    def utilization(
        self,
        cpus: list[int],
        placement: PagePlacement,
        smt_shared: np.ndarray | None = None,
    ) -> float:
        """Achieved demand over total domain capacity, in [0, 1]."""
        bw = self.solve(cpus, placement, smt_shared=smt_shared)
        homes = {placement.domain_of(i) for i in range(placement.n_threads)}
        capacity = len(homes) * self.spec.numa_bw
        return min(1.0, float(bw.sum()) / capacity)

    def jitter_sigma(
        self,
        cpus: list[int],
        placement: PagePlacement,
        smt_shared: np.ndarray | None = None,
    ) -> float:
        """Log-normal sigma for per-iteration kernel-time jitter."""
        spec = self.spec
        util = self.utilization(cpus, placement, smt_shared=smt_shared)
        sigma = spec.stream_jitter_base + spec.stream_jitter_util * util**2
        if smt_shared is not None and bool(np.asarray(smt_shared).any()):
            sigma += spec.smt_stream_jitter
        return sigma
