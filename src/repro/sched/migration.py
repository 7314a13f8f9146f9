"""Spontaneous migrations of unbound threads.

NUMA balancing and periodic load balancing move long-running unbound
threads between CPUs at a low rate.  Each migration costs a cache/TLB
refill and — crucially for BabelStream — can move a thread away from the
NUMA domain where its first-touch pages live, turning local streams into
interconnect traffic.  Pinned threads never migrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sched.params import SchedParams
from repro.topology.hwthread import Machine


@dataclass(frozen=True)
class MigrationEvent:
    """Thread *thread* moves from *src_cpu* to *dst_cpu* at time *t*."""

    t: float
    thread: int
    src_cpu: int
    dst_cpu: int
    penalty: float


class MigrationModel:
    """Samples migration events for unbound threads over a window."""

    def __init__(self, machine: Machine, params: SchedParams):
        self.machine = machine
        self.params = params

    def sample(
        self,
        cpus: list[int],
        t_start: float,
        t_end: float,
        rng: np.random.Generator,
    ) -> list[MigrationEvent]:
        """Migration events for a team currently placed on *cpus*.

        Destinations prefer idle CPUs outside the team (the balancer moves
        threads toward idleness); each event carries the refill penalty.
        Events are returned sorted by time; the caller is responsible for
        applying placement changes in order.
        """
        p = self.params
        horizon = t_end - t_start
        if horizon <= 0 or p.migration_rate_unbound == 0:
            return []
        team = set(cpus)
        outside = [c for c in range(self.machine.n_cpus) if c not in team]
        events: list[MigrationEvent] = []
        for tid, cpu in enumerate(cpus):
            n = int(rng.poisson(p.migration_rate_unbound * horizon))
            if n == 0:
                continue
            times = np.sort(t_start + rng.random(n) * horizon)
            for t in times:
                dst_pool = outside if outside else list(range(self.machine.n_cpus))
                dst = int(rng.choice(dst_pool))
                events.append(
                    MigrationEvent(
                        t=float(t),
                        thread=tid,
                        src_cpu=cpu,
                        dst_cpu=dst,
                        penalty=p.migration_penalty,
                    )
                )
                cpu = dst
        events.sort(key=lambda e: e.t)
        return events
