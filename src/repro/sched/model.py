"""Scheduler model facade used by the OpenMP runtime.

:class:`SchedulerModel` answers the runtime's questions at region forks:

* *bound team*: threads sit on their pinned CPUs; each fork pays only wake
  IPIs for the workers that actually slept.
* *unbound team*: wakeup placement may stack workers (→
  :class:`~repro.sched.balancer.StackingEpisode`), workers that found no
  idle CPU additionally pay a scheduling delay before first running, and
  long regions accumulate migrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.obs.tracer import Tracer
from repro.sched.balancer import BalancerModel, StackingEpisode
from repro.sched.migration import MigrationEvent, MigrationModel
from repro.sched.params import SchedParams
from repro.sched.wakeup import WakeupPlacer
from repro.topology.hwthread import Machine


@lru_cache(maxsize=4096)
def wakeup_path_cost(params: SchedParams, n_wakes: int) -> float:
    """Deterministic critical-path cost of *n_wakes* scheduler wakeups.

    Each wake of a sleeping thread traverses the kernel path a spinning
    waiter avoids: futex wake, IPI to the idle CPU, idle-state exit —
    the mean of the per-fork wake draw (:attr:`SchedParams.wake_ipi_cost`).
    Passive-wait-policy runtimes pay this on every signal that reaches a
    sleeping waiter (region fork, barrier release); see
    :class:`repro.omp.constructs.SyncCostModel`.

    A pure function of its (hashable, frozen) arguments, memoized because
    passive-profile sweeps evaluate it per construct instance.
    """
    if n_wakes <= 0:
        return 0.0
    return params.wake_ipi_cost * n_wakes


@dataclass(frozen=True)
class ForkOutcome:
    """Placement and wake costs of one parallel-region fork."""

    cpus: tuple[int, ...]
    wake_delays: np.ndarray = field(compare=False)
    episodes: tuple[StackingEpisode, ...] = ()

    @property
    def n_threads(self) -> int:
        return len(self.cpus)


def trace_fork(tracer: Tracer, outcome: ForkOutcome, t0: float) -> None:
    """Emit one fork's scheduler-wakeup picture onto *tracer* at *t0*.

    Each worker whose wake delay is non-zero gets a ``wakeup`` span on its
    thread track (futex wake + IPI + idle exit, plus any runqueue wait for
    stacked unbound threads); stacking episodes additionally get a
    ``stacked`` span covering their reduced-CPU-share interval.  A cold
    annotation helper: called once per fork, guarded on entry.
    """
    if not tracer.enabled:
        return
    delays = outcome.wake_delays
    for i in range(1, outcome.n_threads):
        d = float(delays[i])
        if d > 0.0:
            tracer.span(
                i, "wakeup", t0, t0 + d, cat="sched",
                args={"cpu": int(outcome.cpus[i])},
            )
    for ep in outcome.episodes:
        # episode windows are already absolute (sampled at fork time)
        tracer.span(
            ep.thread, "stacked", ep.start, ep.end, cat="sched",
            args={"share": ep.share},
        )


class SchedulerModel:
    """Fork placement + wake-delay + migration sampling."""

    def __init__(self, machine: Machine, params: SchedParams | None = None):
        self.machine = machine
        self.params = params if params is not None else SchedParams()
        self.placer = WakeupPlacer(machine, self.params)
        self.balancer = BalancerModel(self.params)
        self.migrations = MigrationModel(machine, self.params)

    # -- forks ---------------------------------------------------------------

    def _wake_delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Per-thread wake cost; thread 0 (master) never pays it."""
        p = self.params
        delays = np.zeros(n)
        if n > 1:
            woken = rng.random(n - 1) < p.fork_wake_fraction
            ipis = rng.uniform(
                p.wake_ipi_cost - p.wake_ipi_jitter,
                p.wake_ipi_cost + p.wake_ipi_jitter,
                size=n - 1,
            )
            delays[1:] = np.where(woken, ipis, 0.0)
        return delays

    def fork_bound(
        self, team_cpus: list[int], rng: np.random.Generator
    ) -> ForkOutcome:
        """Fork with threads pinned to *team_cpus* (thread 0 = master)."""
        return ForkOutcome(
            cpus=tuple(int(c) for c in team_cpus),
            wake_delays=self._wake_delays(len(team_cpus), rng),
        )

    def fork_unbound(
        self,
        n_threads: int,
        master_cpu: int,
        t_start: float,
        rng: np.random.Generator,
        external_busy: list[int] | None = None,
    ) -> ForkOutcome:
        """Fork with OS-chosen placement (``OMP_PROC_BIND=false``)."""
        cpus = self.placer.place_team(
            n_threads, master_cpu, rng, external_busy=external_busy
        )
        delays = self._wake_delays(n_threads, rng)
        episodes = tuple(self.balancer.episodes_for_placement(cpus, t_start, rng))
        # threads that landed on an occupied CPU also wait for a slice
        p = self.params
        for ep in episodes:
            if ep.thread == 0:
                continue  # master was already running
            extra = min(
                p.sched_delay_cap,
                float(
                    rng.lognormal(np.log(p.sched_delay_median), p.sched_delay_sigma)
                ),
            )
            delays[ep.thread] += extra
        return ForkOutcome(cpus=tuple(cpus), wake_delays=delays, episodes=episodes)

    # -- long-region churn -----------------------------------------------------

    def sample_migrations(
        self,
        cpus: list[int],
        t_start: float,
        t_end: float,
        rng: np.random.Generator,
    ) -> list[MigrationEvent]:
        """Unbound-thread migrations over a long region (e.g. a stream kernel)."""
        return self.migrations.sample(cpus, t_start, t_end, rng)
