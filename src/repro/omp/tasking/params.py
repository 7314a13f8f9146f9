"""Cost parameters and cost model for the explicit-tasking runtime.

:class:`TaskCostParams` is the tasking analogue of
:class:`~repro.omp.constructs.SyncCostParams`: platform constants (seconds)
for every runtime operation the work-stealing scheduler performs.  The
baseline values follow the LLVM/libomp implementation sketch — a Chase-Lev
deque per thread, owner operations mostly core-local, thief operations
paying cache-line transfers to the victim's core — calibrated so that task
creation sits in the high-hundreds-of-nanoseconds range EPCC taskbench
reports at moderate team sizes.

:class:`TaskCostModel` turns the constants into per-team costs the same way
:class:`~repro.omp.constructs.SyncCostModel` does for synchronization
constructs: thief-side operations scale with the team's distance-weighted
cache-line latency (a steal across sockets bounces the deque's top pointer
and the task descriptor over the interconnect), and every cost inflates by
``smt_task_factor`` when teammates share cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.omp.team import Team
from repro.units import ns, us


@dataclass(frozen=True, slots=True)
class TaskCostParams:
    """Platform constants for tasking-runtime operations (seconds).

    Attributes
    ----------
    task_create:
        Allocate + initialize one task descriptor (paid by the spawning
        thread per child, on top of the deque push).
    deque_push / deque_pop:
        Owner-side bottom operations on the thread's own deque.  Mostly
        core-local; the pop pays one atomic for the race with thieves.
    steal_attempt:
        One probe of a victim deque that finds it empty (a *failed* steal):
        read the top/bottom pair from the victim's cache line.
    steal_success:
        A successful steal: the probe plus the CAS on ``top`` and the
        transfer of the task descriptor to the thief's core.
    line_latency_ref:
        Reference line latency the base costs were calibrated against;
        thief-side costs scale by ``l_eff / line_latency_ref`` so wider
        teams (cross-NUMA, cross-socket) steal more slowly.
    steal_backoff_base / steal_backoff_factor / steal_backoff_max:
        Exponential backoff applied after consecutive *fully failed scans*
        (every victim probed empty), so an out-of-work thief polls instead
        of hammering the interconnect (and so the discrete-event
        simulation stays event-bounded).
    smt_task_factor:
        Multiplier on every runtime operation when the team shares physical
        cores (spin-polling thieves steal issue slots from their sibling).
    smt_efficiency:
        Per-thread throughput factor for task *bodies* when two teammates
        share a core (task bodies are compute, unlike the latency-bound
        runtime operations).
    work_jitter_sigma:
        Log-normal sigma applied per executed task body (micro-contention
        on shared resources); ``0`` disables it.
    """

    task_create: float = ns(380.0)
    deque_push: float = ns(55.0)
    deque_pop: float = ns(90.0)
    steal_attempt: float = ns(150.0)
    steal_success: float = ns(520.0)
    line_latency_ref: float = ns(32.0)
    steal_backoff_base: float = us(0.4)
    steal_backoff_factor: float = 2.0
    steal_backoff_max: float = us(25.0)
    smt_task_factor: float = 1.3
    smt_efficiency: float = 0.85
    work_jitter_sigma: float = 0.02

    def __post_init__(self) -> None:
        for name in (
            "task_create", "deque_push", "deque_pop",
            "steal_attempt", "steal_success", "steal_backoff_base",
            "steal_backoff_max", "work_jitter_sigma",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.line_latency_ref <= 0:
            raise ConfigurationError("line_latency_ref must be positive")
        if self.steal_attempt > self.steal_success:
            raise ConfigurationError(
                "a failed steal cannot cost more than a successful one"
            )
        if self.steal_backoff_factor < 1.0:
            raise ConfigurationError("steal_backoff_factor must be >= 1")
        if self.steal_backoff_max < self.steal_backoff_base:
            raise ConfigurationError("steal_backoff_max below steal_backoff_base")
        if self.smt_task_factor < 1.0:
            raise ConfigurationError("smt_task_factor must be >= 1")
        if not 0.0 < self.smt_efficiency <= 1.0:
            raise ConfigurationError("smt_efficiency outside (0, 1]")


class TaskCostModel:
    """Per-team tasking-operation costs.

    ``sync`` supplies the platform's distance-weighted line latency (see
    :meth:`SyncCostModel.effective_line_latency`); when omitted, default
    :class:`SyncCostParams` latencies are used.
    """

    __slots__ = ("params", "sync")

    def __init__(self, params: TaskCostParams, sync: "SyncCostModel | None" = None):
        from repro.omp.constructs import SyncCostModel, SyncCostParams

        self.params = params
        self.sync = sync if sync is not None else SyncCostModel(SyncCostParams())

    def _team_factor(self, team: Team) -> float:
        """Thief-side scaling: the team's line-latency ratio.

        ``effective_line_latency`` already folds in the sync-side SMT
        inflation, so only owner-side costs apply ``smt_task_factor``
        separately.
        """
        l_eff = self.sync.effective_line_latency(team)
        return max(1.0, l_eff / self.params.line_latency_ref)

    def pop_cost(self, team: Team) -> float:
        p = self.params
        return p.deque_pop * (p.smt_task_factor if team.uses_smt else 1.0)

    def create_cost(self, team: Team) -> float:
        """Spawn one child: descriptor allocation + the owner push."""
        p = self.params
        smt = p.smt_task_factor if team.uses_smt else 1.0
        return (p.task_create + p.deque_push) * smt

    def steal_cost(self, team: Team) -> float:
        return self.params.steal_success * self._team_factor(team)

    def failed_steal_cost(self, team: Team) -> float:
        return self.params.steal_attempt * self._team_factor(team)

    def backoff(self, consecutive_failures: int) -> float:
        """Backoff delay after the n-th consecutive failed steal (n >= 1)."""
        if consecutive_failures <= 0:
            return 0.0
        p = self.params
        delay = p.steal_backoff_base * (
            p.steal_backoff_factor ** (consecutive_failures - 1)
        )
        return min(delay, p.steal_backoff_max)
