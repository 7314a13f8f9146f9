"""The OpenMP runtime facade.

:class:`OpenMPRuntime` resolves an :class:`~repro.omp.env.OMPEnvironment`
against a platform into concrete thread teams and produces per-run
execution contexts (:class:`RunContext`) that bundle everything a benchmark
repetition needs: the run's frequency plan, its noise realization, its
time cursor, and the synchronization cost model.

This module deliberately does not import :mod:`repro.platform`; it accepts
any object exposing the platform attributes (duck-typed) so the dependency
graph stays acyclic (platform -> omp -> substrates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import BindingError, ConfigurationError
from repro.freq.dvfs import FrequencyModel, FrequencyPlan
from repro.freq.governor import make_governor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.omp.constructs import SyncCostModel
from repro.omp.env import OMPEnvironment
from repro.omp.places import parse_places
from repro.omp.proc_bind import assign_cpus, bind_threads
from repro.omp.tasking.params import TaskCostModel, TaskCostParams
from repro.omp.team import Team
from repro.omp.vendor import RuntimeProfile
from repro.osnoise.model import NoiseBatch, NoiseModel, NoiseRealization
from repro.rng import RngFactory
from repro.sched.model import ForkOutcome, SchedulerModel, trace_fork

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform import Platform


@dataclass
class RunContext:
    """Everything one run (one process launch) of a benchmark needs.

    The context owns a time cursor; benchmarks execute repetitions
    sequentially along the run's realized noise/frequency timeline, which
    is what produces natural within-run variability.
    """

    runtime: "OpenMPRuntime"
    run_index: int
    team: Team
    fork: ForkOutcome
    freq_plan: FrequencyPlan
    noise: NoiseRealization
    sync_cost: SyncCostModel
    rng: RngFactory
    t: float = 0.0
    #: Observability sink; benchmarks read it to emit spans along the run
    #: timeline (docs/observability.md).  Defaults to the no-op tracer.
    tracer: Tracer = NULL_TRACER

    @cached_property
    def noise_batch(self) -> NoiseBatch:
        """The run's noise as a one-run :class:`NoiseBatch`, built on first
        request: the work-stealing scheduler prices task bodies through
        it."""
        return NoiseBatch([self.noise])

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ConfigurationError(f"cannot advance cursor by {dt}")
        self.t += dt

    def stream(self, *path) -> np.random.Generator:
        """Run-scoped RNG stream."""
        return self.rng.stream(*path)

    @property
    def machine(self):
        return self.runtime.machine

    def refork_unbound(self, rng: np.random.Generator) -> None:
        """Re-place an unbound team (called per outer repetition).

        The run's noise realization and frequency plan were generated
        machine-wide for unbound runs (see :meth:`OpenMPRuntime.start_run`),
        so the re-placed CPUs carry the same noise/frequency processes as
        the original placement — a reforked team never runs noise-free.
        """
        if self.team.bound:
            return
        outcome = self.runtime.sched_model.fork_unbound(
            self.team.n_threads, self.team.master_cpu, self.t, rng
        )
        self.fork = outcome
        self.team = self.team.with_cpus(list(outcome.cpus))
        if self.tracer.enabled:
            self.tracer.instant(
                0, "refork", self.t, cat="sched",
                args={"cpus": [int(c) for c in outcome.cpus]},
            )
            trace_fork(self.tracer, outcome, self.t)


class OpenMPRuntime:
    """Resolves OMP settings into teams and run contexts for one platform.

    *profile* selects the runtime vendor (:mod:`repro.omp.vendor`); it
    defaults to the platform's preset.  ``OMP_WAIT_POLICY`` /
    ``KMP_BLOCKTIME`` settings in *env* override the profile's wait policy.
    """

    def __init__(
        self,
        platform: "Platform",
        env: OMPEnvironment,
        profile: RuntimeProfile | None = None,
    ):
        self.platform = platform
        self.env = env
        self.machine = platform.machine
        base_profile = profile if profile is not None else platform.runtime_profile
        self.profile = base_profile.with_env(env)
        self.freq_model = FrequencyModel(platform.machine, platform.freq_spec)
        self.noise_model = NoiseModel(platform.machine, platform.noise_profile.sources)
        self.sched_model = SchedulerModel(platform.machine, platform.sched_params)
        self.sync_cost = SyncCostModel(
            platform.sync_params, self.profile, platform.sched_params
        )
        self.task_cost = TaskCostModel(
            getattr(platform, "task_params", None) or TaskCostParams(),
            self.sync_cost,
        )
        self.governor = make_governor(platform.default_governor)
        if env.num_threads > self.machine.n_cpus:
            raise ConfigurationError(
                f"{env.num_threads} threads exceed {self.machine.n_cpus} CPUs "
                f"on {self.machine.name}"
            )

    # -- team resolution ---------------------------------------------------------

    def resolve_bound_team(self) -> Team:
        """Apply OMP_PLACES + OMP_PROC_BIND to get the pinned team, once
        per runtime: every run shares the frozen :class:`Team`."""
        if not self.env.bound:
            raise BindingError("resolve_bound_team with OMP_PROC_BIND=false")
        return self._bound_team

    @cached_property
    def _bound_team(self) -> Team:
        places = parse_places(self.machine, self.env.places or "cores")
        thread_places = bind_threads(self.env.num_threads, len(places), self.env.proc_bind)
        cpus = assign_cpus(places, thread_places)
        return Team(self.machine, tuple(cpus), bound=True)

    def resolve_unbound_team(self, rng: np.random.Generator) -> tuple[Team, ForkOutcome]:
        """Sample an OS placement for an unbound team (master on CPU 0)."""
        outcome = self.sched_model.fork_unbound(
            self.env.num_threads, master_cpu=0, t_start=0.0, rng=rng
        )
        return Team(self.machine, outcome.cpus, bound=False), outcome

    # -- run contexts ---------------------------------------------------------------

    def _trace_run_setup(
        self,
        tracer: Tracer,
        team: Team,
        fork: ForkOutcome,
        freq_plan: FrequencyPlan,
    ) -> None:
        """Emit the run's setup picture: thread tracks, fork placement,
        scheduler wakeups, and the frequency plan's dips.  Cold path —
        called once per traced run, guarded on entry."""
        if not tracer.enabled:
            return
        for i, cpu in enumerate(team.cpus):
            tracer.thread_name(i, f"thread {i} (cpu {int(cpu)})")
        tracer.instant(
            0, "fork.place", 0.0, cat="sched",
            args={"cpus": [int(c) for c in team.cpus], "bound": self.env.bound},
        )
        trace_fork(tracer, fork, 0.0)
        for dip in freq_plan.dips:
            tracer.instant(
                0, "freq.dip", dip.start, cat="freq",
                args={
                    "socket": dip.socket_id,
                    "depth": round(dip.depth, 4),
                    "duration_us": round(dip.duration * 1e6, 3),
                },
            )

    def start_run(
        self,
        run_index: int,
        rng_factory: RngFactory,
        horizon: float,
        extra_busy_cpus: tuple[int, ...] = (),
        tracer: Tracer = NULL_TRACER,
    ) -> RunContext:
        """Realize one run: placement, frequency plan, noise.

        *horizon* should generously cover the run's expected duration; the
        frequency traces extend beyond it (last value holds) and noise
        beyond it is absent, so prefer a 1.5-2x margin.

        *extra_busy_cpus* marks CPUs occupied by non-benchmark activity the
        experiment controls (e.g. the frequency logger's core).
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        run_rng = rng_factory.child("run", run_index)
        if self.env.bound:
            team = self.resolve_bound_team()
            fork = self.sched_model.fork_bound(
                list(team.cpus), run_rng.stream("fork")
            )
        else:
            team, fork = self.resolve_unbound_team(run_rng.stream("placement"))

        busy = list(dict.fromkeys(list(team.cpus) + list(extra_busy_cpus)))
        # Bound teams: the frequency plan's boost/dip triggers follow the
        # *team* (the logger on a spare core must not make a one-NUMA team
        # look cross-NUMA); noise placement sees every busy CPU.
        # Unbound teams migrate on every refork, so their noise and
        # frequency-trigger processes are realized machine-wide — otherwise
        # a re-placed team lands on CPUs with no noise events and dip/derate
        # processes anchored to the initial placement.
        unbound = not self.env.bound
        freq_plan = self.freq_model.plan(
            0.0, horizon, list(team.cpus), self.governor, run_rng.stream("freq"),
            machine_wide=unbound,
        )
        noise_busy = list(range(self.machine.n_cpus)) if unbound else busy
        noise = self.noise_model.realize(
            0.0, horizon, noise_busy, run_rng.stream("noise")
        )
        self._trace_run_setup(tracer, team, fork, freq_plan)
        return RunContext(
            runtime=self,
            run_index=run_index,
            team=team,
            fork=fork,
            freq_plan=freq_plan,
            noise=noise,
            sync_cost=self.sync_cost,
            rng=run_rng,
            t=0.0,
            tracer=tracer,
        )
