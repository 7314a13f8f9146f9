"""EPCC ``syncbench``: synchronization-construct overheads.

For every construct the benchmark runs ``outer_reps`` timed tests; each
test executes ``innerreps`` instances of the construct with a
``delay(delaytime)`` body and reports the per-construct overhead
``test_time / innerreps - reference``.

Modelling notes (mirroring the real suite's code structure):

* *parallel-type* constructs (PARALLEL, FOR, PARALLEL FOR, BARRIER,
  SINGLE, REDUCTION): all threads execute the delay concurrently each
  inner iteration, so per-thread work is ``innerreps x delay`` and the
  construct cost lands on the critical path ``innerreps`` times;
* *serialized* constructs (CRITICAL, LOCK/UNLOCK, ORDERED, ATOMIC): the
  suite normalizes so ``innerreps`` total entries happen; the whole body
  is critical-path: ``innerreps x (delay + handoff)``;
* constructs that open a parallel region per instance (PARALLEL,
  PARALLEL FOR, REDUCTION) additionally suffer OS wake-up hazards when
  the team is unbound: each region fork is a fresh chance for a worker to
  land behind another runnable thread, stalling the whole team for
  milliseconds — the mechanism behind the 3-orders-of-magnitude spread of
  Figure 4b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bench.epcc.common import (
    parse_entries,
    require_finite,
    require_integers,
    target_innerreps,
)
from repro.errors import BenchmarkError
from repro.omp.constructs import CONSTRUCT_PROFILES
from repro.omp.region import NoiseMode, RegionExecutor
from repro.omp.runtime import RunContext
from repro.rng import RepStreams
from repro.types import SyncConstruct
from repro.units import us


@dataclass(frozen=True)
class SyncbenchParams:
    """Table 1 parameters for syncbench.

    ``constructs`` lists the constructs measured, in order, by
    :class:`~repro.types.SyncConstruct` value (e.g. ``["barrier",
    "reduction"]``).
    """

    outer_reps: int = 100
    delay_time: float = us(0.1)
    test_time: float = us(1000.0)
    rep_gap: float = us(50.0)
    smt_efficiency: float = 0.95  # the delay loop co-schedules well on SMT
    constructs: tuple[SyncConstruct, ...] = (SyncConstruct.REDUCTION,)

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.outer_reps <= 0:
            raise BenchmarkError("outer_reps must be positive")
        if self.delay_time < 0 or self.test_time <= 0 or self.rep_gap < 0:
            raise BenchmarkError("invalid syncbench timing parameters")
        if not 0.0 < self.smt_efficiency <= 1.0:
            raise BenchmarkError("smt_efficiency outside (0, 1]")
        object.__setattr__(self, "constructs", parse_entries(
            "constructs", self.constructs,
            f"construct names ({', '.join(c.value for c in SyncConstruct)})",
            SyncConstruct,
        ))


class Syncbench:
    """The syncbench driver; one instance is reusable across runs."""

    params_type = SyncbenchParams

    def __init__(self, params: SyncbenchParams | None = None):
        self.params = params if params is not None else SyncbenchParams()

    def horizon(self, n_threads: int) -> float:
        """Run duration for horizon sizing: reps x test_time x slack,
        per construct plus half a construct."""
        p = self.params
        per_construct = p.outer_reps * (p.test_time * 3.0 + p.rep_gap) + 0.5
        return per_construct * (len(p.constructs) + 0.5)

    def series(self, runs: Sequence[RunContext]) -> list[dict[str, np.ndarray]]:
        """Measure every construct on the runs *runs*, in order; per run,
        each construct's repetition times and its EPCC overhead
        ``time / innerreps - delay``, clipped at zero."""
        ex = RegionExecutor(runs)
        rows: list[dict[str, np.ndarray]] = [{} for _ in ex.runs]
        for construct in self.params.constructs:
            innerreps, rep_times = self._measure(ex, construct)
            overheads = rep_times / innerreps - self.params.delay_time
            for row, times, overhead in zip(rows, rep_times, overheads):
                row[construct.value] = times
                row[f"{construct.value}.overhead"] = np.maximum(overhead, 0.0)
        return rows

    # -- helpers -----------------------------------------------------------

    def _iter_time_estimate(self, ctx: RunContext, construct: SyncConstruct) -> float:
        """Expected duration of one logical inner iteration."""
        cost = ctx.sync_cost.construct_cost(construct, ctx.team)
        return self.params.delay_time + cost

    def _fork_hazard_extra(
        self, ctx: RunContext, innerreps: int, rng: np.random.Generator
    ) -> float:
        """Extra critical-path time from unbound per-region wake hazards."""
        sched = ctx.runtime.sched_model.params
        n = ctx.team.n_threads
        load = len(set(ctx.team.cpus)) / ctx.machine.n_cpus
        p_single = min(1.0, sched.stacking_prob_per_thread * (1.0 + 8.0 * load))
        p_region = 1.0 - (1.0 - p_single) ** n
        n_events = int(rng.poisson(innerreps * p_region))
        if n_events == 0:
            return 0.0
        delays = np.minimum(
            rng.lognormal(
                np.log(sched.sched_delay_median), sched.sched_delay_sigma, size=n_events
            ),
            sched.sched_delay_cap,
        )
        return float(delays.sum())

    # -- measurement ---------------------------------------------------------

    def _measure(
        self, ex: RegionExecutor, construct: SyncConstruct
    ) -> tuple[int, np.ndarray]:
        """Measure one construct for every run of *ex*: ``innerreps`` and
        the ``(runs, outer_reps)`` repetition times.

        Bound teams draw each run's contention jitter for all repetitions
        up front; unbound teams (one run per executor) re-place, draw and
        pay fork hazards repetition by repetition, in that order.
        """
        p = self.params
        profile = CONSTRUCT_PROFILES[construct]
        ctx = ex.runs[0]
        team = ctx.team
        bound = team.bound
        innerreps = target_innerreps(p.test_time, self._iter_time_estimate(ctx, construct))
        streams = RepStreams(
            tuple(run.stream("syncbench", construct.value) for run in ex.runs)
        )
        tracer = ctx.tracer
        tracing = tracer.enabled  # hoisted once; the null path pays one bool test
        if bound:
            cost = ctx.sync_cost.construct_cost(construct, team)
            sigma = ctx.sync_cost.jitter_sigma(team)
            jitters = streams.lognormal(
                mean=-0.5 * sigma**2, sigma=sigma, size=p.outer_reps
            )
            wake_delays = np.asarray([run.fork.wake_delays for run in ex.runs])
        else:
            (rng,) = streams.generators

        rep_times = np.empty((ex.n_runs, p.outer_reps))
        for rep in range(p.outer_reps):
            if bound:
                jitter = jitters[:, rep]
            else:
                ctx.refork_unbound(rng)
                team = ctx.team
                cost = ctx.sync_cost.construct_cost(construct, team)
                jitter = ctx.sync_cost.sample_multiplier(team, rng)
                wake_delays = ctx.fork.wake_delays

            if profile.serialized:
                work = np.zeros(team.n_threads)
                sync_overhead = innerreps * (p.delay_time + cost * jitter)
            else:
                work = np.full(team.n_threads, innerreps * p.delay_time)
                sync_overhead = innerreps * cost * jitter

            if profile.has_fork and not bound:
                sync_overhead += self._fork_hazard_extra(ctx, innerreps, rng)

            result = ex.execute(
                team,
                work,
                noise_mode=NoiseMode.SYNC_SUM,
                sync_overhead=sync_overhead,
                wake_delays=wake_delays if rep == 0 or not bound else None,
                stacking_episodes=() if bound else ctx.fork.episodes,
                smt_efficiency=p.smt_efficiency,
            )
            duration = result.duration
            if tracing:
                # one span per timed test (innerreps construct instances are
                # far too many to draw individually); traced runs execute
                # one run per executor
                args = {"rep": rep, "innerreps": innerreps}
                if profile.has_barrier:
                    args.update(ctx.sync_cost.barrier_trace_args(team))
                tracer.span(
                    0, construct.value, ctx.t, ctx.t + float(duration[0]),
                    cat="omp", args=args,
                )
            rep_times[:, rep] = duration
            ex.advance(duration + p.rep_gap)

        return innerreps, rep_times
