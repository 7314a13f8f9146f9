"""EPCC ``schedbench``: worksharing-loop scheduling overheads.

Each outer repetition times one ``parallel for`` over
``itersperthr x nthreads`` iterations of ``delay(delaytime)`` under a given
schedule.  With the paper's parameters (delay 15 us, itersperthr 8192) one
repetition is nominally 122.88 ms of work per thread; what the measurement
exposes is everything on top: dequeue overheads, the shared-queue
serialization, frequency derating at high active-core counts, scheduler
hazards for unbound teams, and OS noise.

Noise aggregation: ``static`` loops meet one barrier at the end (MAX mode
— the slowest thread's noise counts); ``dynamic``/``guided`` loops
redistribute the stalled thread's chunks (BALANCED mode — the team absorbs
noise at total/n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.epcc.common import (
    EpccStats,
    epcc_stats,
    require_finite,
    require_integers,
)
from repro.errors import BenchmarkError
from repro.omp.region import NoiseMode, RegionExecutor
from repro.omp.runtime import RunContext
from repro.omp.schedule import LoopPlan, plan_loop
from repro.omp.team import Team
from repro.rng import RepStreams
from repro.types import ScheduleKind
from repro.units import us


@dataclass(frozen=True)
class SchedbenchParams:
    """Table 1 parameters for schedbench.

    ``smt_efficiency`` / ``smt_rep_jitter``: the EPCC delay loop is a
    dependency-chain of arithmetic, which co-schedules almost perfectly on
    SMT siblings (paper Table 2: 254 threads cost only the frequency
    derate) — but sibling interference makes repetition times *noisy*
    (Figure 5d), captured by a per-repetition log-normal multiplier.
    """

    outer_reps: int = 100
    delay_time: float = us(15.0)
    itersperthr: int = 8192
    test_time: float = us(1000.0)  # kept for interface parity with EPCC
    rep_gap: float = us(200.0)
    smt_efficiency: float = 1.0
    smt_rep_jitter: float = 0.025

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.outer_reps <= 0 or self.itersperthr <= 0:
            raise BenchmarkError("outer_reps and itersperthr must be positive")
        if self.delay_time < 0 or self.rep_gap < 0:
            raise BenchmarkError("invalid schedbench timing parameters")
        if not 0.0 < self.smt_efficiency <= 1.0:
            raise BenchmarkError("smt_efficiency outside (0, 1]")
        if self.smt_rep_jitter < 0:
            raise BenchmarkError("negative smt_rep_jitter")


@dataclass(frozen=True)
class ScheduleMeasurement:
    """One schedule's measurement within one run."""

    kind: ScheduleKind
    chunk: int | None
    rep_times: np.ndarray = field(compare=False)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``dynamic_1``."""
        suffix = f"_{self.chunk}" if self.chunk is not None else ""
        return f"{self.kind.value}{suffix}"

    @property
    def stats(self) -> EpccStats:
        return epcc_stats(self.rep_times)


class Schedbench:
    """The schedbench driver; one instance is reusable across runs."""

    def __init__(self, params: SchedbenchParams | None = None):
        self.params = params if params is not None else SchedbenchParams()

    def _region_shape(
        self, ctx: RunContext, team: Team, kind: ScheduleKind, chunk: int | None
    ) -> tuple[LoopPlan, np.ndarray, float, float]:
        """One repetition's loop plan, per-thread work, fork/join
        overhead and barrier cost for *team* (fixed for a bound team)."""
        p = self.params
        plan = plan_loop(
            kind, p.itersperthr * team.n_threads, team.n_threads, chunk,
            p.delay_time, ctx.runtime.platform.sched_cost_params,
            latency_factor=1.0 + 0.6 * team.outside_master_socket_fraction,
        )
        work = plan.per_thread_work + plan.per_thread_overhead
        # region open/close once per repetition
        sync_overhead = (
            ctx.sync_cost.fork_cost(team)
            + ctx.sync_cost.join_cost(team)
            + plan.imbalance_tail
        )
        return plan, work, sync_overhead, ctx.sync_cost.barrier_cost(team)

    def measure(
        self, ex: RegionExecutor, kind: ScheduleKind, chunk: int | None = None
    ) -> list[ScheduleMeasurement]:
        """Measure one schedule for every run of *ex* (outer_reps
        repetitions each); one measurement per run.

        Bound teams draw each run's SMT jitter for all repetitions up
        front; unbound teams (one run per executor) re-place and draw
        repetition by repetition.
        """
        p = self.params
        ctx = ex.runs[0]
        team = ctx.team
        bound = team.bound
        streams = RepStreams(
            tuple(run.stream("schedbench", kind.value, chunk) for run in ex.runs)
        )
        noise_mode = (
            NoiseMode.MAX if kind is ScheduleKind.STATIC else NoiseMode.BALANCED
        )
        sigma = p.smt_rep_jitter
        if bound:
            plan, work0, sync_overhead, barrier = self._region_shape(
                ctx, team, kind, chunk
            )
            jittered = team.uses_smt and sigma > 0
            if jittered:
                jitters = streams.lognormal(
                    mean=-0.5 * sigma**2, sigma=sigma, size=p.outer_reps
                )
            wake_delays = np.asarray([run.fork.wake_delays for run in ex.runs])
        else:
            (rng,) = streams.generators

        rep_times = np.empty((ex.n_runs, p.outer_reps))
        for rep in range(p.outer_reps):
            if bound:
                work = work0 * jitters[:, rep][:, None] if jittered else work0
            else:
                ctx.refork_unbound(rng)
                team = ctx.team
                plan, work, sync_overhead, barrier = self._region_shape(
                    ctx, team, kind, chunk
                )
                if team.uses_smt and sigma > 0:
                    work = work * rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma)
                wake_delays = ctx.fork.wake_delays

            # the queue bound is uncore-limited; scale it with the live
            # frequency the same way compute is scaled
            queue_floor: np.ndarray | float = 0.0
            if plan.queue_serialization > 0.0:
                queue_floor = plan.queue_serialization * (
                    ctx.freq_plan.calibration_hz / ex.master_freq(team)
                )

            result = ex.execute(
                team,
                work,
                noise_mode=noise_mode,
                sync_overhead=sync_overhead,
                queue_floor=queue_floor,
                wake_delays=wake_delays if rep == 0 or not bound else None,
                stacking_episodes=() if bound else ctx.fork.episodes,
                barrier_cost=barrier,
                smt_efficiency=p.smt_efficiency,
            )
            duration = result.duration
            rep_times[:, rep] = duration
            ex.advance(duration + p.rep_gap)

        return [
            ScheduleMeasurement(kind=kind, chunk=chunk, rep_times=times)
            for times in rep_times
        ]

    def horizon_estimate(self, n_threads: int) -> float:
        """Rough single-schedule run duration for horizon sizing."""
        p = self.params
        per_rep = p.itersperthr * p.delay_time * 1.6 + p.rep_gap
        return p.outer_reps * per_rep + 1.0
