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

import numbers
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.bench.epcc.common import (
    parse_entries,
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

    ``schedules`` lists the ``[kind, chunk]`` pairs measured, in order
    (e.g. ``[["dynamic", 1], ["static", None]]``); ``None`` measures the
    run's ``OMP_SCHEDULE`` alone.
    """

    outer_reps: int = 100
    delay_time: float = us(15.0)
    itersperthr: int = 8192
    test_time: float = us(1000.0)  # kept for interface parity with EPCC
    rep_gap: float = us(200.0)
    smt_efficiency: float = 1.0
    smt_rep_jitter: float = 0.025
    schedules: tuple[tuple[ScheduleKind, int | None], ...] | None = None

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
        if self.schedules is not None:
            kinds = "/".join(k.value for k in ScheduleKind)
            object.__setattr__(self, "schedules", parse_entries(
                "schedules", self.schedules,
                f"[kind, chunk] pairs (kind {kinds}, chunk null or a positive integer)",
                _schedule,
            ))


def _schedule(entry: Any) -> tuple[ScheduleKind, int | None]:
    """One ``[kind, chunk]`` pair of :attr:`SchedbenchParams.schedules`."""
    if not isinstance(entry, (list, tuple)):
        raise TypeError(entry)
    kind, chunk = entry
    if chunk is None:
        return ScheduleKind(kind), None
    if isinstance(chunk, bool) or not isinstance(chunk, numbers.Integral) or chunk < 1:
        raise ValueError(chunk)
    return ScheduleKind(kind), int(chunk)


class Schedbench:
    """The schedbench driver; one instance is reusable across runs."""

    params_type = SchedbenchParams

    def __init__(self, params: SchedbenchParams | None = None):
        self.params = params if params is not None else SchedbenchParams()

    def horizon(self, n_threads: int) -> float:
        """Run duration for horizon sizing, per schedule plus half a
        schedule."""
        p = self.params
        per_rep = p.itersperthr * p.delay_time * 1.6 + p.rep_gap
        n_schedules = 1 if p.schedules is None else len(p.schedules)
        return (p.outer_reps * per_rep + 1.0) * (n_schedules + 0.5)

    def series(self, runs: Sequence[RunContext]) -> list[dict[str, np.ndarray]]:
        """Measure every schedule on the runs *runs*, in order; per run,
        each schedule's repetition times under its paper-style label
        (``static``, ``dynamic_1``)."""
        ex = RegionExecutor(runs)
        schedules = self.params.schedules
        if schedules is None:
            env = ex.runs[0].runtime.env
            schedules = ((env.schedule, env.schedule_chunk),)
        rows: list[dict[str, np.ndarray]] = [{} for _ in ex.runs]
        for kind, chunk in schedules:
            label = kind.value if chunk is None else f"{kind.value}_{chunk}"
            for row, times in zip(rows, self._measure(ex, kind, chunk)):
                row[label] = times
        return rows

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

    def _measure(
        self, ex: RegionExecutor, kind: ScheduleKind, chunk: int | None
    ) -> np.ndarray:
        """Measure one schedule for every run of *ex*: the ``(runs,
        outer_reps)`` repetition times.

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

        return rep_times
