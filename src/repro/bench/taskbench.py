"""``taskbench``: EPCC-taskbench-style tasking micro-benchmark.

Each outer repetition opens a parallel region, has the master generate one
task workload (a ``taskloop`` bag, a recursive fib tree, or EPCC's flat
master-generated bag), lets the work-stealing scheduler run it to
quiescence, and closes the region — timing the whole construct, exactly
like EPCC times its ``PARALLEL TASK`` patterns.  Alongside the repetition
times the benchmark records the scheduler's internals (steal counts,
failed-steal counts, idle fraction), which is what the tasking experiments
characterize: random victim selection makes these the runtime's
irreproducible decisions on real hardware, and their dispersion is a
variability source the worksharing benchmarks cannot expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bench.epcc.common import require_finite, require_integers
from repro.errors import BenchmarkError
from repro.omp.runtime import RunContext
from repro.omp.tasking.scheduler import TaskRunStats, WorkStealingScheduler
from repro.omp.tasking.task import Task
from repro.omp.tasking.workloads import fib_tasks, taskloop_tasks, uniform_tasks
from repro.units import us

#: Workload patterns taskbench knows how to generate.
PATTERNS = ("taskloop", "fib", "uniform")


@dataclass(frozen=True)
class TaskbenchParams:
    """Parameters of the tasking micro-benchmark.

    ``pattern`` selects the workload family:

    * ``taskloop`` — ``total_iters`` iterations of ``iter_work`` chunked by
      ``grainsize`` *or* ``num_tasks`` (both unset: ``2 x team size``
      chunks, a libomp-style default), with a deterministic ``imbalance``
      work ramp across the iteration space;
    * ``fib`` — the ``fib(fib_n)`` divide-and-conquer tree
      (``fib_cutoff`` sets the serial cutoff);
    * ``uniform`` — ``n_tasks`` equal tasks of ``task_work`` generated by
      the master (EPCC's parallel-task-generation pattern).
    """

    outer_reps: int = 50
    pattern: str = "taskloop"
    total_iters: int = 512
    iter_work: float = us(2.0)
    grainsize: int | None = None
    num_tasks: int | None = None
    imbalance: float = 0.6
    fib_n: int = 12
    fib_leaf_work: float = us(4.0)
    fib_node_work: float = us(0.4)
    fib_cutoff: int = 2
    n_tasks: int = 128
    task_work: float = us(5.0)
    rep_gap: float = us(200.0)

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.outer_reps <= 0:
            raise BenchmarkError("outer_reps must be positive")
        if self.pattern not in PATTERNS:
            raise BenchmarkError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}"
            )
        if self.grainsize is not None and self.num_tasks is not None:
            raise BenchmarkError(
                "grainsize and num_tasks are mutually exclusive "
                "(like the taskloop clauses)"
            )
        if self.total_iters <= 0 or self.n_tasks <= 0:
            raise BenchmarkError("iteration/task counts must be positive")
        if min(self.iter_work, self.fib_leaf_work, self.fib_node_work,
               self.task_work, self.rep_gap) < 0:
            raise BenchmarkError("work/gap parameters must be non-negative")
        if not 0.0 <= self.imbalance < 1.0:
            raise BenchmarkError("imbalance must be in [0, 1)")
        if self.fib_n < 0 or self.fib_cutoff < 1:
            raise BenchmarkError("invalid fib parameters")

    def label(self, n_threads: int) -> str:
        """Paper-style series label, e.g. ``taskloop_g8`` / ``fib_12``."""
        if self.pattern == "taskloop":
            if self.grainsize is not None:
                return f"taskloop_g{self.grainsize}"
            return f"taskloop_nt{self._effective_num_tasks(n_threads)}"
        if self.pattern == "fib":
            return f"fib_{self.fib_n}"
        return f"uniform_{self.n_tasks}"

    def _effective_num_tasks(self, n_threads: int) -> int:
        if self.num_tasks is not None:
            return self.num_tasks
        return min(self.total_iters, 2 * n_threads)

    def build_workload(self, n_threads: int) -> tuple[Task, ...]:
        """The (deterministic) task graph one repetition executes."""
        if self.pattern == "taskloop":
            if self.grainsize is not None:
                return taskloop_tasks(
                    self.total_iters, self.iter_work,
                    grainsize=self.grainsize, imbalance=self.imbalance,
                )
            return taskloop_tasks(
                self.total_iters, self.iter_work,
                num_tasks=self._effective_num_tasks(n_threads),
                imbalance=self.imbalance,
            )
        if self.pattern == "fib":
            return (
                fib_tasks(
                    self.fib_n, self.fib_leaf_work, self.fib_node_work,
                    cutoff=self.fib_cutoff,
                ),
            )
        return uniform_tasks(self.n_tasks, self.task_work)


class Taskbench:
    """The taskbench driver; one instance is reusable across runs."""

    params_type = TaskbenchParams

    def __init__(self, params: TaskbenchParams | None = None):
        self.params = params if params is not None else TaskbenchParams()
        self._workloads: dict[int, tuple[Task, ...]] = {}

    def horizon(self, n_threads: int) -> float:
        """A generous run duration for horizon sizing, with 1.5x slack."""
        p = self.params
        workload = self._workload(n_threads)
        total_work = sum(t.total_work() for t in workload)
        total_tasks = sum(t.count() for t in workload)
        # critical path >= total/n; add per-task overhead and sync slack
        per_rep = (
            total_work / max(1, n_threads) * 4.0
            + total_tasks * us(2.0)
            + p.rep_gap
            + us(50.0)
        )
        return (p.outer_reps * per_rep + 1.0) * 1.5

    def series(self, runs: Sequence[RunContext]) -> list[dict[str, np.ndarray]]:
        """Run :meth:`measure` on each run of *runs*, one after another."""
        return [self.measure(ctx) for ctx in runs]

    def _workload(self, n_threads: int) -> tuple[Task, ...]:
        """:meth:`TaskbenchParams.build_workload`, built once per team size."""
        workload = self._workloads.get(n_threads)
        if workload is None:
            workload = self.params.build_workload(n_threads)
            self._workloads[n_threads] = workload
        return workload

    def run_rep(self, ctx: RunContext, rep: int) -> tuple[float, TaskRunStats]:
        """Fork the team at the cursor and run repetition *rep*'s task graph
        to quiescence; returns the fork cost and the scheduler's outcome.

        Thread ``i`` draws from the run's stream
        ``("taskbench", label, "rep", rep, "thread", i)``.  The caller
        closes the region and moves the cursor.
        """
        team = ctx.team
        n = team.n_threads
        rep_rng = ctx.rng.child("taskbench", self.params.label(n), "rep", rep)
        streams = [rep_rng.stream("thread", i) for i in range(n)]
        tracer = ctx.tracer
        scheduler = WorkStealingScheduler(
            team,
            ctx.runtime.task_cost,
            ctx.freq_plan,
            ctx.noise_batch,
            streams,
            tracer=tracer,
        )
        fork = ctx.sync_cost.fork_cost(team)
        if tracer.enabled:
            tracer.span(
                0, "parallel.fork", ctx.t, ctx.t + fork, cat="omp",
                args={"rep": rep, "n_threads": n},
            )
        return fork, scheduler.run(self._workload(n), t_start=ctx.t + fork)

    def measure(self, ctx: RunContext) -> dict[str, np.ndarray]:
        """Execute ``outer_reps`` task-region repetitions along the run.

        Returns the repetition times under the workload's label, then the
        scheduler's steals, failed steals and idle fraction per
        repetition under ``<label>.steals``, ``<label>.failed_steals``
        and ``<label>.idle_frac``.
        """
        p = self.params
        label = p.label(ctx.team.n_threads)
        refork_rng = ctx.stream("taskbench", label, "refork")
        tracer = ctx.tracer
        tracing = tracer.enabled  # hoisted once; the null path pays one bool test

        rep_times = np.empty(p.outer_reps)
        steals = np.empty(p.outer_reps)
        failed = np.empty(p.outer_reps)
        idle = np.empty(p.outer_reps)
        for rep in range(p.outer_reps):
            if not ctx.team.bound:
                ctx.refork_unbound(refork_rng)
            team = ctx.team
            fork, run_stats = self.run_rep(ctx, rep)
            duration = fork + run_stats.makespan + ctx.sync_cost.join_cost(team)
            if tracing:
                # the region's closing join: implicit barrier decomposition
                ctx.sync_cost.trace_barrier(
                    tracer, 0, ctx.t + fork + run_stats.makespan, team,
                    name="parallel.join",
                )
            rep_times[rep] = duration
            steals[rep] = run_stats.total_steals
            failed[rep] = run_stats.total_failed_steals
            idle[rep] = run_stats.idle_fraction
            ctx.advance(duration + p.rep_gap)

        return {
            label: rep_times,
            f"{label}.steals": steals,
            f"{label}.failed_steals": failed,
            f"{label}.idle_frac": idle,
        }
