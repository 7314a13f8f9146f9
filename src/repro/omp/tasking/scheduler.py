"""The work-stealing task scheduler.

:class:`WorkStealingScheduler` executes one task graph on a resolved
:class:`~repro.omp.team.Team` as one flat discrete-event loop: a heap of
``(time, seq, thread)`` wake-ups plus a per-thread *phase* saying which
step of the worker loop the thread resumes at.  The model follows the
LLVM/libomp runtime:

* each thread owns a :class:`collections.deque` of tasks; the owner
  pushes and pops LIFO at the right end (freshest task first, which keeps
  divide-and-conquer working sets cache-hot), thieves take FIFO from the
  left end (the oldest task, in recursive workloads the largest remaining
  subtree);
* an out-of-work thread scans the other team members in *random order*
  (drawn from its own named RNG stream — the paper's class of
  irreproducible runtime decisions, made reproducible here by seeding)
  and steals from the first non-empty deque it probes;
* every empty probe costs a cache-line read, and a fully failed scan
  triggers an exponential backoff — bounding both interconnect traffic
  and simulation events, the way libomp's thieves yield after a fruitless
  pass over the team;
* every runtime operation is priced by a
  :class:`~repro.omp.tasking.params.TaskCostModel`, so steals slow down
  when the team spans NUMA domains or sockets;
* task *bodies* execute against the run's frequency plan
  (cycle-accurate rescaling through the per-CPU trace) and absorb the OS
  noise stolen from their CPU during the body window, one window at a
  time through the run's noise batch, with SMT sharing derating
  throughput — the same physical substrate the worksharing executor
  uses.

Simultaneous wake-ups run in the order they were queued (``seq`` is a
push counter, FIFO within a timestamp) and every random decision draws
from a named per-thread stream, so a given (team, graph, streams) triple
always yields the identical schedule — bit-equal across serial and
process-pool execution.

The loop is armed with a ``max_events`` runaway guard sized from the
graph, so a scheduling bug (e.g. a termination-detection error that leaves
thieves spinning) raises :class:`~repro.errors.SimulationError` instead of
hanging the harness; so does a non-finite or negative delay, before it is
queued.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from math import inf
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.freq.dvfs import FrequencyPlan
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.omp.tasking.params import TaskCostModel
from repro.omp.tasking.task import Task
from repro.omp.team import Team
from repro.osnoise.model import NoiseBatch

# Worker-loop phases: where a thread resumes when its wake-up is popped.
_TOP = 0  # loop head: pop, steal or back off
_SPAWN = 1  # a task was just taken: push its children (if any)
_BODY = 2  # start the task body
_DONE = 3  # the body finished: retire the task, then back to the loop head


@dataclass(frozen=True, slots=True)
class TaskRunStats:
    """Outcome of one task-graph execution."""

    t_start: float
    t_end: float
    total_tasks: int
    tasks_executed: np.ndarray = field(compare=False)
    steals: np.ndarray = field(compare=False)
    failed_steals: np.ndarray = field(compare=False)
    idle_time: np.ndarray = field(compare=False)
    overhead_time: np.ndarray = field(compare=False)
    busy_time: np.ndarray = field(compare=False)
    events_executed: int = 0

    @property
    def makespan(self) -> float:
        return self.t_end - self.t_start

    @property
    def n_threads(self) -> int:
        return int(self.tasks_executed.size)

    @property
    def total_steals(self) -> int:
        return int(self.steals.sum())

    @property
    def total_failed_steals(self) -> int:
        return int(self.failed_steals.sum())

    @property
    def failed_steal_rate(self) -> float:
        """Empty fraction of all deque probes (0 when none were made).

        ``failed_steals`` counts individual empty probes (several per scan),
        so this is the probability a thief's probe found nothing.
        """
        attempts = self.total_steals + self.total_failed_steals
        return self.total_failed_steals / attempts if attempts else 0.0

    @property
    def idle_fraction(self) -> float:
        """Share of total thread-time spent looking for work."""
        span = self.makespan * self.n_threads
        return float(self.idle_time.sum()) / span if span > 0 else 0.0


class WorkStealingScheduler:
    """Executes task graphs for one team against one run's realization.

    Parameters
    ----------
    team:
        The resolved thread team (thread ``i`` runs on ``team.cpus[i]``).
    cost_model:
        Prices for the runtime operations.
    freq_plan / noise:
        The run's frequency traces, and its OS noise as a one-run
        :class:`~repro.osnoise.model.NoiseBatch`, whose row *c* is CPU
        *c* (task bodies are rescaled through the traces and extended by
        :meth:`~repro.osnoise.model.NoiseBatch.stolen`; runtime operations
        are treated as uncore-bound wall time).
    streams:
        One :class:`numpy.random.Generator` per thread — victim selection
        and per-task work jitter draw from thread ``i``'s own stream, so
        adding draws to one thread never perturbs another.
    max_events:
        Lifetime cap on the loop's wake-ups (runaway guard); ``None``
        sizes it from the graph (see :meth:`run`).
    tracer:
        Observability sink (docs/observability.md).  With the default
        :data:`~repro.obs.tracer.NULL_TRACER` every emission site is a
        single pre-hoisted boolean test; with a
        :class:`~repro.obs.tracer.SpanTracer` the scheduler records task
        bodies, spawns, pops, steals and backoff idling as per-thread
        spans plus queue-depth / busy-thread counter tracks, and one
        coarse ``engine.run`` span per episode.  Tracing never touches
        the RNG streams, so traced and untraced schedules are identical.
    """

    __slots__ = (
        "team",
        "cost_model",
        "freq_plan",
        "noise",
        "streams",
        "max_events",
        "tracer",
        "_victims",
    )

    def __init__(
        self,
        team: Team,
        cost_model: TaskCostModel,
        freq_plan: FrequencyPlan,
        noise: NoiseBatch,
        streams: Sequence[np.random.Generator],
        max_events: int | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if len(streams) != team.n_threads:
            raise ConfigurationError(
                f"need one RNG stream per thread: got {len(streams)} "
                f"for {team.n_threads} threads"
            )
        self.team = team
        self.cost_model = cost_model
        self.freq_plan = freq_plan
        self.noise = noise
        self.streams = list(streams)
        self.max_events = max_events
        self.tracer = tracer
        self._victims = _victim_orders(team.n_threads)

    def _default_cap(self, total_tasks: int) -> int:
        """Generous event budget: ~3 events per task + steal-loop slack."""
        return 10_000 + 40 * total_tasks + 4_000 * self.team.n_threads

    # -- execution -----------------------------------------------------------

    def run(
        self,
        tasks: Task | Sequence[Task],
        t_start: float = 0.0,
        initial_owner: int = 0,
    ) -> TaskRunStats:
        """Execute *tasks* (a root task or a flat bag) to quiescence.

        The initial tasks are pushed into ``initial_owner``'s deque (the
        encountering thread — thread 0 for a ``single``-generated bag),
        every thread enters the scheduling loop at *t_start*, and the
        region ends when the last task body completes.

        Each wake-up runs one worker step — the code between two waits of
        a thread — and queues the thread's next wake-up after that step's
        simulated cost.  Task bodies are rescaled through the CPU's
        frequency trace, then extended by the OS time stolen inside the
        compute window (noise falling into the extension itself is
        neglected — bodies are short against the noise processes).
        """
        initial = (tasks,) if isinstance(tasks, Task) else tuple(tasks)
        if not initial:
            raise ConfigurationError("task graph is empty")
        team = self.team
        n = team.n_threads
        if not 0 <= initial_owner < n:
            raise ConfigurationError(
                f"initial owner {initial_owner} outside team of {n}"
            )
        total_tasks = sum(t.count() for t in initial)
        cap = (
            self.max_events
            if self.max_events is not None
            else self._default_cap(total_tasks)
        )

        # owner: append and pop at the right end; thieves: popleft
        deques = [deque() for _ in range(n)]
        deques[initial_owner].extend(initial)
        outstanding = queued = len(initial)
        running = 0
        t_done = t_start

        tasks_executed = [0] * n
        steals = [0] * n
        failed = [0] * n
        idle = [0.0] * n
        overhead = [0.0] * n
        busy = [0.0] * n

        cost_model = self.cost_model
        pop_cost = cost_model.pop_cost(team)
        create_cost = cost_model.create_cost(team)
        steal_cost = cost_model.steal_cost(team)
        failed_cost = cost_model.failed_steal_cost(team)
        backoff = cost_model.backoff
        smt_efficiency = cost_model.params.smt_efficiency
        jitter_sigma = cost_model.params.work_jitter_sigma
        jitter_mean = -0.5 * jitter_sigma**2
        jittered = jitter_sigma > 0.0
        scan = self._scan_victims
        rngs = self.streams
        # per-thread body substrate, resolved once per episode
        calibration_hz = self.freq_plan.calibration_hz
        invert = [tr.invert_integral for tr in self.freq_plan.traces_for(team.cpus)]
        stolen = [self.noise.stolen(cpu) for cpu in team.cpus]
        smt_shared = [bool(s) for s in team.smt_shared]
        tracer = self.tracer
        tracing = tracer.enabled  # hoisted once: the null path pays one bool test

        phase = [_TOP] * n
        current: list[Task | None] = [None] * n
        failed_scans = [0] * n
        now = float(t_start)
        # every thread enters the loop at t_start, in thread order
        heap = [(now, i, i) for i in range(n)]
        seq = n
        executed = 0
        while heap:
            if executed >= cap:
                raise SimulationError(
                    f"scheduler event cap exceeded ({cap} events executed, "
                    f"{len(heap)} still pending at t={now!r}); likely a "
                    f"runaway steal loop"
                )
            now, _, i = heappop(heap)
            executed += 1
            step = phase[i]
            if step == _SPAWN:
                children = current[i].children
                if children:
                    deques[i].extend(children)
                    outstanding += len(children)
                    queued += len(children)
                    delay = len(children) * create_cost
                    overhead[i] += delay
                    if tracing:
                        tracer.span(
                            i, "task.spawn", now, now + delay, cat="task",
                            args={"children": len(children)},
                        )
                        tracer.counter("queued_tasks", now, queued)
                    phase[i] = _BODY
                else:
                    step = _BODY  # no children: the body starts right away
            if step == _BODY:
                work = current[i].work
                if jittered and work > 0.0:
                    work *= float(
                        rngs[i].lognormal(mean=jitter_mean, sigma=jitter_sigma)
                    )
                if work > 0:
                    if smt_shared[i]:
                        work = work / smt_efficiency
                    delay = invert[i](now, work * calibration_hz) - now
                    delay += stolen[i](now, now + delay)
                else:
                    delay = 0.0
                busy[i] += delay
                if tracing:
                    tracer.span(i, "task.body", now, now + delay, cat="task")
                    running += 1
                    tracer.counter("busy_threads", now, running)
                phase[i] = _DONE
            elif step != _SPAWN:
                # _DONE retires the body, then falls through to the loop head
                if step == _DONE:
                    tasks_executed[i] += 1
                    outstanding -= 1
                    if tracing:
                        running -= 1
                        tracer.counter("busy_threads", now, running)
                    if outstanding == 0:
                        t_done = now
                    elif outstanding < 0:  # pragma: no cover - invariant
                        raise SimulationError("task accounting went negative")
                if outstanding <= 0:
                    continue  # the team is drained: this thread leaves
                if deques[i]:
                    failed_scans[i] = 0
                    current[i] = deques[i].pop()
                    queued -= 1
                    delay = pop_cost
                    overhead[i] += delay
                    if tracing:
                        tracer.span(
                            i, "deque.pop", now, now + delay, cat="task",
                        )
                        tracer.counter("queued_tasks", now, queued)
                    phase[i] = _SPAWN
                else:
                    # out of local work: probe the other deques in random
                    # order and take from the first non-empty one
                    victim, empty_probes = scan(i, deques, rngs[i], queued)
                    failed[i] += empty_probes
                    if victim is not None:
                        failed_scans[i] = 0
                        current[i] = deques[victim].popleft()
                        queued -= 1
                        steals[i] += 1
                        delay = empty_probes * failed_cost + steal_cost
                        overhead[i] += delay
                        if tracing:
                            tracer.span(
                                i, "steal", now, now + delay, cat="task",
                                args={
                                    "victim": victim,
                                    "empty_probes": empty_probes,
                                },
                            )
                            tracer.counter("queued_tasks", now, queued)
                        phase[i] = _SPAWN
                    else:
                        failed_scans[i] += 1
                        delay = empty_probes * failed_cost + backoff(
                            failed_scans[i]
                        )
                        idle[i] += delay
                        if tracing:
                            tracer.span(
                                i, "idle.backoff", now, now + delay,
                                cat="task",
                                args={
                                    "empty_probes": empty_probes,
                                    "failed_scans": failed_scans[i],
                                },
                            )
                        phase[i] = _TOP
            if not 0.0 <= delay < inf:  # catches nan too
                raise SimulationError(
                    f"worker-{i} produced non-finite or negative delay "
                    f"{delay!r} at t={now!r}"
                )
            heappush(heap, (now + delay, seq, i))
            seq += 1

        if tracing:
            tracer.span(
                0, "engine.run", float(t_start), now, cat="engine",
                args={"events": executed, "pending": 0},
            )
        if outstanding != 0:  # pragma: no cover - defensive
            raise SimulationError(
                f"scheduler quiesced with {outstanding} tasks outstanding"
            )
        return TaskRunStats(
            t_start=t_start,
            t_end=t_done,
            total_tasks=total_tasks,
            tasks_executed=np.asarray(tasks_executed, dtype=np.int64),
            steals=np.asarray(steals, dtype=np.int64),
            failed_steals=np.asarray(failed, dtype=np.int64),
            idle_time=np.asarray(idle, dtype=np.float64),
            overhead_time=np.asarray(overhead, dtype=np.float64),
            busy_time=np.asarray(busy, dtype=np.float64),
            events_executed=executed,
        )

    def _scan_victims(
        self,
        thief: int,
        deques: Sequence,
        rng: np.random.Generator,
        queued: int = 1,
    ) -> tuple[int | None, int]:
        """One steal scan: probe the other threads in uniform random order.

        *deques* holds one entry per thread whose truth value says whether
        that thread's deque has a task (:meth:`run` passes its
        :class:`collections.deque` objects, so a probe is a C-level truth
        test).

        Returns ``(victim, empty_probes)`` — the first thread found with a
        non-empty deque (``None`` when every probe came up empty) and the
        number of empty deques probed before stopping.  The first victim
        probed is uniform over the team, so a lone producer is found after
        ``(n-1)/2`` empty probes in expectation rather than the geometric
        tail a probe-one-then-backoff thief would suffer.

        *queued* is the scheduler's count of tasks currently sitting in any
        deque.  The visit order is **always** drawn (RNG draw order per
        thread stream is the determinism contract — see
        ``docs/performance.md``), but when the caller knows every deque is
        empty the probe loop is skipped: the outcome is forced to the
        all-probes-empty result the loop would have produced.
        """
        order = list(self._victims[thief])
        if not order:  # a team of one has nobody to probe
            return None, 0
        # Fisher-Yates over the other threads: the same draws, and the same
        # visit order, as mapping ``rng.permutation(n - 1)`` onto them
        rng.shuffle(order)
        if queued <= 0:  # nothing stealable anywhere: every probe would miss
            return None, len(order)
        for empty_probes, victim in enumerate(order):
            if deques[victim]:
                return victim, empty_probes
        return None, len(order)


@lru_cache(maxsize=16)  # O(n^2) entries per team size: keep a few sizes
def _victim_orders(n: int) -> tuple[tuple[int, ...], ...]:
    """Per thief of an *n*-thread team, the other threads in thread order."""
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))
