"""Parallel-region execution.

:class:`RegionExecutor` computes how long one barrier-terminated parallel
region takes on the simulated node, combining:

* per-thread **work** (seconds at the platform's calibration frequency,
  rescaled through each CPU's live frequency trace),
* **SMT sharing** between teammates (MT configuration) — shared cores
  retire each thread's work at :attr:`RegionParams.smt_efficiency` of a
  full core,
* **OS noise** — preemption intervals on each thread's CPU, aggregated
  according to the region's :class:`NoiseMode`:

  - ``MAX``: one barrier at the end; only the slowest thread's noise
    matters (static loops, stream kernels);
  - ``SYNC_SUM``: the region body synchronizes continuously (EPCC
    syncbench's inner loop) so every preemption anywhere lands on the
    critical path, scaled by ``sync_noise_kappa``;
  - ``BALANCED``: dynamic scheduling redistributes work around a stalled
    thread; the team absorbs noise at ``total / n``;

* **sibling pressure** — OS work on an SMT sibling slows the thread by
  :attr:`RegionParams.smt_noise_penalty` for the overlap duration,
* **scheduler artifacts** for unbound teams — per-thread wake delays and
  stacking episodes (time-sharing a CPU until the balancer resolves it),
* a **queue-serialization floor** for dynamic/guided loops, and
* a terminating **barrier cost**.

The computation is a two-pass fixed point: duration determines how much
noise falls in the window, which extends the duration.

Every region is evaluated over a *rep axis*: ``R`` runs of one
configuration that share a team, each with its own time cursor, noise
realization and frequency plan, as ``(R,)``- and ``(R, n)``-shaped arrays.
A single run is the ``R = 1`` case of the same code.  Each row reproduces
the per-run arithmetic bit for bit: elementwise operations are identical,
and a row reduction over a C-contiguous ``(R, n)`` array runs through the
same pairwise-summation tree as a standalone ``(n,)`` array.  Noise
windows are exact int64-nanosecond prefix-sum queries on each run's
per-CPU noise planes (:meth:`~repro.osnoise.model.NoiseRealization.stolen_plane`),
queried in place with the team's CPUs as rows after the run is asked to
cover the window end, so a re-placed team rebuilds no noise plane.
Frequency queries go through :class:`~repro.freq.dvfs.FrequencyPlanBatch`,
rebuilt only when the team's cpuset changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.freq.dvfs import FrequencyPlanBatch
from repro.omp.team import Team
from repro.sched.balancer import StackingEpisode

if TYPE_CHECKING:  # pragma: no cover
    from repro.omp.runtime import RunContext


class NoiseMode(enum.Enum):
    """How OS preemptions aggregate onto the region's critical path."""

    MAX = "max"
    SYNC_SUM = "sync_sum"
    BALANCED = "balanced"


@dataclass(frozen=True)
class RegionParams:
    """Execution-model constants.

    ``smt_efficiency`` is the *default* per-thread throughput factor when
    two teammates share a core; it is workload-dependent (a throughput-
    bound kernel sees ~0.6, the latency-bound EPCC delay loop ~0.95+), so
    benchmarks may override it per region via
    :meth:`RegionExecutor.execute`.
    """

    smt_efficiency: float = 0.62
    smt_noise_penalty: float = 0.35
    sync_noise_kappa: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.smt_efficiency <= 1.0:
            raise ConfigurationError("smt_efficiency outside (0, 1]")
        if not 0.0 <= self.smt_noise_penalty <= 1.0:
            raise ConfigurationError("smt_noise_penalty outside [0, 1]")
        if not 0.0 <= self.sync_noise_kappa <= 1.0:
            raise ConfigurationError("sync_noise_kappa outside [0, 1]")


@dataclass(frozen=True, eq=False)
class RegionResult:
    """Outcome of one region execution, one entry per run: ``(R,)``
    arrays, except ``per_thread_end`` which is ``(R, n)``."""

    start: np.ndarray
    end: np.ndarray
    per_thread_end: np.ndarray
    noise_seconds: np.ndarray
    stacking_seconds: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start


class RegionExecutor:
    """Executes regions for ``R`` runs that share a team.

    The time cursor of run ``r`` is ``runs[r].t``: :meth:`execute` starts
    every region at the runs' cursors and :meth:`advance` moves them.
    Bound teams batch every run of a configuration; unbound teams, which
    re-place per repetition, batch one run (``R = 1``).
    """

    def __init__(self, runs: Sequence["RunContext"]):
        if not runs:
            raise ConfigurationError("a region executor needs at least one run")
        self.runs = tuple(runs)
        self.params: RegionParams = self.runs[0].runtime.platform.region_params
        self._plans = [ctx.freq_plan for ctx in self.runs]
        self._noises = [ctx.noise for ctx in self.runs]
        self._cpus: tuple[int, ...] | None = None

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def t(self) -> np.ndarray:
        """Per-run time cursors, ``(R,)``."""
        return np.asarray([ctx.t for ctx in self.runs], dtype=np.float64)

    def advance(self, dt: np.ndarray | float) -> None:
        """Move every run's cursor by its entry of *dt*."""
        steps = np.broadcast_to(np.asarray(dt, dtype=np.float64), (self.n_runs,))
        for ctx, step in zip(self.runs, steps.tolist()):
            ctx.advance(step)

    # -- rep-axis planes ------------------------------------------------------

    def _use_team(self, team: Team) -> None:
        """Point the frequency planes at *team*'s cpuset (rebuilt on change).

        The noise planes have a row per machine CPU, so a new cpuset only
        changes which rows are queried.  Sibling pressure only matters
        where the SMT sibling is not a teammate, so only those threads'
        rows are queried in the sibling plane.
        """
        if team.cpus == self._cpus:
            return
        self._cpus = team.cpus
        self._team_freq: FrequencyPlanBatch | None = None
        self._master_freq: FrequencyPlanBatch | None = None
        self._rows = np.asarray(team.cpus, dtype=np.int64)
        self._sib_cols = np.flatnonzero(~np.asarray(team.smt_shared, dtype=bool))
        self._sib_rows = self._rows[self._sib_cols]

    def _team_plane(self, team: Team) -> FrequencyPlanBatch:
        self._use_team(team)
        if self._team_freq is None:
            self._team_freq = FrequencyPlanBatch(self._plans, team.cpus)
        return self._team_freq

    def _master_plane(self, team: Team) -> FrequencyPlanBatch:
        self._use_team(team)
        if self._master_freq is None:
            self._master_freq = FrequencyPlanBatch(self._plans, [team.master_cpu])
        return self._master_freq

    def master_freq(self, team: Team) -> np.ndarray:
        """Per-run frequency of *team*'s master CPU at the cursor, ``(R,)``."""
        return self._master_plane(team).freq_at_fused(self.t[:, None])[:, 0]

    @staticmethod
    def _durations(
        plane: FrequencyPlanBatch, starts: np.ndarray, cycles: np.ndarray
    ) -> np.ndarray:
        """``plans[r].duration_for_cycles(cpus[i], starts[r, i], cycles[r, i])``
        per entry: the batched first-segment pass, with the per-run
        reference answering the entries that span trace segments."""
        durations, resolved = plane.duration_for_cycles_fused(starts, cycles)
        if not resolved.all():
            cols = starts.shape[1]
            flat_d = durations.reshape(-1)
            flat_s = starts.reshape(-1)
            flat_c = cycles.reshape(-1)
            for k in np.flatnonzero(~resolved.reshape(-1)).tolist():
                run, col = divmod(k, cols)
                flat_d[k] = plane.duration_for_cycles_scalar(
                    run, col, float(flat_s[k]), float(flat_c[k])
                )
        return durations

    @staticmethod
    def _stacking(
        episodes: tuple[StackingEpisode, ...],
        starts: np.ndarray,
        window_end: np.ndarray,
    ) -> np.ndarray:
        """Extra wall time each thread loses to time-sharing in its window,
        accumulated episode by episode in order."""
        stacking = np.zeros(starts.shape)
        for ep in episodes:
            i = ep.thread
            overlap = np.minimum(window_end, ep.end) - np.maximum(starts[:, i], ep.start)
            stacking[:, i] += np.where(
                overlap > 0, overlap * (ep.slowdown_factor() - 1.0), 0.0
            )
        return stacking

    # -- main entry point --------------------------------------------------------

    def execute(
        self,
        team: Team,
        work_seconds: np.ndarray,
        *,
        noise_mode: NoiseMode = NoiseMode.MAX,
        sync_overhead: np.ndarray | float = 0.0,
        queue_floor: np.ndarray | float = 0.0,
        wake_delays: np.ndarray | None = None,
        stacking_episodes: tuple[StackingEpisode, ...] = (),
        barrier_cost: float = 0.0,
        freq_sensitive: bool = True,
        smt_efficiency: float | None = None,
    ) -> RegionResult:
        """Execute one parallel region of *team* at every run's cursor.

        Parameters
        ----------
        work_seconds:
            Per-thread loop-body work at calibration frequency, ``(n,)``
            (the same for every run) or ``(R, n)``.
        sync_overhead:
            Critical-path synchronization time (construct costs x
            iterations), also frequency-rescaled; scalar or ``(R,)``.
        queue_floor:
            Makespan lower bound from the dynamic-schedule queue; scalar
            or ``(R,)``.
        wake_delays:
            Per-thread start delays, ``(n,)`` or ``(R, n)``.
        stacking_episodes:
            Time-sharing episodes of an unbound fork (``R = 1``).
        barrier_cost:
            Terminating barrier (added after the slowest thread).
        freq_sensitive:
            ``False`` for memory-bound work whose duration does not track
            core frequency (BabelStream); per-thread work is then taken as
            literal wall seconds and teammate-SMT sharing is assumed to be
            already folded in by the caller's bandwidth model.
        """
        n = team.n_threads
        n_runs = self.n_runs
        work = np.asarray(work_seconds, dtype=np.float64)
        if work.shape not in ((n,), (n_runs, n)):
            raise SimulationError(
                f"work array shape {work.shape} != team size {n} "
                f"(or {n_runs} runs x {n})"
            )
        if stacking_episodes and n_runs != 1:
            raise SimulationError("stacking episodes belong to a single run")
        work = np.broadcast_to(work, (n_runs, n))
        sync = np.broadcast_to(
            np.asarray(sync_overhead, dtype=np.float64), (n_runs,)
        )
        p = self.params
        self._use_team(team)
        t = self.t
        if wake_delays is None:
            starts = np.repeat(t[:, None], n, axis=1)
        else:
            starts = t[:, None] + wake_delays

        if freq_sensitive:
            # SMT sharing between teammates: shared cores retire work slower
            eff_value = smt_efficiency if smt_efficiency is not None else p.smt_efficiency
            if not 0.0 < eff_value <= 1.0:
                raise ConfigurationError(f"smt_efficiency {eff_value} outside (0, 1]")
            eff = np.where(team.smt_shared, eff_value, 1.0)
            adj_work = work / eff
            calibration_hz = self._plans[0].calibration_hz
            # pass 1: frequency-rescaled compute, no noise
            durations = self._durations(
                self._team_plane(team), starts, adj_work * calibration_hz
            )
            durations = np.where(adj_work <= 0.0, 0.0, durations)
            sync_scaled = self._durations(
                self._master_plane(team), t[:, None], (sync * calibration_hz)[:, None]
            )[:, 0]
            sync_scaled = np.where(sync > 0.0, sync_scaled, 0.0)
        else:
            durations = np.array(work)
            sync_scaled = sync

        # window estimate for noise accounting (slight margin for pass 2)
        base_end = np.max(starts + durations, axis=1) + sync_scaled
        window_end = base_end + 0.25 * (base_end - t) + 1e-6

        # pass 2: noise + stacking within the window; each run's planes
        # cover its window end first, which makes them exact up to there
        stolen = np.empty((n_runs, n))
        sibling = np.zeros((n_runs, n))
        cols = self._sib_cols
        for r, (noise, end) in enumerate(zip(self._noises, window_end.tolist())):
            ends = np.full(n, end)
            stolen[r] = noise.stolen_plane(end).overlap_fused(starts[r], ends, self._rows)
            if cols.size:
                # pressure only matters when the sibling is otherwise free
                sib = noise.sibling_plane(end).overlap_fused(
                    starts[r, cols], ends[: cols.size], self._sib_rows
                )
                sibling[r, cols] = sib * p.smt_noise_penalty
        stacking = self._stacking(stacking_episodes, starts, window_end)

        per_thread_delay = sibling + stacking
        if noise_mode is NoiseMode.MAX:
            per_thread_end = starts + durations + stolen + per_thread_delay
            arrival = np.max(per_thread_end, axis=1)
            noise_seconds = np.max(stolen + sibling, axis=1)
        elif noise_mode is NoiseMode.SYNC_SUM:
            shared_noise = p.sync_noise_kappa * np.sum(stolen, axis=1)
            per_thread_end = (
                starts + durations + per_thread_delay + shared_noise[:, None]
            )
            arrival = np.max(per_thread_end, axis=1)
            noise_seconds = shared_noise + np.sum(sibling, axis=1)
        elif noise_mode is NoiseMode.BALANCED:
            spread = (np.sum(stolen, axis=1) + np.sum(per_thread_delay, axis=1)) / n
            per_thread_end = starts + durations + spread[:, None]
            arrival = np.max(per_thread_end, axis=1)
            noise_seconds = spread
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown noise mode {noise_mode!r}")

        arrival = arrival + sync_scaled
        arrival = np.maximum(arrival, t + queue_floor)
        end = arrival + barrier_cost
        return RegionResult(
            start=t,
            end=end,
            per_thread_end=per_thread_end,
            noise_seconds=noise_seconds,
            stacking_seconds=np.sum(stacking, axis=1),
        )
