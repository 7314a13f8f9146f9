"""Noise event sources.

A *source* samples the (start, duration) marks of one class of OS activity
over a time window.  Two families cover everything the reproduction needs:

* :class:`TimerTickSource` — deterministic-period per-CPU scheduler ticks.
  Linux runs the tick only on non-idle CPUs (``NO_HZ_IDLE``), so ticks are
  intrinsically placed on the busy CPUs themselves.
* :class:`PoissonSource` — memoryless arrivals with log-normal service
  times; parameterized into daemons, IRQs and rare long events by the
  profiles module.  IRQ-like sources can carry a fixed CPU affinity
  (matching ``/proc/irq/*/smp_affinity``); the rest are placed by policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import NoiseModelError


@dataclass(frozen=True, slots=True)
class NoiseEvent:
    """One OS activity stealing CPU: ``[start, start+duration)``.

    ``cpu`` is ``None`` until a placement policy assigns it; sources with
    inherent affinity (ticks, IRQs) set it at sampling time.
    """

    start: float
    duration: float
    kind: str
    cpu: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise NoiseModelError(f"negative event duration {self.duration}")


def placed(event: NoiseEvent, cpu: int) -> NoiseEvent:
    """A copy of *event* assigned to *cpu*."""
    return NoiseEvent(event.start, event.duration, event.kind, cpu)


class NoiseSource:
    """Base class; subclasses implement :meth:`sample`."""

    kind: str = "noise"

    def sample(
        self,
        t_start: float,
        t_end: float,
        busy_cpus: Sequence[int],
        rng: np.random.Generator,
    ) -> list[NoiseEvent]:
        """All events of this source in ``[t_start, t_end)``."""
        raise NotImplementedError

    def sample_arrays(
        self,
        t_start: float,
        t_end: float,
        busy_cpus: Sequence[int],
        rng: np.random.Generator,
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, str]]:
        """Vectorized fast path: ``(starts, durations, cpus, kind)``.

        Sources whose events have an inherent CPU (ticks, IRQs) implement
        this to avoid per-event Python objects — a full-scale run realizes
        ~10^6 ticks.  Sources that need a placement policy return ``None``
        and fall back to :meth:`sample`.

        Must consume the *same* random draws as :meth:`sample` so both
        paths realize identical noise for a given generator state.
        """
        return None


@dataclass(frozen=True)
class TimerTickSource(NoiseSource):
    """Periodic scheduler tick on every busy CPU.

    Parameters
    ----------
    hz:
        Tick frequency (Linux ``CONFIG_HZ``, typically 100/250/1000).
    duration_mean / duration_jitter:
        Tick handler cost; actual cost is uniform in
        ``[mean - jitter, mean + jitter]``.
    """

    hz: float = 250.0
    duration_mean: float = 2.0e-6
    duration_jitter: float = 1.0e-6
    kind: str = "tick"

    def __post_init__(self) -> None:
        if self.hz <= 0:
            raise NoiseModelError(f"tick frequency must be positive, got {self.hz}")
        if self.duration_mean <= 0 or self.duration_jitter < 0:
            raise NoiseModelError("bad tick duration parameters")
        if self.duration_jitter > self.duration_mean:
            raise NoiseModelError("tick jitter exceeds mean (negative durations)")

    def sample_block(self, t_start, t_end, busy_cpus, rng) -> "TickBlock":
        """All ticks of ``[t_start, t_end)`` as a :class:`TickBlock`.

        The draw-order contract: per busy CPU, in order, one ``random()``
        phase and, when the CPU ticks at all, one ``uniform(size=n)`` block
        of its *n* tick durations.  Every duration is drawn here, so the
        generator leaves in the same state however far the block is later
        expanded.
        """
        if t_end < t_start:
            raise NoiseModelError("window end before start")
        period = 1.0 / self.hz
        low = self.duration_mean - self.duration_jitter
        high = self.duration_mean + self.duration_jitter
        random, uniform = rng.random, rng.uniform
        cpus: list[int] = []
        first: list[float] = []
        counts: list[int] = []
        dur_parts: list[np.ndarray] = []
        for cpu in busy_cpus:
            # per-cpu phase offset: ticks are not synchronized across cpus
            start = t_start + random() * period
            if start >= t_end:
                continue
            n = max(0, math.floor((t_end - start) / period)) + 1
            dur_parts.append(uniform(low, high, size=n))
            cpus.append(int(cpu))
            first.append(start)
            counts.append(n)
        return TickBlock(
            kind=self.kind,
            period=period,
            cpus=np.asarray(cpus, dtype=np.int64),
            first=np.asarray(first, dtype=np.float64),
            counts=np.asarray(counts, dtype=np.int64),
            durations=np.concatenate(dur_parts) if dur_parts else np.empty(0),
        )

    def sample(self, t_start, t_end, busy_cpus, rng):
        starts, durations, cpus = self.sample_block(t_start, t_end, busy_cpus, rng).expand()
        return [
            NoiseEvent(float(s), float(d), self.kind, cpu=int(c))
            for s, d, c in zip(starts, durations, cpus)
        ]

    def sample_arrays(self, t_start, t_end, busy_cpus, rng):
        starts, durations, cpus = self.sample_block(t_start, t_end, busy_cpus, rng).expand()
        return starts, durations, cpus, self.kind


@dataclass(frozen=True, eq=False)
class TickBlock:
    """The periodic ticks of one :class:`TimerTickSource` realization.

    CPU ``cpus[i]`` ticks at ``first[i] + period * k`` for ``k <
    counts[i]``; its tick ``k`` lasts ``durations[offset_i + k]``, where
    ``offset_i`` sums the counts of the CPUs before it.  Tick starts are
    computed, not stored, so a run that reaches only part of its horizon
    expands only that part (:meth:`expand`).
    """

    kind: str
    period: float
    cpus: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    durations: np.ndarray

    def __len__(self) -> int:
        return int(self.durations.size)

    def reach_counts(self, reach: float = math.inf) -> np.ndarray:
        """Per CPU, how many ticks :meth:`expand` keeps for *reach*."""
        if reach == math.inf:
            return self.counts
        return np.clip(
            np.ceil((reach - self.first) / self.period) + 1, 0, self.counts
        ).astype(np.int64)

    def expand(
        self, reach: float = math.inf, after: float = -math.inf
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, durations, cpus)`` of the ticks that can meet a
        window ending by *reach* and were not expanded for *after*, CPU
        block by CPU block in tick order; all ticks by default.

        Each CPU keeps its ticks with index below ``ceil((reach - first) /
        period) + 1`` (:meth:`reach_counts`): an omitted tick starts at
        least a period past *reach* in exact arithmetic, far beyond any
        float rounding of ``first + period * k``.  Kept starts are that
        expression elementwise, as the full expansion computes them.
        """
        done = self.reach_counts(after)
        sizes = np.maximum(self.reach_counts(reach) - done, 0)
        total = int(sizes.sum())
        # tick index k within its CPU block, and the block's duration offset
        block_start = np.cumsum(sizes) - sizes
        k = np.arange(total) - np.repeat(block_start - done, sizes)
        offsets = np.cumsum(self.counts) - self.counts
        starts = np.repeat(self.first, sizes) + self.period * k
        durations = self.durations[np.repeat(offsets, sizes) + k]
        return starts, durations, np.repeat(self.cpus, sizes)

    def bounds(self) -> tuple[float, float]:
        """``(lo, hi)`` with every tick inside ``[lo, hi]``: the first
        start, and the last start plus the longest duration (float
        addition is monotone, so no tick's ``start + duration`` exceeds
        it)."""
        last = self.first + self.period * (self.counts - 1)
        return float(self.first.min()), float(last.max() + self.durations.max())


@dataclass(frozen=True)
class PoissonSource(NoiseSource):
    """Poisson arrivals with log-normal durations.

    Parameters
    ----------
    rate:
        Node-wide arrival rate (events/second).
    duration_median / duration_sigma:
        Log-normal service-time parameters.
    duration_cap:
        Hard upper bound on a single event (keeps tails physical).
    affinity:
        Optional fixed CPU set; when given, each event is assigned
        uniformly within it at sampling time (IRQ-style).
    """

    rate: float = 1.0
    duration_median: float = 200e-6
    duration_sigma: float = 1.0
    duration_cap: float = 0.05
    affinity: Optional[tuple[int, ...]] = None
    kind: str = "daemon"

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise NoiseModelError(f"negative rate {self.rate}")
        if self.duration_median <= 0 or self.duration_sigma < 0:
            raise NoiseModelError("bad duration parameters")
        if self.duration_cap <= 0:
            raise NoiseModelError("duration cap must be positive")
        if self.affinity is not None and len(self.affinity) == 0:
            raise NoiseModelError("empty affinity set")

    def _sample_impl(
        self, t_start, t_end, rng
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        if t_end < t_start:
            raise NoiseModelError("window end before start")
        horizon = t_end - t_start
        empty = np.empty(0)
        if self.rate == 0 or horizon == 0:
            return empty, empty.copy(), None
        n = int(rng.poisson(self.rate * horizon))
        if n == 0:
            return empty, empty.copy(), None
        starts = np.sort(t_start + rng.random(n) * horizon)
        durations = np.minimum(
            rng.lognormal(np.log(self.duration_median), self.duration_sigma, size=n),
            self.duration_cap,
        )
        cpus: Optional[np.ndarray] = None
        if self.affinity is not None:
            cpus = rng.choice(np.asarray(self.affinity, dtype=np.int64), size=n)
        return starts, durations, cpus

    def sample(self, t_start, t_end, busy_cpus, rng):
        starts, durations, cpus = self._sample_impl(t_start, t_end, rng)
        if cpus is None:
            return [
                NoiseEvent(float(s), float(d), self.kind, cpu=None)
                for s, d in zip(starts, durations)
            ]
        return [
            NoiseEvent(float(s), float(d), self.kind, cpu=int(c))
            for s, d, c in zip(starts, durations, cpus)
        ]

    def sample_arrays(self, t_start, t_end, busy_cpus, rng):
        if self.affinity is None:
            return None  # needs the placement policy
        starts, durations, cpus = self._sample_impl(t_start, t_end, rng)
        if cpus is None:
            cpus = np.empty(0, dtype=np.int64)
        return starts, durations, cpus, self.kind
