"""Noise event sources.

A *source* samples the (start, duration) marks of one class of OS activity
over a time window, as flat arrays.  Two families cover everything the
reproduction needs:

* :class:`TimerTickSource` — deterministic-period per-CPU scheduler ticks.
  Linux runs the tick only on non-idle CPUs (``NO_HZ_IDLE``), so ticks are
  intrinsically placed on the busy CPUs themselves.  A
  :class:`TickBlock` fixes each tick duration's stream position and
  draws it when a query first reaches it.
* :class:`PoissonSource` — memoryless arrivals with log-normal service
  times; parameterized into daemons, IRQs and rare long events by the
  profiles module.  IRQ-like sources can carry a fixed CPU affinity
  (matching ``/proc/irq/*/smp_affinity``); the rest are placed idle-first
  (:func:`~repro.osnoise.placement.idle_first_cpus`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import NoiseModelError


class NoiseSource:
    """Base class of the noise sources.

    :class:`TimerTickSource` samples a :class:`TickBlock`
    (:meth:`~TimerTickSource.sample_block`); every other source samples
    arrays, ``sample(t_start, t_end, rng) -> (starts, durations, cpus)``,
    with ``cpus`` ``None`` where its events have no CPU of their own.
    """

    kind: str = "noise"


#: Tick durations a block draws per CPU up front, about 1 s at 250 Hz.
#: The highest tick figure3's queries reach in a batch at ``--runs 3
#: --reps 10`` is 97 at the median and 443 at most; at ``--runs 2 --reps
#: 3``, figure1 reaches 3, runtime_compare 5 and table2 136.
PREFIX_TICKS = 256


@dataclass(frozen=True)
class TimerTickSource(NoiseSource):
    """Periodic scheduler tick on every busy CPU.

    Parameters
    ----------
    hz:
        Tick frequency (Linux ``CONFIG_HZ``, typically 100/250/1000).
    duration_mean / duration_jitter:
        Tick handler cost; actual cost is uniform in
        ``[mean - jitter, mean + jitter]``.  The longest handler must end
        at least 2 ns before the next tick starts, so rounding each
        endpoint to the nanosecond (by at most half of one) cannot make
        two ticks of a CPU meet: a CPU's ticks stay disjoint.
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
        longest, period = self.duration_mean + self.duration_jitter, 1.0 / self.hz
        if not longest + 2e-9 <= period:
            raise NoiseModelError(
                f"tick handler of up to {longest} s does not end 2 ns before "
                f"the next tick, {period} s later (hz={self.hz})"
            )

    def sample_block(self, t_start, t_end, busy_cpus, rng) -> "TickBlock":
        """All ticks of ``[t_start, t_end)`` as a :class:`TickBlock`.

        The draw-order contract: per busy CPU, in order, one ``random()``
        phase and, when the CPU ticks at all, one ``uniform(size=n)`` block
        of its *n* tick durations.  Only the first :data:`PREFIX_TICKS` of
        them are drawn here: ``PCG64.advance`` jumps the rest, leaving the
        generator as drawing them would, and the block draws them later.
        A CPU ticks once per period, so it may be listed only once.
        """
        if t_end < t_start:
            raise NoiseModelError("window end before start")
        busy_cpus = list(busy_cpus)
        if len(set(busy_cpus)) < len(busy_cpus):
            repeated = next(c for i, c in enumerate(busy_cpus) if c in busy_cpus[:i])
            raise NoiseModelError(f"busy cpu {repeated} listed twice")
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise NoiseModelError(f"tick durations need a PCG64 stream, got {bitgen!r}")
        state = bitgen.state
        period = 1.0 / self.hz
        low = self.duration_mean - self.duration_jitter
        high = self.duration_mean + self.duration_jitter
        random, uniform, advance = rng.random, rng.uniform, bitgen.advance
        cpus, first, counts, positions, dur_parts = [], [], [], [], []
        position = 0  # draws taken since the saved state
        for cpu in busy_cpus:
            # per-cpu phase offset: ticks are not synchronized across cpus
            start = t_start + random() * period
            position += 1
            if start >= t_end:
                continue
            n = max(0, math.floor((t_end - start) / period)) + 1
            drawn = min(n, PREFIX_TICKS)
            dur_parts.append(uniform(low, high, size=drawn))
            if n > drawn:
                advance(n - drawn)
            cpus.append(int(cpu))
            first.append(start)
            counts.append(n)
            positions.append(position)
            position += n
        if state["has_uint32"]:  # advance drops a buffered 32-bit half; drawing keeps it
            bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": state["uinteger"]}
        return TickBlock(
            kind=self.kind,
            period=period,
            cpus=np.asarray(cpus, dtype=np.int64),
            first=np.asarray(first, dtype=np.float64),
            counts=np.asarray(counts, dtype=np.int64),
            positions=np.asarray(positions, dtype=np.int64),
            low=low,
            longest=high,
            state=state,
            durations=np.concatenate(dur_parts) if dur_parts else np.empty(0),
        )


@dataclass(eq=False)
class TickBlock:
    """The periodic ticks of one :class:`TimerTickSource` realization.

    CPU ``cpus[i]`` ticks at ``first[i] + period * k`` for ``k <
    counts[i]``, and no tick lasts longer than ``longest``, the source's
    ``duration_mean + duration_jitter``.  No CPU appears twice, and a
    tick ends at least 2 ns before its CPU's next tick starts (both
    checked by the source), so a CPU's ticks stay disjoint in int64
    nanoseconds.  Tick starts are computed, not
    stored: tracing and the SMT union plane expand the ticks
    (:meth:`expand`), and window queries clip only the ticks near each
    window (:class:`~repro.osnoise.model.NoiseBatch`).

    CPU ``i``'s tick ``k`` lasts draw ``positions[i] + k`` of
    ``uniform(low, longest)`` after the generator ``state`` the block
    was sampled from.  The drawn table, its only mutable state, holds
    each CPU's first ``drawn[i]`` durations, row after row.
    """

    kind: str
    period: float
    cpus: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    positions: np.ndarray
    low: float
    longest: float
    state: dict
    durations: np.ndarray

    def __post_init__(self) -> None:
        self.drawn = np.minimum(self.counts, PREFIX_TICKS)
        self._offsets = np.cumsum(self.drawn) - self.drawn

    def __len__(self) -> int:
        return int(self.counts.sum())

    def _draw(self, starts: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
        """The durations at stream positions ``[starts[j], starts[j] +
        sizes[j])``, one array per ascending, disjoint run *j*: one
        ``advance`` and one ``uniform`` each, from the saved state."""
        rng = np.random.Generator(np.random.PCG64(0))  # its state is replaced
        rng.bit_generator.state = self.state
        parts, at = [], 0
        for start, size in zip(starts.tolist(), sizes.tolist()):
            rng.bit_generator.advance(start - at)
            parts.append(rng.uniform(self.low, self.longest, size=size))
            at = start + size
        return parts

    def grow(self, rows: np.ndarray, need: np.ndarray) -> None:
        """Hold at least the first ``need[q]`` ticks of row ``rows[q]``:
        one forward pass in which each short row at least doubles, up to
        its tick count.  A value depends only on its stream position, so
        the order in which rows grow changes none."""
        over = need > self.drawn[rows]
        if not over.any():
            return
        want = self.drawn.copy()
        np.maximum.at(want, rows[over], need[over])
        short = np.flatnonzero(want > self.drawn)
        drawn = self.drawn[short]
        want[short] = np.minimum(self.counts[short], np.maximum(want[short], 2 * drawn))
        parts = self._draw(self.positions[short] + drawn, want[short] - drawn)
        # each short row's new draws go right after its drawn prefix
        pieces, at = [], 0
        for end, part in zip((self._offsets[short] + drawn).tolist(), parts):
            pieces += [self.durations[at:end], part]
            at = end
        pieces.append(self.durations[at:])
        self.durations = np.concatenate(pieces)
        self.drawn = want
        self._offsets = np.cumsum(want) - want

    def take(
        self, rows: np.ndarray, k: np.ndarray, far: np.ndarray | None = None
    ) -> np.ndarray:
        """The durations of tick ``k[q, j] < counts`` of row ``rows[q]``.
        A tick past the row's drawn ones is drawn now where *far* is set,
        and not kept; elsewhere it reads some drawn duration of its row,
        which the caller masks out or clips to nothing."""
        drawn = self.drawn[rows][:, None]
        out = self.durations.take(self._offsets[rows][:, None] + np.minimum(k, drawn - 1))
        if far is not None and (far := far & (k >= drawn)).any():
            positions, inverse = np.unique(
                (self.positions[rows][:, None] + k)[far], return_inverse=True)
            # one draw per run of consecutive positions (all positions are >= 0)
            run = np.flatnonzero(np.diff(positions, prepend=-2) != 1)
            out[far] = np.concatenate(
                self._draw(positions[run], np.diff(run, append=positions.size)))[inverse]
        return out

    def reach_counts(self, reach: float = math.inf) -> np.ndarray:
        """Per CPU, how many ticks :meth:`expand` keeps for *reach*."""
        if reach == math.inf:
            return self.counts
        return np.clip(
            np.ceil((reach - self.first) / self.period) + 1, 0, self.counts
        ).astype(np.int64)

    def expand(self, reach: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, durations, cpus)`` of the ticks that can meet a
        window ending by *reach*, CPU block by CPU block in tick order;
        all ticks by default.  Grows every row to the ticks it keeps.

        Each CPU keeps its ticks with index below ``ceil((reach - first) /
        period) + 1`` (:meth:`reach_counts`): an omitted tick starts at
        least a period past *reach* in exact arithmetic, far beyond any
        float rounding of ``first + period * k``.
        """
        sizes = self.reach_counts(reach)
        self.grow(np.arange(sizes.size), sizes)
        # tick index k within its CPU block
        k = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        starts = np.repeat(self.first, sizes) + self.period * k
        durations = self.durations[np.repeat(self._offsets, sizes) + k]
        return starts, durations, np.repeat(self.cpus, sizes)


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

    def sample(
        self, t_start, t_end, rng
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(starts, durations, cpus)`` of the events in ``[t_start,
        t_end)``, in start order; ``cpus`` is ``None`` without an
        affinity set, or when no event arrives."""
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
