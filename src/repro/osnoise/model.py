"""Noise realization: from event processes to per-CPU preemption sets.

:class:`NoiseModel` samples every source of a profile over a run window,
places unassigned events, and compiles the result into a
:class:`NoiseRealization` that the execution model queries:

* :meth:`NoiseRealization.stolen_on` — intervals during which a CPU is
  executing OS work instead of the application thread pinned there
  (a thread makes **no** progress inside these intervals), and
* :meth:`NoiseRealization.sibling_pressure_on` — intervals during which the
  *SMT sibling* of a CPU is executing OS work; the thread keeps running but
  retires instructions more slowly (see the SMT penalty in the region
  executor).

Both are answered from planes: one :class:`~repro.sim.intervals.IntervalBatch`
row per machine CPU, queried in place by the region executor
(:meth:`NoiseRealization.stolen_plane`, :meth:`NoiseRealization.sibling_plane`).
Where no CPU has more than one SMT sibling (SMT-2 machines, and machines
without SMT), a CPU's sibling pressure is its sibling's stolen row, so
the sibling plane *is* the stolen plane, read at the siblings' rows
(:meth:`NoiseRealization.sibling_rows`), and a CPU without a sibling is
never queried.  Only machines where a CPU has two or more siblings
build a separate union plane.

Performance note: a full-scale schedbench run on the Dardel model realizes
on the order of a million timer ticks, yet a region run reaches only part
of its horizon.  The realization therefore keeps the non-tick events in
flat NumPy arrays and the ticks as :class:`~repro.osnoise.source.TickBlock`
s (every duration drawn, starts computed on demand), and builds the planes
only up to the time the run's windows reach, growing them as it advances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import NoiseModelError
from repro.obs.tracer import CPU_TRACK_BASE, Tracer
from repro.osnoise.placement import IdleFirstPlacement, PlacementPolicy
from repro.osnoise.source import NoiseEvent, NoiseSource, TickBlock, TimerTickSource
from repro.sim.intervals import IntervalBatch, IntervalSet
from repro.topology.hwthread import Machine
from repro.units import to_sim_ns, to_sim_ns_array

_NONE = np.empty(0)
_NO_CPUS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True, slots=True)
class PlacedEvent:
    """A noise event with its final CPU assignment."""

    start: float
    duration: float
    kind: str
    cpu: int


class NoiseRealization:
    """All noise of one run window, indexed for per-CPU window queries.

    Events are kept flat: the non-tick events as arrays ``(starts,
    durations, cpus, kinds)``, the ticks as :class:`TickBlock` s.  Queries
    go to planes whose rows are CPUs (:class:`IntervalBatch`): the
    stolen plane, built over the non-tick events and the ticks expanded
    to a *covered* time, and the sibling plane, read at the rows of a
    map decided from the machine's sibling table (:meth:`sibling_plane`,
    :meth:`sibling_rows`).  A plane is exact for every window ending by
    the covered time (:meth:`stolen_plane`).
    """

    def __init__(self, machine: Machine, events: Sequence[PlacedEvent] | None = None,
                 *, arrays: tuple[np.ndarray, np.ndarray, np.ndarray, list[str]] | None = None,
                 ticks: Sequence[TickBlock] = ()):
        """Construct from a list of :class:`PlacedEvent` (tests, small runs)
        or from flat arrays ``(starts, durations, cpus, kinds)`` (fast
        path), plus the tick blocks of the run's tick sources.
        """
        self.machine = machine
        if arrays is not None:
            starts, durations, cpus, kinds = arrays
            self._starts = np.asarray(starts, dtype=np.float64)
            self._durations = np.asarray(durations, dtype=np.float64)
            self._cpus = np.asarray(cpus, dtype=np.int64)
            self._kinds = list(kinds)
        else:
            events = list(events or ())
            self._starts = np.asarray([e.start for e in events], dtype=np.float64)
            self._durations = np.asarray([e.duration for e in events], dtype=np.float64)
            self._cpus = np.asarray([e.cpu for e in events], dtype=np.int64)
            self._kinds = [e.kind for e in events]
        self._ticks = tuple(ticks)
        if not (
            self._starts.shape == self._durations.shape == self._cpus.shape
            and len(self._kinds) == self._starts.size
        ):
            raise NoiseModelError("inconsistent noise arrays")
        if np.any(self._durations < 0):
            raise NoiseModelError("negative noise event duration")
        for cpus in [self._cpus] + [block.cpus for block in self._ticks]:
            bad = cpus[(cpus < 0) | (cpus >= machine.n_cpus)]
            if bad.size:
                raise NoiseModelError(f"event on unknown cpu {int(bad[0])}")
        # past this time every tick is expanded (-inf without ticks)
        self._tick_end = max(
            (float(np.max(b.first + b.period * b.counts)) for b in self._ticks if len(b)),
            default=-math.inf,
        )
        self._covered = -math.inf
        self._stolen: IntervalBatch | None = None
        # the ticks the last growth added, for the sibling plane to follow
        self._added: tuple[float, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._sibling: IntervalBatch | None = None
        self._sibling_covered = -math.inf
        self._stolen_rows: dict[int, IntervalSet] = {}
        self._sibling_rows: dict[int, IntervalSet] = {}

    # -- event access (lazy object materialization) ---------------------------

    def _arrays(self, reach: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, durations, cpus)`` of the ticks expanded to *reach*
        (:meth:`TickBlock.expand`), then every non-tick event."""
        parts = [block.expand(reach) for block in self._ticks]
        parts.append((self._starts, self._durations, self._cpus))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _kinds_until(self, reach: float = math.inf) -> list[str]:
        """Kinds of the events :meth:`_arrays` returns for *reach*."""
        kinds = []
        for block in self._ticks:
            kinds += [block.kind] * int(block.reach_counts(reach).sum())
        return kinds + self._kinds

    @property
    def events(self) -> tuple[PlacedEvent, ...]:
        """Every event: ticks first, then the rest in sampling order."""
        starts, durations, cpus = self._arrays()
        return tuple(
            PlacedEvent(float(s), float(d), k, int(c))
            for s, d, k, c in zip(starts, durations, self._kinds_until(), cpus)
        )

    @property
    def n_events(self) -> int:
        return int(self._starts.size) + sum(len(block) for block in self._ticks)

    def count_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for block in self._ticks:
            out[block.kind] = out.get(block.kind, 0) + len(block)
        for k in self._kinds:
            out[k] = out.get(k, 0) + 1
        return out

    # -- planes ------------------------------------------------------------------

    def _hull(self) -> tuple[int, int]:
        """Int64-ns bounds of every event, unexpanded ticks included: the
        planes' fixed row span, so growth merges into existing keys."""
        lo, hi = [], []
        if self._starts.size:
            lo.append(float(self._starts.min()))
            hi.append(float((self._starts + self._durations).max()))
        for block in self._ticks:
            if len(block):
                block_lo, block_hi = block.bounds()
                lo.append(block_lo)
                hi.append(block_hi)
        return (to_sim_ns(min(lo)), to_sim_ns(max(hi))) if lo else (0, 0)

    def _cover(self, reach: float) -> None:
        """Grow the stolen plane if windows may end past the covered time.

        Coverage at least doubles per growth, so a run whose queries
        advance through its horizon grows O(log) times.  A growth expands
        only the ticks it adds and merges them into the plane.
        """
        if reach <= self._covered:
            return
        covered = max(reach, 2.0 * self._covered)
        if covered >= self._tick_end:
            covered = math.inf  # every tick is in: the plane is final
        parts = [block.expand(covered, self._covered) for block in self._ticks]
        parts.append((_NONE, _NONE, _NO_CPUS))  # defined without tick blocks too
        starts, durations, cpus = (np.concatenate(column) for column in zip(*parts))
        starts, ends = to_sim_ns_array(starts), to_sim_ns_array(starts + durations)
        if self._stolen is None:  # the first plane holds every non-tick event
            self._stolen = IntervalBatch.from_rows(
                self.machine.n_cpus,
                np.concatenate((cpus, self._cpus)),
                np.concatenate((starts, to_sim_ns_array(self._starts))),
                np.concatenate((ends, to_sim_ns_array(self._starts + self._durations))),
                hull=self._hull(),
            )
        else:
            self._stolen = self._stolen.merged(cpus, starts, ends)
        self._added = (self._covered, cpus, starts, ends)
        self._covered = covered

    def stolen_plane(self, reach: float = math.inf) -> IntervalBatch:
        """Stolen intervals, one row per CPU, exact for every window that
        ends by *reach* (every window for the default).

        Exactness: an interval left out of the plane is a tick starting
        at or after the covered time, and nanosecond quantization is
        monotone, so it cannot meet a window ``[a, b)`` with ``b`` at or
        before that time; merged in, it could only extend intervals past
        ``b``.  Overlaps are differences of exact integer prefix sums, so
        the answer is the full-horizon answer bit for bit.
        """
        self._cover(reach)
        return self._stolen

    @cached_property
    def _sibling_map(self) -> tuple[bool, np.ndarray]:
        """``(union, rows)``, decided on first need from the machine's
        sibling table: whether sibling pressure needs a union plane (a
        CPU has two or more SMT siblings), and the sibling-plane row
        holding each CPU's pressure, -1 for a CPU without a sibling."""
        ptr, idx = self.machine.sibling_table
        degree = np.diff(ptr)
        if degree.max() > 1:
            return True, np.where(degree > 0, np.arange(self.machine.n_cpus), -1)
        rows = np.full(self.machine.n_cpus, -1, dtype=np.int64)
        rows[degree == 1] = idx  # a lone sibling's stolen row is the pressure
        return False, rows

    def sibling_rows(self, cpus: np.ndarray) -> np.ndarray:
        """The :meth:`sibling_plane` row holding the sibling pressure of
        each of *cpus*, or -1 for a CPU without an SMT sibling (it has
        none to query)."""
        return self._sibling_map[1][cpus]

    def sibling_plane(self, reach: float = math.inf) -> IntervalBatch:
        """Sibling pressure at the rows :meth:`sibling_rows` gives, exact
        as :meth:`stolen_plane`.

        With at most one SMT sibling per CPU this is the stolen plane:
        the row of *c*'s sibling holds exactly *c*'s pressure, already
        normalized.  Otherwise it is a union plane whose row *c* holds
        the stolen intervals of all of *c*'s siblings, built on first
        need from the stolen plane; one growth behind, it merges in
        copies of the ticks that growth added (a union of copies is the
        copy of the union)."""
        stolen = self.stolen_plane(reach)
        if not self._sibling_map[0]:
            return stolen
        if self._sibling_covered != self._covered:
            since, cpus, starts, ends = self._added
            if self._sibling is not None and self._sibling_covered == since:
                self._sibling = self._sibling.merged(*self._sibling_copies(cpus, starts, ends))
            else:
                self._sibling = IntervalBatch.from_rows(
                    self.machine.n_cpus,
                    *self._sibling_copies(*stolen.intervals_ns()),
                    hull=stolen.hull,
                )
            self._sibling_covered = self._covered
        return self._sibling

    def _sibling_copies(
        self, cpus: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each interval once per SMT sibling of its CPU, on the sibling's
        row (the machine's sibling map)."""
        ptr, idx = self.machine.sibling_table
        first = ptr[cpus]
        degree = ptr[cpus + 1] - first
        copy = np.repeat(np.arange(cpus.size), degree)
        k = np.arange(copy.size) - np.repeat(np.cumsum(degree) - degree, degree)
        return idx[first[copy] + k], starts[copy], ends[copy]

    # -- full-horizon interval queries --------------------------------------------

    def stolen_on(self, cpu: int) -> IntervalSet:
        """Intervals during which *cpu* runs OS work (thread fully stalled)."""
        cached = self._stolen_rows.get(cpu)
        if cached is None:
            cached = self._stolen_rows[cpu] = self.stolen_plane().row(cpu)
        return cached

    def sibling_pressure_on(self, cpu: int) -> IntervalSet:
        """Intervals during which any SMT sibling of *cpu* runs OS work."""
        cached = self._sibling_rows.get(cpu)
        if cached is None:
            rows = self._sibling_map[1]
            row = int(rows[cpu]) if 0 <= cpu < rows.size else -1
            cached = self._sibling_rows[cpu] = (
                self.sibling_plane().row(row) if row >= 0 else IntervalSet.empty()
            )
        return cached

    def total_stolen(self, cpu: int, t_start: float, t_end: float) -> float:
        """Seconds of *cpu* time stolen inside ``[t_start, t_end)``."""
        return self.stolen_on(cpu).overlap(t_start, t_end)

    # -- observability ---------------------------------------------------------

    def trace_onto(
        self,
        tracer: Tracer,
        cpus: Sequence[int],
        t_start: float,
        t_end: float,
    ) -> int:
        """Emit this realization's preemptions as spans on per-CPU tracks.

        Every noise event on one of *cpus* overlapping ``[t_start, t_end)``
        becomes a span named by its kind on track
        ``CPU_TRACK_BASE + cpu``, clipped to the window.  A cold
        annotation helper (one call per traced run, after the benchmark
        finished), guarded on entry; returns the number of spans emitted.
        """
        if not tracer.enabled:
            return 0
        # every tick starting before t_end, then the non-tick events
        all_starts, all_durations, all_cpus = self._arrays(t_end)
        kinds = self._kinds_until(t_end)
        emitted = 0
        for cpu in sorted(set(int(c) for c in cpus)):
            tid = CPU_TRACK_BASE + cpu
            tracer.thread_name(tid, f"cpu {cpu} os-noise")
            mask = (
                (all_cpus == cpu)
                & (all_starts < t_end)
                & (all_starts + all_durations > t_start)
            )
            for j in np.nonzero(mask)[0].tolist():
                s = max(t_start, float(all_starts[j]))
                e = min(t_end, float(all_starts[j] + all_durations[j]))
                tracer.span(tid, kinds[j], s, e, cat="osnoise")
                emitted += 1
        return emitted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoiseRealization):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._arrays(), other._arrays())
        ) and self._kinds_until() == other._kinds_until()


class NoiseModel:
    """Samples a set of sources into a :class:`NoiseRealization`."""

    def __init__(
        self,
        machine: Machine,
        sources: Sequence[NoiseSource],
        placement: PlacementPolicy | None = None,
    ):
        self.machine = machine
        self.sources = tuple(sources)
        self.placement = placement if placement is not None else IdleFirstPlacement()

    def realize(
        self,
        t_start: float,
        t_end: float,
        busy_cpus: Sequence[int],
        rng: np.random.Generator,
    ) -> NoiseRealization:
        """Sample all sources over ``[t_start, t_end)`` and place events.

        *busy_cpus* is the set of CPUs hosting application threads — it
        drives both tick generation (ticks fire on busy CPUs) and the
        idle-first placement of daemons.
        """
        if t_end < t_start:
            raise NoiseModelError("window end before start")
        starts_parts: list[np.ndarray] = []
        dur_parts: list[np.ndarray] = []
        cpu_parts: list[np.ndarray] = []
        kinds: list[str] = []
        ticks: list[TickBlock] = []
        unplaced: list[NoiseEvent] = []
        def _append_events(evs) -> None:
            """Flush a block of assigned events as flat arrays (one append
            per block instead of one single-element array per event)."""
            starts_parts.append(np.asarray([e.start for e in evs]))
            dur_parts.append(np.asarray([e.duration for e in evs]))
            cpu_parts.append(np.asarray([e.cpu for e in evs]))
            kinds.extend(e.kind for e in evs)

        for source in self.sources:
            if isinstance(source, TimerTickSource):
                ticks.append(source.sample_block(t_start, t_end, busy_cpus, rng))
                continue
            sampled = source.sample_arrays(t_start, t_end, busy_cpus, rng)
            if sampled is not None:
                s, d, c, kind = sampled
                starts_parts.append(s)
                dur_parts.append(d)
                cpu_parts.append(c)
                kinds.extend([kind] * s.size)
                continue
            assigned = []
            for ev in source.sample(t_start, t_end, busy_cpus, rng):
                if ev.cpu is not None:
                    assigned.append(ev)
                else:
                    unplaced.append(ev)
            if assigned:
                _append_events(assigned)

        if unplaced:
            placed_events = self.placement.place(unplaced, self.machine, busy_cpus, rng)
            for ev in placed_events:
                if ev.cpu is None:
                    raise NoiseModelError(
                        f"placement left event {ev.kind!r} at t={ev.start} unassigned"
                    )
            _append_events(placed_events)

        if starts_parts:
            starts = np.concatenate(starts_parts)
            durations = np.concatenate(dur_parts)
            cpus = np.concatenate(cpu_parts).astype(np.int64)
        else:
            starts = np.empty(0)
            durations = np.empty(0)
            cpus = np.empty(0, dtype=np.int64)
        return NoiseRealization(
            self.machine, arrays=(starts, durations, cpus, kinds), ticks=ticks
        )
