"""Noise realization: from event processes to per-CPU preemption sets.

:class:`NoiseModel` samples every source of a profile over a run window,
places unassigned events, and compiles the result into a
:class:`NoiseRealization` that the execution model queries:

* :meth:`NoiseRealization.stolen_on` — intervals during which a CPU is
  executing OS work instead of the application thread pinned there
  (a thread makes **no** progress inside these intervals), and
* :meth:`NoiseRealization.sibling_time` — how much of a window the
  *SMT siblings* of a CPU spend executing OS work; the thread keeps running
  but retires instructions more slowly (see the SMT penalty in the region
  executor).

The region executor asks for the measure of many windows at once
(:meth:`NoiseRealization.stolen_time`, :meth:`NoiseRealization.sibling_time`).
A CPU's ticks and the rest of its noise answer separately, and their
int64-ns measures add: the ticks, an arithmetic progression that never
overlaps itself, are clipped to each window and summed straight from
their :class:`~repro.osnoise.source.TickBlock`; the sparse non-tick
events live in one :class:`~repro.sim.intervals.IntervalBatch` row per
CPU with those ticks cut out.  Where no CPU has more than one SMT
sibling (SMT-2 machines, and machines without SMT), a CPU's sibling
pressure is its sibling's stolen time, read at the siblings' rows
(:meth:`NoiseRealization.sibling_rows`), and a CPU without a sibling is
never queried.  Only machines where a CPU has two or more siblings
build a union plane.

Performance note: a full-scale schedbench run on the Dardel model realizes
on the order of a million timer ticks, yet a region run reaches only part
of its horizon.  The realization therefore keeps the non-tick events in
flat NumPy arrays and the ticks as :class:`~repro.osnoise.source.TickBlock`
s (every duration drawn, starts computed on demand).  A window query
touches only the few ticks near the window, so a region run holds no
interval arrays of its ticks; only the full-horizon rows of
:meth:`NoiseRealization.stolen_on` put them all in one plane.
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
from repro.units import NS_PER_SEC, to_sim_ns_array


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
    durations, cpus, kinds)``, the ticks as :class:`TickBlock` s.  A
    CPU's noise is split into two disjoint parts whose int64-ns measures
    add: the ticks of the block on the tick path, clipped to each window
    and summed (:meth:`TickBlock.clip`), and the rest plane, one
    :class:`IntervalBatch` row per CPU holding every other event with
    those ticks cut out (:meth:`stolen_time`).  Sibling pressure is read
    at the rows of a map decided from the machine's sibling table
    (:meth:`sibling_rows`, :meth:`sibling_time`).
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
        # the first block of disjoint ticks takes the tick path; any other
        # block (ticks that may overlap, a repeated CPU, a second tick
        # source on the same CPUs) joins the events in the rest plane
        self._tick = next(
            (block for block in self._ticks if len(block) and block.disjoint), None
        )
        # each CPU's index in the tick path's block, -1 where it has no ticks
        self._slots = np.full(machine.n_cpus, -1, dtype=np.int64)
        if self._tick is not None:
            self._slots[self._tick.cpus] = np.arange(self._tick.cpus.size)
        self._stolen_rows: dict[int, IntervalSet] = {}

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

    # -- window queries ----------------------------------------------------------

    @cached_property
    def _rest(self) -> IntervalBatch:
        """The rest plane, built on first query: every event off the tick
        path, normalized per row, with the tick path's ticks cut out.
        Disjoint from those ticks, it adds to them to make each CPU's
        noise."""
        n_cpus = self.machine.n_cpus
        parts = [block.expand() for block in self._ticks if block is not self._tick]
        parts.append((self._starts, self._durations, self._cpus))
        starts, durations, cpus = (np.concatenate(column) for column in zip(*parts))
        rows, starts, ends = IntervalBatch.from_rows(
            n_cpus, cpus, to_sim_ns_array(starts), to_sim_ns_array(starts + durations)
        ).intervals_ns()
        if self._tick is not None:
            # an interval keeps [start, first tick), the gaps between its
            # ticks and [last tick, end): its pieces start at its start and
            # at each tick end, and end at each tick start and at its end.
            # A row without ticks asks an empty window and keeps it whole.
            slots = self._slots[rows]
            tick_starts, tick_ends = self._tick.clip(
                np.maximum(slots, 0), np.stack((starts, np.where(slots >= 0, ends, starts)))
            )
            meets = tick_ends > tick_starts
            owner = np.nonzero(meets)[0]
            whole = np.arange(rows.size)
            at_start = np.argsort(np.concatenate((whole, owner)), kind="stable")
            at_end = np.argsort(np.concatenate((owner, whole)), kind="stable")
            rows = rows[np.concatenate((whole, owner))[at_start]]
            starts = np.concatenate((starts, tick_ends[meets]))[at_start]
            ends = np.concatenate((tick_starts[meets], ends))[at_end]
        return IntervalBatch.from_rows(n_cpus, rows, starts, ends)

    def _tick_ns(self, slots: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Int64 ns of the tick path's ticks of slot ``slots[q]`` inside
        window ``[edges[0, q], edges[1, q])``: each CPU's ticks are
        disjoint, so the sum of their clipped lengths is their measure."""
        starts, ends = self._tick.clip(slots, edges)
        ends -= starts
        np.maximum(ends, 0, out=ends)
        return ends.sum(axis=1)

    def _stolen_ns(self, cpus: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Int64 ns of ``cpus[q]`` stolen inside ``[edges[0, q], edges[1, q])``."""
        slots = self._slots[cpus]
        if self._tick is not None and slots.min(initial=0) >= 0:  # no filter
            ns = self._tick_ns(slots, edges)
        else:
            ns = np.zeros(cpus.size, dtype=np.int64)
            ticking = np.flatnonzero(slots >= 0)
            if ticking.size:
                ns[ticking] = self._tick_ns(slots[ticking], edges[:, ticking])
        return ns + self._rest.measure_ns(edges, cpus)

    def stolen_time(self, cpus: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Seconds of ``cpus[q]`` stolen inside ``[a[q], b[q])``, per
        query: ``stolen_on(cpus[q]).overlap(a[q], b[q])`` bit for bit.

        The tick path's ticks and the rest plane are disjoint and make
        up the CPU's noise together, so their int64-ns measures add to
        the measure of its union, which is divided by 1e9 once, as
        :meth:`IntervalSet.overlap` divides it.
        """
        cpus = np.asarray(cpus, dtype=np.int64)
        return self._stolen_ns(cpus, to_sim_ns_array((a, b))) / NS_PER_SEC

    @cached_property
    def _sibling_map(self) -> tuple[bool, np.ndarray]:
        """``(union, rows)``, decided on first need from the machine's
        sibling table: whether sibling pressure needs a union plane (a
        CPU has two or more SMT siblings), and the row holding each CPU's
        pressure, -1 for a CPU without a sibling."""
        ptr, idx = self.machine.sibling_table
        degree = np.diff(ptr)
        if degree.max() > 1:
            return True, np.where(degree > 0, np.arange(self.machine.n_cpus), -1)
        rows = np.full(self.machine.n_cpus, -1, dtype=np.int64)
        rows[degree == 1] = idx  # a lone sibling's stolen row is the pressure
        return False, rows

    def sibling_rows(self, cpus: np.ndarray) -> np.ndarray:
        """The row holding the sibling pressure of each of *cpus* for
        :meth:`sibling_time`, or -1 for a CPU without an SMT sibling (it
        has none to query)."""
        return self._sibling_map[1][cpus]

    def sibling_time(self, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Seconds of sibling pressure inside ``[a[q], b[q])`` at row
        ``rows[q]`` of :meth:`sibling_rows`.

        With at most one SMT sibling per CPU the row is the sibling
        itself, and its pressure is the sibling's stolen time
        (:meth:`stolen_time`).  Otherwise it is a union plane whose row
        *c* holds the noise of all of *c*'s siblings (:meth:`_union`)."""
        if self._sibling_map[0]:
            return self._union.overlap_fused(a, b, rows)
        return self.stolen_time(rows, a, b)

    # -- full-horizon interval queries --------------------------------------------

    @cached_property
    def _whole(self) -> IntervalBatch:
        """Every CPU's noise over the full horizon, one row per CPU: all
        its ticks and other events, merged.  Built on the first full-row
        request (the work-stealing scheduler's)."""
        starts, durations, cpus = self._arrays()
        return IntervalBatch.from_rows(
            self.machine.n_cpus, cpus, to_sim_ns_array(starts), to_sim_ns_array(starts + durations)
        )

    @cached_property
    def _union(self) -> IntervalBatch:
        """Row *c*: the noise of every SMT sibling of *c*, built once over
        the full horizon from each interval copied to its CPU's siblings."""
        cpus, starts, ends = self._whole.intervals_ns()
        ptr, idx = self.machine.sibling_table
        first = ptr[cpus]
        degree = ptr[cpus + 1] - first
        copy = np.repeat(np.arange(cpus.size), degree)
        k = np.arange(copy.size) - np.repeat(np.cumsum(degree) - degree, degree)
        return IntervalBatch.from_rows(
            self.machine.n_cpus, idx[first[copy] + k], starts[copy], ends[copy]
        )

    def stolen_on(self, cpu: int) -> IntervalSet:
        """Intervals during which *cpu* runs OS work (thread fully stalled)."""
        cached = self._stolen_rows.get(cpu)
        if cached is None:
            cached = self._stolen_rows[cpu] = self._whole.row(cpu)
        return cached

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
