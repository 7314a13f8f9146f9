"""Noise realization: from sampled sources to per-CPU preemption.

:class:`NoiseModel` samples every source of a profile over a run window,
places the un-pinned events idle-first, and keeps the result in a
:class:`NoiseRealization`.  The execution model asks one question of it,
through a :class:`NoiseBatch` of one or more realizations: how much of a
window is a CPU executing OS work instead of the application thread
pinned there (a thread makes **no** progress inside it), and how much do
its *SMT siblings* spend executing OS work (the thread keeps running but
retires instructions more slowly; see the SMT penalty in the region
executor).  :meth:`NoiseBatch.overlap` answers every window of every run
of a region in one call; :meth:`NoiseBatch.stolen` answers one CPU's
windows one at a time, for task bodies.

A :class:`NoiseBatch` keys its runs' noise by ``run * n_cpus + cpu``.  A
CPU's ticks and the rest of its noise answer separately, and their
int64-ns measures add: the ticks, an arithmetic progression that never
overlaps itself, are clipped to each window, from the runs' stacked tick
tables or by walking the row's ticks; the sparse non-tick events live in
one :class:`~repro.sim.intervals.IntervalBatch` row per run and CPU with
those ticks cut out.  Where no CPU has more than one SMT sibling (SMT-2
machines, and machines without SMT), a CPU's sibling pressure is its
sibling's stolen time, read in the same pass at the siblings' rows
(:meth:`NoiseBatch.sibling_rows`).  Only machines where a CPU has two or
more siblings build a union plane.

Performance note: a full-scale schedbench run on the Dardel model realizes
on the order of a million timer ticks, yet a run reaches only part of its
horizon.  The realization therefore keeps the non-tick events in flat
NumPy arrays and the ticks as one
:class:`~repro.osnoise.source.TickBlock`: starts computed on demand,
durations drawn where queries first reach them.  A window query touches
only the few ticks near the window, so a run holds no interval arrays of
its ticks and no durations past its queries' reach; only the union plane
and tracing expand the ticks.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.errors import NoiseModelError
from repro.obs.tracer import CPU_TRACK_BASE, Tracer
from repro.osnoise.placement import idle_first_cpus
from repro.osnoise.source import PREFIX_TICKS, NoiseSource, TickBlock, TimerTickSource
from repro.sim.intervals import IntervalBatch
from repro.topology.hwthread import Machine
from repro.units import NS_PER_SEC, to_sim_ns_array


class NoiseRealization:
    """All noise of one run window, as arrays: the ticks of the profile's
    one tick source as a :class:`TickBlock` (``None`` without one), and
    every other event as flat arrays ``(starts, durations, cpus,
    kinds)`` in sampling order.  A :class:`NoiseBatch` sums the block's
    ticks straight from the block, disjoint by construction
    (:class:`~repro.osnoise.source.TimerTickSource`), and keeps the other
    events in its rest plane.
    """

    def __init__(
        self,
        machine: Machine,
        arrays: tuple[np.ndarray, np.ndarray, np.ndarray, Sequence[str]],
        tick: TickBlock | None = None,
    ):
        starts, durations, cpus, kinds = arrays
        self.machine = machine
        self._starts = np.asarray(starts, dtype=np.float64)
        self._durations = np.asarray(durations, dtype=np.float64)
        self._cpus = np.asarray(cpus, dtype=np.int64)
        self._kinds = np.asarray(kinds, dtype=str)
        self._tick = tick
        if not (
            self._starts.shape == self._durations.shape == self._cpus.shape
            == self._kinds.shape
        ):
            raise NoiseModelError("inconsistent noise arrays")
        if np.any(self._durations < 0):
            raise NoiseModelError("negative noise event duration")
        for cpus in [self._cpus] + ([] if tick is None else [tick.cpus]):
            bad = cpus[(cpus < 0) | (cpus >= machine.n_cpus)]
            if bad.size:
                raise NoiseModelError(f"event on unknown cpu {int(bad[0])}")

    def events(
        self, reach: float = math.inf
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, durations, cpus, kinds)``: the ticks that can meet a
        window ending by *reach* (:meth:`TickBlock.expand`; all of them
        by default), CPU by CPU, then every other event in sampling
        order."""
        rest = (self._starts, self._durations, self._cpus, self._kinds)
        if self._tick is None:
            return rest
        ticks = self._tick.expand(reach)
        ticks += (np.full(ticks[0].size, self._tick.kind),)
        return tuple(np.concatenate(pair) for pair in zip(ticks, rest))

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
        all_starts, all_durations, all_cpus, kinds = self.events(t_end)
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
                tracer.span(tid, str(kinds[j]), s, e, cat="osnoise")
                emitted += 1
        return emitted


class NoiseBatch:
    """The noise of ``R`` realizations of one machine, answering every
    run's window queries in one call (:meth:`overlap`), or one row's one
    window at a time (:meth:`stolen`).  Row ``run * n_cpus + cpu`` is
    that CPU's noise in that run: its slot in the runs' stacked tick
    tables (the durations stay in each realization's block), and its row
    of the rest and union planes, each built once per batch."""

    def __init__(self, realizations: Sequence[NoiseRealization]):
        self.realizations = tuple(realizations)
        self.machine = self.realizations[0].machine
        # the first row of each run, as a column
        self._bases = np.arange(len(self.realizations))[:, None] * self.machine.n_cpus
        paths = [(base, real._tick) for base, real in zip(self._bases.ravel(), self.realizations)
                 if real._tick is not None]
        keys = np.concatenate([np.empty(0, dtype=np.int64)] + [base + t.cpus for base, t in paths])
        # each row's slot in the stacked table, -1 where it has no ticks
        self._slots = np.full(self._bases.size * self.machine.n_cpus, -1, dtype=np.int64)
        self._slots[keys] = np.arange(keys.size)
        # per slot: (first tick, period, longest tick) and (tick count, row in its block)
        self._times = np.hstack([np.empty((3, 0))] + [
            (t.first, np.full(t.cpus.size, t.period), np.full(t.cpus.size, t.longest))
            for _, t in paths])
        self._index = np.hstack([np.empty((2, 0), dtype=np.int64)] + [
            (t.counts, np.arange(t.cpus.size)) for _, t in paths])
        self._stolen: dict[int, Callable[[float, float], float]] = {}

    def _clip(
        self, slots: np.ndarray, edges: np.ndarray, blocks: np.ndarray, grow: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ticks of slot ``slots[q]`` clipped to the int64-ns window
        ``[edges[0, q], edges[1, q])``, for every query *q*: ``(starts,
        ends)``, each ``(Q, W)``, row *q* holding the query's candidate
        ticks in tick order, padded to the *W* candidates of the widest
        window.  A candidate that misses its window, and the padding,
        come back with ``ends <= starts``.  The queries of run *r* are
        ``blocks[r]:blocks[r + 1]``, and its block reads their durations
        in one :meth:`TickBlock.take`.

        A tick is quantized as every noise interval is: ``to_sim_ns`` of
        its start ``first + period * k`` and of that start plus its
        duration.  The candidates of a window ``[lo, hi)`` are the ticks
        ``floor((lo - first) / period) - 1`` to ``floor((hi - first) /
        period) + 1`` (edges in seconds), one spare tick beyond each
        edge: a tick that starts before *hi* rounds to at most half a
        nanosecond past it, and a tick ending after *lo* starts less than
        a period before it, since it ends 2 ns before the next starts.

        With *grow*, each run's block first grows the rows its windows
        reach past :data:`~repro.osnoise.source.PREFIX_TICKS`: a row
        holds at least its first ``min(count, PREFIX_TICKS)`` durations,
        and no window needs more than its count.  Without it (the rest plane's cut, over the whole horizon),
        a candidate past its row's drawn ticks is drawn, and not kept,
        only if its quantized start is before *hi* and that start plus
        ``ceil(longest in ns) + 2`` after *lo*: any other candidate clips
        to nothing whatever it lasts.
        """
        (first, period, longest), (counts, rows) = (
            self._times.take(slots, 1), self._index.take(slots, 1))
        bounds = edges / NS_PER_SEC
        bounds -= first
        bounds /= period
        np.floor(bounds, out=bounds)
        bounds += [[-1.0], [2.0]]  # the spare ticks
        np.maximum(bounds, 0, out=bounds)
        np.minimum(bounds, counts, out=bounds)
        k0, k1 = bounds.astype(np.int64)
        k = k0[:, None] + np.arange(int((k1 - k0).max(initial=0)))
        padding = k >= k1[:, None]
        np.minimum(k, counts[:, None] - 1, out=k)  # padding indexes a real tick
        starts = first[:, None] + period[:, None] * k
        tick_starts = to_sim_ns_array(starts)
        if grow:
            need = np.where(k1 > k0, k1, 0)  # a window without candidates needs none
            deep = need > PREFIX_TICKS
        else:
            reach = (np.ceil(longest * NS_PER_SEC) + 2).astype(np.int64)[:, None]
            far = (tick_starts < edges[1][:, None]) & (tick_starts + reach > edges[0][:, None])
            far &= ~padding
        parts = []
        for real, lo, hi in zip(self.realizations, blocks.tolist(), blocks[1:].tolist()):
            if hi > lo:
                if grow and deep[lo:hi].any():
                    real._tick.grow(rows[lo:hi], need[lo:hi])
                parts.append(real._tick.take(rows[lo:hi], k[lo:hi], None if grow else far[lo:hi]))
        starts += np.concatenate(parts)
        tick_ends = to_sim_ns_array(starts)
        np.maximum(tick_starts, edges[0][:, None], out=tick_starts)
        np.minimum(tick_ends, edges[1][:, None], out=tick_ends)
        np.copyto(tick_ends, tick_starts, where=padding)
        return tick_starts, tick_ends

    @cached_property
    def _rest(self) -> IntervalBatch:
        """The rest plane, built on first query: every run's non-tick
        events, normalized per row, with the run's ticks cut out.
        Disjoint from those ticks, it adds to them to make each CPU's
        noise."""
        starts, durations, keys = (np.concatenate(column) for column in zip(*[
            (real._starts, real._durations, base + real._cpus)
            for base, real in zip(self._bases.ravel().tolist(), self.realizations)
        ]))
        rows, starts, ends = IntervalBatch(
            self._slots.size, keys, to_sim_ns_array(starts), to_sim_ns_array(starts + durations)
        ).intervals_ns()
        slots = self._slots[rows]
        cut = np.flatnonzero(slots >= 0)
        if cut.size:
            # an interval on a ticking row keeps [start, first tick), the
            # gaps between its ticks and [last tick, end): its pieces start
            # at its start and at each tick end, and end at each tick start
            # and at its end.  Rows come sorted, so runs come in blocks
            tick_starts, tick_ends = self._clip(
                slots[cut], np.stack((starts[cut], ends[cut])),
                np.searchsorted(rows[cut], np.append(self._bases, self._slots.size)),
                grow=False,
            )
            meets = tick_ends > tick_starts
            owner = cut[np.nonzero(meets)[0]]
            whole = np.arange(rows.size)
            at_start = np.argsort(np.concatenate((whole, owner)), kind="stable")
            at_end = np.argsort(np.concatenate((owner, whole)), kind="stable")
            rows = rows[np.concatenate((whole, owner))[at_start]]
            starts = np.concatenate((starts, tick_ends[meets]))[at_start]
            ends = np.concatenate((tick_starts[meets], ends))[at_end]
        return IntervalBatch(self._slots.size, rows, starts, ends)

    def stolen(self, row: int) -> Callable[[float, float], float]:
        """``overlap(a, b)``: seconds of row *row*'s noise inside ``[a,
        b)``, one window per call, bit for bit as :meth:`overlap` answers
        the window in its stolen column.  Built once per row; task bodies
        price their noise through it.

        The rest plane's row answers by bisection
        (:meth:`~repro.sim.intervals.IntervalSet.measure_ns`), and the
        row's ticks by a walk over the candidates :meth:`_clip` documents,
        quantized as it quantizes them.  The row's drawn ticks are
        quantized on first need, and a window reaching past them first
        grows the row (:meth:`TickBlock.grow`).  The two int64-ns measures
        add, and the sum is divided by 1e9 once.
        """
        query = self._stolen.get(row)
        if query is None:
            query = self._stolen[row] = self._row_query(row)
        return query

    def _row_query(self, row: int) -> Callable[[float, float], float]:
        """:meth:`stolen`'s query of row *row*, built."""
        rest = self._rest.row(row)
        rest = rest.measure_ns if len(rest) else None  # most rows have no rest events
        slot = int(self._slots[row])
        if slot < 0:
            def overlap(a: float, b: float) -> float:
                lo, hi = round(a * NS_PER_SEC), round(b * NS_PER_SEC)
                return rest(lo, hi) / NS_PER_SEC if rest and hi > lo else 0.0

            return overlap
        (first, period, _), (count, index) = (
            self._times[:, slot].tolist(), self._index[:, slot].tolist())
        block = self.realizations[row // self.machine.n_cpus]._tick
        starts: list[int] = []  # the row's drawn ticks, quantized
        ends: list[int] = []

        def overlap(a: float, b: float) -> float:
            nonlocal starts, ends
            lo, hi = round(a * NS_PER_SEC), round(b * NS_PER_SEC)
            if hi <= lo:
                return 0.0
            ns = rest(lo, hi) if rest else 0
            # the per-call hot path of task bodies: comparisons, not min/max
            k = math.floor((lo / NS_PER_SEC - first) / period) - 1
            if k < 0:
                k = 0
            end = math.floor((hi / NS_PER_SEC - first) / period) + 2
            if end > count:
                end = count
            if end > len(starts) and end > k:
                block.grow(np.array([index]), np.array([end]))
                at, drawn = int(block._offsets[index]), int(block.drawn[index])
                tick_starts = first + period * np.arange(drawn)
                starts = to_sim_ns_array(tick_starts).tolist()
                ends = to_sim_ns_array(tick_starts + block.durations[at:at + drawn]).tolist()
            for k in range(k, end):
                start = starts[k]
                if start >= hi:  # and so does every later tick
                    break
                stop = ends[k]
                if stop > lo:
                    ns += (stop if stop < hi else hi) - (start if start > lo else lo)
            return ns / NS_PER_SEC

        return overlap

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
        :meth:`overlap`, or -1 for a CPU without an SMT sibling (it has
        none to query)."""
        return self._sibling_map[1][cpus]

    @cached_property
    def _union(self) -> IntervalBatch:
        """Row ``run * n_cpus + c``: the noise of every SMT sibling of *c*
        in that run, built once over the full horizon from each event
        (:meth:`NoiseRealization.events`) copied to its CPU's siblings."""
        parts = [real.events()[:3] for real in self.realizations]
        runs = np.repeat(self._bases.ravel(), [part[0].size for part in parts])
        starts, durations, cpus = (np.concatenate(column) for column in zip(*parts))
        starts, ends = to_sim_ns_array(starts), to_sim_ns_array(starts + durations)
        ptr, idx = self.machine.sibling_table
        first = ptr[cpus]
        degree = ptr[cpus + 1] - first
        copy = np.repeat(np.arange(cpus.size), degree)
        k = np.arange(copy.size) - np.repeat(np.cumsum(degree) - degree, degree)
        return IntervalBatch(
            self._slots.size, runs[copy] + idx[first[copy] + k], starts[copy], ends[copy]
        )

    def overlap(
        self, cpus: np.ndarray, rows: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Seconds of every run's noise inside its windows: ``(stolen,
        sibling)``, C-contiguous ``(R, n)`` and ``(R, m)``.  *a* and *b*
        are ``(R, n + m)``: column ``j < n`` of run *r* is the measure of
        CPU ``cpus[j]``'s noise in that run (its ticks and every other
        event, merged) inside ``[a[r, j], b[r, j])``, and column ``n + j``
        the sibling pressure at row ``rows[j]`` of :meth:`sibling_rows`:
        with at most one SMT sibling per CPU the sibling's own stolen
        time, answered in the same pass, else the union plane's row.  Each
        answer is an exact int64-ns measure divided by 1e9 once, as
        :meth:`~repro.sim.intervals.IntervalSet.overlap` answers for the
        per-CPU set of those
        intervals, bit for bit.
        """
        cpus = np.asarray(cpus, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        edges = to_sim_ns_array((a, b))
        union = rows.size and self._sibling_map[0]
        # stolen windows, run-major: the rest plane plus the ticks, clipped
        # and summed (a CPU's ticks are disjoint: they sum to their measure)
        targets = cpus if union else np.concatenate((cpus, rows))
        n_runs, width = len(edges[0]), targets.size
        keys = (self._bases + targets).ravel()
        flat = edges[:, :, :width].reshape(2, -1)
        ns = self._rest.measure_ns(flat, keys)
        ticking = np.flatnonzero(self._slots[keys] >= 0)
        if ticking.size:
            starts, ends = self._clip(
                self._slots[keys[ticking]], flat.take(ticking, 1),
                np.searchsorted(ticking, np.arange(n_runs + 1) * width),
            )
            ends -= starts
            np.maximum(ends, 0, out=ends)
            ns[ticking] += ends.sum(axis=1)
        ns = ns.reshape(n_runs, width)
        if union:
            sibling = self._union.measure_ns(
                edges[:, :, width:].reshape(2, -1), (self._bases + rows).ravel()
            )
            return ns / NS_PER_SEC, sibling.reshape(n_runs, -1) / NS_PER_SEC
        return ns[:, :cpus.size] / NS_PER_SEC, ns[:, cpus.size:] / NS_PER_SEC


class NoiseModel:
    """Samples a set of sources into a :class:`NoiseRealization`.  At most
    one of them is a :class:`TimerTickSource`: its ticks are the
    realization's one tick block."""

    def __init__(self, machine: Machine, sources: Sequence[NoiseSource]):
        self.machine = machine
        self.sources = tuple(sources)
        ticks = [s for s in self.sources if isinstance(s, TimerTickSource)]
        if len(ticks) > 1:
            raise NoiseModelError(f"second tick source {ticks[1]!r}: a noise model has one")

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
        idle-first placement of daemons.  The sources draw in order; then
        one :func:`~repro.osnoise.placement.idle_first_cpus` draw places
        every event without a CPU of its own.  Those placed rows follow
        the pinned ones, each group in source order.
        """
        if t_end < t_start:
            raise NoiseModelError("window end before start")
        tick, pinned, unpinned, cpu_parts = None, [], [], []
        for source in self.sources:
            if isinstance(source, TimerTickSource):
                tick = source.sample_block(t_start, t_end, busy_cpus, rng)
                continue
            starts, durations, cpus = source.sample(t_start, t_end, rng)
            if cpus is None:
                unpinned.append((starts, durations, source.kind))
            else:
                pinned.append((starts, durations, source.kind))
                cpu_parts.append(cpus)
        n_unpinned = sum(starts.size for starts, _, _ in unpinned)
        if n_unpinned:
            cpu_parts.append(idle_first_cpus(self.machine, busy_cpus, n_unpinned, rng))
        rows = pinned + unpinned
        arrays = (
            np.concatenate([np.empty(0)] + [starts for starts, _, _ in rows]),
            np.concatenate([np.empty(0)] + [durations for _, durations, _ in rows]),
            np.concatenate([np.empty(0, dtype=np.int64)] + cpu_parts),
            np.repeat(
                np.asarray([kind for _, _, kind in rows], dtype=str),
                [starts.size for starts, _, _ in rows],
            ),
        )
        return NoiseRealization(self.machine, arrays, tick)
