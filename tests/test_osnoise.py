"""Tests for the OS-noise substrate."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import NoiseModelError
from repro.obs.tracer import SpanTracer
from repro.osnoise import (
    IdleFirstPlacement,
    NoiseModel,
    NoiseRealization,
    PinnedPlacement,
    PoissonSource,
    TickBlock,
    TimerTickSource,
    dardel_noise,
    noisy_profile,
    quiet_profile,
    vera_noise,
)
from repro.omp import OMPEnvironment, RegionExecutor
from repro.omp.runtime import OpenMPRuntime
from repro.platform import get_platform, toy
from repro.rng import RngFactory
from repro.sim.intervals import IntervalSet
from repro.topology import TopologyBuilder, dardel_topology
from repro.types import ProcBind
from repro.units import ms, to_sim_ns_array, us


@pytest.fixture
def machine():
    # 2 sockets x 1 numa x 4 cores, SMT-2 -> 16 cpus, siblings (c, c+8)
    return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()


class TestTimerTickSource:
    def test_tick_count_matches_rate(self):
        src = TimerTickSource(hz=250.0, duration_mean=us(2), duration_jitter=us(1))
        rng = RngFactory(1).stream("ticks")
        events = src.sample(0.0, 1.0, busy_cpus=[3], rng=rng)
        assert 248 <= len(events) <= 251
        assert all(e.cpu == 3 for e in events)

    def test_only_busy_cpus_tick(self):
        src = TimerTickSource()
        rng = RngFactory(1).stream("ticks")
        events = src.sample(0.0, 0.1, busy_cpus=[1, 5], rng=rng)
        assert {e.cpu for e in events} == {1, 5}

    def test_no_busy_no_ticks(self):
        src = TimerTickSource()
        rng = RngFactory(1).stream("ticks")
        assert src.sample(0.0, 1.0, busy_cpus=[], rng=rng) == []

    def test_durations_in_band(self):
        src = TimerTickSource(duration_mean=us(2), duration_jitter=us(1))
        rng = RngFactory(2).stream("ticks")
        events = src.sample(0.0, 0.5, busy_cpus=[0], rng=rng)
        for e in events:
            assert us(1) <= e.duration <= us(3)

    def test_validation(self):
        with pytest.raises(NoiseModelError):
            TimerTickSource(hz=0)
        with pytest.raises(NoiseModelError):
            TimerTickSource(duration_mean=us(1), duration_jitter=us(2))


class TestPoissonSource:
    def test_event_count(self):
        src = PoissonSource(rate=100.0, duration_median=us(100))
        rng = RngFactory(3).stream("poisson")
        events = src.sample(0.0, 10.0, busy_cpus=[], rng=rng)
        assert 850 < len(events) < 1150

    def test_affinity_respected(self):
        src = PoissonSource(rate=50.0, affinity=(0, 5), kind="irq")
        rng = RngFactory(4).stream("poisson")
        events = src.sample(0.0, 5.0, busy_cpus=[], rng=rng)
        assert {e.cpu for e in events} <= {0, 5}

    def test_unaffine_events_unplaced(self):
        src = PoissonSource(rate=50.0)
        rng = RngFactory(4).stream("poisson")
        events = src.sample(0.0, 1.0, busy_cpus=[], rng=rng)
        assert all(e.cpu is None for e in events)

    def test_duration_cap(self):
        src = PoissonSource(rate=200.0, duration_median=us(500), duration_sigma=3.0,
                            duration_cap=us(1000))
        rng = RngFactory(5).stream("poisson")
        events = src.sample(0.0, 5.0, busy_cpus=[], rng=rng)
        assert max(e.duration for e in events) <= us(1000)

    def test_zero_rate(self):
        src = PoissonSource(rate=0.0)
        rng = RngFactory(5).stream("poisson")
        assert src.sample(0.0, 100.0, busy_cpus=[], rng=rng) == []

    def test_validation(self):
        with pytest.raises(NoiseModelError):
            PoissonSource(rate=-1.0)
        with pytest.raises(NoiseModelError):
            PoissonSource(affinity=())


class TestIdleFirstPlacement:
    def test_prefers_fully_idle_cores(self, machine):
        src = PoissonSource(rate=500.0)
        rng = RngFactory(6).stream("x")
        events = src.sample(0.0, 1.0, busy_cpus=[], rng=rng)
        policy = IdleFirstPlacement()
        # busy: cpu 0..3 (cores 0..3 of socket 0). Fully idle cores: 4..7.
        placed = policy.place(events, machine, busy_cpus=[0, 1, 2, 3], rng=rng)
        idle_core_cpus = {4, 5, 6, 7, 12, 13, 14, 15}
        assert all(e.cpu in idle_core_cpus for e in placed)

    def test_falls_back_to_siblings(self, machine):
        # all 8 cores have thread0 busy -> only siblings idle
        busy = list(range(8))
        src = PoissonSource(rate=200.0)
        rng = RngFactory(7).stream("x")
        events = src.sample(0.0, 1.0, busy_cpus=busy, rng=rng)
        placed = IdleFirstPlacement().place(events, machine, busy, rng)
        assert all(8 <= e.cpu < 16 for e in placed)

    def test_preempts_when_saturated(self, machine):
        busy = list(range(16))
        src = PoissonSource(rate=200.0)
        rng = RngFactory(8).stream("x")
        events = src.sample(0.0, 1.0, busy_cpus=busy, rng=rng)
        placed = IdleFirstPlacement().place(events, machine, busy, rng)
        assert all(0 <= e.cpu < 16 for e in placed)
        # noise now lands on busy cpus
        assert any(e.cpu in set(busy) for e in placed)

    def test_affine_events_untouched(self, machine):
        src = PoissonSource(rate=100.0, affinity=(2,), kind="irq")
        rng = RngFactory(9).stream("x")
        events = src.sample(0.0, 1.0, busy_cpus=[], rng=rng)
        placed = IdleFirstPlacement().place(events, machine, [0, 1], rng)
        assert all(e.cpu == 2 for e in placed)

    def test_bad_busy_cpu(self, machine):
        with pytest.raises(NoiseModelError):
            IdleFirstPlacement().place([], machine, [999], RngFactory(1).stream("x"))


class TestPinnedPlacement:
    def test_places_on_fixed_set(self, machine):
        src = PoissonSource(rate=100.0)
        rng = RngFactory(10).stream("x")
        events = src.sample(0.0, 1.0, busy_cpus=[], rng=rng)
        placed = PinnedPlacement([3]).place(events, machine, [], rng)
        assert all(e.cpu == 3 for e in placed)

    def test_empty_set_rejected(self):
        with pytest.raises(NoiseModelError):
            PinnedPlacement([])


class TestNoiseModel:
    def test_realize_builds_interval_sets(self, machine):
        model = NoiseModel(machine, dardel_noise().sources[:2])  # ticks + daemons
        rng = RngFactory(11).stream("noise")
        real = model.realize(0.0, 1.0, busy_cpus=[0, 1], rng=rng)
        stolen0 = real.stolen_on(0)
        assert stolen0.total > 0  # ticks on busy cpu 0

    def test_quiet_profile_is_silent(self, machine):
        model = NoiseModel(machine, quiet_profile().sources)
        real = model.realize(0.0, 10.0, [0], RngFactory(1).stream("n"))
        assert real.stolen_on(0).is_empty()
        assert real.events == ()

    def test_sibling_pressure(self, machine):
        # noise pinned on cpu 8 (sibling of cpu 0 in core 0)
        model = NoiseModel(
            machine,
            [PoissonSource(rate=50.0, duration_median=us(100))],
            placement=PinnedPlacement([8]),
        )
        real = model.realize(0.0, 1.0, busy_cpus=[0], rng=RngFactory(2).stream("n"))
        rows = real.sibling_rows(np.array([0]))
        assert real.sibling_time(rows, np.array([0.0]), np.array([1.0]))[0] > 0
        assert real.stolen_on(0).is_empty()

    def test_spare_cpus_absorb_daemons(self, machine):
        """The paper's spare-2-cpus strategy: daemons land on idle cpus."""
        model = NoiseModel(machine, [PoissonSource(rate=100.0)])
        busy = list(range(14))  # spare cpus 14, 15
        real = model.realize(0.0, 1.0, busy, RngFactory(3).stream("n"))
        for cpu in busy:
            assert real.stolen_on(cpu).is_empty()

    def test_count_by_kind(self, machine):
        # dardel's irq affinity targets cpu 128, so use the tick+daemon
        # sources only on this 16-cpu toy machine
        sources = [s for s in dardel_noise().sources if s.kind in ("tick", "daemon")]
        model = NoiseModel(machine, sources)
        real = model.realize(0.0, 0.5, [0], RngFactory(4).stream("n"))
        counts = real.count_by_kind()
        assert counts.get("tick", 0) > 0

    def test_traced_span_has_interval_endpoints(self, machine):
        """Trace spans and noise intervals share one nanosecond time base:
        an unclipped span ends exactly where its interval does."""
        rng = np.random.default_rng(5)
        starts = np.arange(20) * 0.05 + rng.uniform(0.0, 0.01, 20)
        durations = rng.uniform(1e-7, 1e-5, 20)  # far apart: nothing merges
        real = NoiseRealization(
            machine, arrays=(starts, durations, np.zeros(20, dtype=np.int64), ["tick"] * 20)
        )
        tracer = SpanTracer()
        assert real.trace_onto(tracer, [0], 0.0, 2.0) == 20
        spans = [
            (round(ev["ts"] * 1000), round(ev["ts"] * 1000) + round(ev["dur"] * 1000))
            for ev in tracer.to_chrome()["traceEvents"]
            if ev["ph"] == "X"
        ]
        stolen = real.stolen_on(0)
        assert spans == list(zip(stolen.starts.tolist(), stolen.ends.tolist()))

    def test_profile_from_other_machine_rejected(self, machine):
        # the full dardel profile pins IRQs to cpu 128 — not on this machine
        model = NoiseModel(machine, dardel_noise().sources)
        with pytest.raises(NoiseModelError):
            model.realize(0.0, 0.5, [0], RngFactory(4).stream("n"))

    def test_determinism(self, machine):
        model = NoiseModel(machine, vera_noise().sources)
        r1 = model.realize(0.0, 1.0, [0, 1], RngFactory(5).stream("n"))
        r2 = model.realize(0.0, 1.0, [0, 1], RngFactory(5).stream("n"))
        assert r1.events == r2.events


class TestProfiles:
    def test_presets_exist(self):
        assert dardel_noise().sources
        assert vera_noise().sources
        assert not quiet_profile().sources

    def test_dardel_irq_affinity_matches_topology(self):
        m = dardel_topology()
        irq = [s for s in dardel_noise().sources if s.kind == "irq"][0]
        for cpu in irq.affinity:
            assert cpu < m.n_cpus
        # cpu0 and its SMT sibling
        assert irq.affinity == (0, 128)
        assert m.siblings_of(0) == (128,)

    def test_scaled(self):
        base = dardel_noise()
        loud = base.scaled(10.0)
        base_daemon = [s for s in base.sources if s.kind == "daemon"][0]
        loud_daemon = [s for s in loud.sources if s.kind == "daemon"][0]
        assert loud_daemon.rate == pytest.approx(10 * base_daemon.rate)
        # tick rate unchanged
        base_tick = [s for s in base.sources if s.kind == "tick"][0]
        loud_tick = [s for s in loud.sources if s.kind == "tick"][0]
        assert loud_tick.hz == base_tick.hz

    def test_without(self):
        p = dardel_noise().without("rare")
        assert all(s.kind != "rare" for s in p.sources)
        assert len(p.sources) == len(dardel_noise().sources) - 1

    def test_noisy_profile_louder(self):
        base_rate = sum(
            s.rate for s in dardel_noise().sources if isinstance(s, PoissonSource)
        )
        loud_rate = sum(
            s.rate for s in noisy_profile().sources if isinstance(s, PoissonSource)
        )
        assert loud_rate > 5 * base_rate


def reference_ticks(src, t_start, t_end, busy_cpus, rng):
    """An eager per-CPU tick sampler, every tick built as it is drawn: the
    oracle of the block's draws and expansion."""
    period = 1.0 / src.hz
    starts_parts, dur_parts, cpu_parts = [], [], []
    for cpu in busy_cpus:
        phase = rng.random() * period
        first = t_start + phase
        n = int(max(0.0, np.floor((t_end - first) / period)) + 1) if first < t_end else 0
        if n <= 0:
            continue
        starts_parts.append(first + period * np.arange(n))
        dur_parts.append(rng.uniform(
            src.duration_mean - src.duration_jitter,
            src.duration_mean + src.duration_jitter,
            size=n,
        ))
        cpu_parts.append(np.full(n, int(cpu), dtype=np.int64))
    if not starts_parts:
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    return tuple(np.concatenate(p) for p in (starts_parts, dur_parts, cpu_parts))


tick_sources = st.builds(
    TimerTickSource,
    hz=st.sampled_from([100.0, 250.0, 1000.0, 3000.0]),
    duration_mean=st.floats(min_value=1e-6, max_value=4e-4),
    duration_jitter=st.just(5e-7),
)


class TestTickBlock:
    @given(src=tick_sources, seed=st.integers(0, 2**16),
           t_start=st.floats(min_value=0.0, max_value=1.0),
           length=st.floats(min_value=0.0, max_value=0.3),
           busy=st.lists(st.integers(0, 15), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_full_expansion_is_the_reference_draw(self, src, seed, t_start, length, busy):
        t_end = t_start + length
        rng, ref_rng, arr_rng = (np.random.default_rng(seed) for _ in range(3))
        block = src.sample_block(t_start, t_end, busy, rng)
        reference = reference_ticks(src, t_start, t_end, busy, ref_rng)
        arrays = src.sample_arrays(t_start, t_end, busy, arr_rng)
        for mine, ref, arr in zip(block.expand(), reference, arrays):
            assert np.array_equal(mine, ref) and np.array_equal(arr, ref)
        assert len(block) == reference[0].size
        # the generator leaves in the same state, whatever is expanded later
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert arr_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(src=tick_sources, seed=st.integers(0, 2**16),
           reach=st.floats(min_value=-0.1, max_value=0.4),
           busy=st.lists(st.integers(0, 15), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_partial_expansion_keeps_every_tick_before_reach(self, src, seed, reach, busy):
        block = src.sample_block(0.0, 0.3, busy, np.random.default_rng(seed))
        starts, durations, cpus = block.expand()
        part_s, part_d, part_c = block.expand(reach)
        kept = block.reach_counts(reach)
        for i, cpu in enumerate(block.cpus.tolist()):
            lo = int(block.counts[:i].sum())
            all_s = starts[lo : lo + int(block.counts[i])]
            plo = int(kept[:i].sum())
            mine = part_s[plo : plo + int(kept[i])]
            # a prefix of the CPU's ticks, ending past every start before reach
            assert np.array_equal(mine, all_s[: mine.size])
            assert np.all(all_s[mine.size :] >= reach)
            assert mine.size == min(
                all_s.size, max(0, math.ceil((reach - block.first[i]) / block.period) + 1)
            )
        assert np.all(np.isin(part_c, block.cpus))

    @given(src=tick_sources, seed=st.integers(0, 2**16),
           busy=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_clip_is_the_expanded_ticks_clipped_by_hand(self, src, seed, busy, data):
        block = src.sample_block(0.0, 0.3, busy, np.random.default_rng(seed))
        assume(block.disjoint and len(block))
        starts, durations, cpus = block.expand()
        ticks = to_sim_ns_array((starts, starts + durations))
        point = st.floats(min_value=-0.1, max_value=0.4)
        n = data.draw(st.integers(1, 8))
        slots = np.asarray(data.draw(st.lists(
            st.integers(0, block.cpus.size - 1), min_size=n, max_size=n)))
        edges = to_sim_ns_array([
            data.draw(st.lists(point, min_size=n, max_size=n)) + [-0.1, 0.35],
            data.draw(st.lists(point, min_size=n, max_size=n)) + [-0.05, 0.4],
        ])  # with one window before the first tick and one after the last
        slots = np.concatenate((slots, [0, 0]))
        clip_starts, clip_ends = block.clip(slots, edges)
        for q, slot in enumerate(slots.tolist()):
            own = ticks[:, cpus == block.cpus[slot]]
            lo, hi = np.maximum(own[0], edges[0, q]), np.minimum(own[1], edges[1, q])
            meets = hi > lo
            got_lo, got_hi = clip_starts[q], clip_ends[q]
            got = got_hi > got_lo
            # every tick that meets the window is a candidate, clipped alike
            assert np.array_equal(got_lo[got], lo[meets])
            assert np.array_equal(got_hi[got], hi[meets])
            assert np.maximum(got_hi - got_lo, 0).sum() == (hi - lo)[meets].sum()
        # padded to the widest window's candidates, spares included
        widest = max(np.max(edges[1] - edges[0]), 0) / 1e9 / block.period
        assert clip_starts.shape == clip_ends.shape == (slots.size, clip_starts.shape[1])
        assert clip_starts.shape[1] <= widest + 4


class TestTickPath:
    """Which tick block a realization sums straight from its ticks."""

    def test_every_preset_tick_source_is_disjoint(self):
        for profile in (dardel_noise(), vera_noise(), noisy_profile(), toy().noise_profile):
            for src in profile.sources:
                if isinstance(src, TimerTickSource):
                    block = src.sample_block(0.0, 1.0, [0, 1], np.random.default_rng(1))
                    assert block.disjoint

    def test_ticks_that_may_overlap_join_the_events(self):
        src = TimerTickSource(hz=3000.0, duration_mean=4e-4, duration_jitter=5e-7)
        assert not src.sample_block(0.0, 0.1, [0], np.random.default_rng(1)).disjoint

    def test_ticks_need_two_nanoseconds_of_room(self):
        period, jitter = 1e-3, 5e-7
        rng = np.random.default_rng(1)
        for room, disjoint in ((1e-9, False), (3e-9, True)):
            src = TimerTickSource(
                hz=1 / period, duration_mean=period - room - jitter, duration_jitter=jitter
            )
            assert src.sample_block(0.0, 0.1, [0], rng).disjoint is disjoint

    def test_a_repeated_cpu_joins_the_events(self):
        src = TimerTickSource()
        rng = np.random.default_rng(1)
        assert src.sample_block(0.0, 0.1, [0, 1], rng).disjoint
        assert not src.sample_block(0.0, 0.1, [0, 1, 0], rng).disjoint

    def test_the_first_disjoint_block_takes_the_tick_path(self, machine):
        rng = np.random.default_rng(2)
        loose = TimerTickSource(hz=3000.0, duration_mean=4e-4, duration_jitter=5e-7)
        blocks = [loose.sample_block(0.0, 0.1, [0], rng),
                  TimerTickSource().sample_block(0.0, 0.1, [0, 1], rng),
                  TimerTickSource().sample_block(0.0, 0.1, [1, 2], rng)]
        real = NoiseRealization(machine, [], ticks=blocks)
        assert real._tick is blocks[1]
        stolen, _ = oracle_sets(real)
        for cpu in range(4):
            assert real.stolen_on(cpu) == stolen[cpu]


def smt4_machine():
    # 1 socket x 1 numa x 3 cores, SMT-4 -> 12 cpus, siblings {c, c+3, c+6, c+9}
    return TopologyBuilder("smt4").add_sockets(1, 1, 3, smt=4).build()


HORIZON = 0.05


@st.composite
def realizations(draw, machine):
    """A realization with random non-tick events, one block of disjoint
    ticks and, at random, a block whose ticks must join the rest plane:
    ticks longer than their period, or a busy list that repeats a CPU.
    Either block may come first."""
    n = machine.n_cpus
    cpu = st.integers(0, n - 1)
    events = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=HORIZON),
            st.floats(min_value=0.0, max_value=2e-3),
            cpu,
        ),
        max_size=25,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    src = TimerTickSource(
        hz=draw(st.sampled_from([500.0, 2000.0, 10000.0])),
        duration_mean=draw(st.floats(min_value=1e-6, max_value=8e-5)),
        duration_jitter=5e-7,
    )
    blocks = [src.sample_block(0.0, HORIZON, draw(st.lists(cpu, max_size=6, unique=True)), rng)]
    fallback = draw(st.sampled_from([None, "overlapping", "repeated"]))
    if fallback == "overlapping":
        loose = TimerTickSource(hz=3000.0, duration_mean=4e-4, duration_jitter=5e-7)
        busy = draw(st.lists(cpu, min_size=1, max_size=4, unique=True))
        blocks.append(loose.sample_block(0.0, HORIZON, busy, rng))
    elif fallback == "repeated":
        busy = draw(st.lists(cpu, min_size=1, max_size=4))
        blocks.append(src.sample_block(0.0, HORIZON, busy + busy[:1], rng))
    if draw(st.booleans()):
        blocks.reverse()
    arrays = (
        np.asarray([e[0] for e in events]),
        np.asarray([e[1] for e in events]),
        np.asarray([e[2] for e in events], dtype=np.int64),
        ["daemon"] * len(events),
    )
    return NoiseRealization(machine, arrays=arrays, ticks=blocks)


def oracle_sets(real):
    """Full-horizon per-CPU sets, built event by event, and their sibling
    unions: the per-CPU path the planes replace."""
    machine = real.machine
    events = real.events
    stolen = []
    for c in range(machine.n_cpus):
        s = np.asarray([e.start for e in events if e.cpu == c], dtype=float)
        d = np.asarray([e.duration for e in events if e.cpu == c], dtype=float)
        stolen.append(IntervalSet(s, s + d))
    sibling = []
    for c in range(machine.n_cpus):
        union = IntervalSet.empty()
        for s in machine.siblings_of(c):
            union = union.union(stolen[s])
        sibling.append(union)
    return stolen, sibling


window_point = st.floats(min_value=-1e-3, max_value=HORIZON * 1.2)


class TestNoisePlanes:
    """Window queries answer as the full-horizon per-CPU sets do, bit for
    bit: the tick sum plus the rest plane for stolen time, the row map or
    the union plane for sibling pressure."""

    def _check(self, machine, data):
        real = data.draw(realizations(machine))
        stolen, sibling = oracle_sets(real)
        n = machine.n_cpus
        for _ in range(data.draw(st.integers(1, 5))):
            rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
            # independent edges: about half the windows are reversed
            a, b = (
                np.asarray(data.draw(st.lists(window_point, min_size=rows.size, max_size=rows.size)))
                for _ in range(2)
            )
            # and every window again, moved past the horizon
            past = data.draw(st.floats(min_value=HORIZON, max_value=2 * HORIZON))
            rows, a, b = np.tile(rows, 2), np.concatenate((a, a + past)), np.concatenate((b, b + past))
            got = real.stolen_time(rows, a, b)
            # sibling pressure is read at the realization's row map; a
            # CPU without an SMT sibling maps to no row and has none
            sib_rows = real.sibling_rows(rows)
            has = sib_rows >= 0
            sib = np.zeros(rows.size)
            sib[has] = real.sibling_time(sib_rows[has], a[has], b[has])
            for q, c in enumerate(rows.tolist()):
                assert got[q] == stolen[c].overlap(float(a[q]), float(b[q]))
                assert has[q] == bool(machine.siblings_of(c))
                assert sib[q] == sibling[c].overlap(float(a[q]), float(b[q]))
        # the full-horizon row views are the per-CPU sets
        for c in range(n):
            assert real.stolen_on(c) == stolen[c]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_smt2_machine(self, data):
        self._check(TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build(), data)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_smt4_machine(self, data):
        self._check(smt4_machine(), data)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_machine_without_smt(self, data):
        self._check(TopologyBuilder("nosmt").add_sockets(2, 1, 4, smt=1).build(), data)

    def test_short_region_materializes_few_ticks(self, monkeypatch):
        """A region near the start of a long horizon clips a handful of
        ticks per thread, not the realization's hundred thousand."""
        platform = toy()
        env = OMPEnvironment(num_threads=4, places="cores", proc_bind=ProcBind.CLOSE)
        ctx = OpenMPRuntime(platform, env).start_run(0, RngFactory(1), horizon=100.0)
        shapes = []  # (windows, candidate ticks of the widest)
        clip = TickBlock.clip

        def counting(self, slots, edges):
            out = clip(self, slots, edges)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(TickBlock, "clip", counting)
        RegionExecutor([ctx]).execute(ctx.team, np.full(4, ms(1)))
        assert ctx.noise.count_by_kind()["tick"] > 90_000
        assert (len(ctx.team.cpus), 2) in shapes
        assert max(width for _, width in shapes) <= 4


class TestNoiseMemory:
    def test_machine_wide_window_queries_hold_no_tick_planes(self):
        """Window queries over a machine-wide realization allocate per
        window, not per tick: no interval array of the ticks they reach."""
        platform = get_platform("dardel")
        model = NoiseModel(platform.machine, platform.noise_profile.sources)
        real = model.realize(
            0.0, 20.0, range(platform.machine.n_cpus), RngFactory(1).stream("noise")
        )
        rows = np.arange(64)
        tracemalloc.start()
        try:
            for t in np.linspace(0.0, 10.0 - ms(5), 2000).tolist():
                real.stolen_time(rows, np.full(64, t), np.full(64, t + ms(5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
