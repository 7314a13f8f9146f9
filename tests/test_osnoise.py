"""Tests for the OS-noise substrate."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import NoiseModelError
from repro.obs.tracer import SpanTracer
from repro.osnoise import (
    NoiseModel,
    NoiseRealization,
    PoissonSource,
    TimerTickSource,
    dardel_noise,
    idle_first_cpus,
    noisy_profile,
    quiet_profile,
    vera_noise,
)
from repro.omp import OMPEnvironment, RegionExecutor
from repro.omp.runtime import OpenMPRuntime
from repro.osnoise.model import NoiseBatch
from repro.osnoise.source import PREFIX_TICKS, TickBlock
from repro.platform import available_platforms, get_platform, toy
from repro.rng import RngFactory
from repro.sim.intervals import IntervalSet
from repro.topology import TopologyBuilder, dardel_topology
from repro.types import ProcBind
from repro.units import ms, to_sim_ns_array, us


#: The non-tick events of a realization that has none.
NO_EVENTS = (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), [])


@pytest.fixture
def machine():
    # 2 sockets x 1 numa x 4 cores, SMT-2 -> 16 cpus, siblings (c, c+8)
    return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()


class TestTimerTickSource:
    def test_tick_count_matches_rate(self):
        src = TimerTickSource(hz=250.0, duration_mean=us(2), duration_jitter=us(1))
        rng = RngFactory(1).stream("ticks")
        starts, _, cpus = src.sample_block(0.0, 1.0, busy_cpus=[3], rng=rng).expand()
        assert 248 <= starts.size <= 251
        assert np.all(cpus == 3)

    def test_only_busy_cpus_tick(self):
        src = TimerTickSource()
        rng = RngFactory(1).stream("ticks")
        _, _, cpus = src.sample_block(0.0, 0.1, busy_cpus=[1, 5], rng=rng).expand()
        assert set(cpus.tolist()) == {1, 5}

    def test_no_busy_no_ticks(self):
        src = TimerTickSource()
        rng = RngFactory(1).stream("ticks")
        assert len(src.sample_block(0.0, 1.0, busy_cpus=[], rng=rng)) == 0

    def test_durations_in_band(self):
        src = TimerTickSource(duration_mean=us(2), duration_jitter=us(1))
        rng = RngFactory(2).stream("ticks")
        _, durations, _ = src.sample_block(0.0, 0.5, busy_cpus=[0], rng=rng).expand()
        assert np.all((us(1) <= durations) & (durations <= us(3)))

    def test_validation(self):
        with pytest.raises(NoiseModelError):
            TimerTickSource(hz=0)
        with pytest.raises(NoiseModelError):
            TimerTickSource(duration_mean=us(1), duration_jitter=us(2))


class TestPoissonSource:
    def test_event_count(self):
        src = PoissonSource(rate=100.0, duration_median=us(100))
        rng = RngFactory(3).stream("poisson")
        starts, _, _ = src.sample(0.0, 10.0, rng)
        assert 850 < starts.size < 1150

    def test_affinity_respected(self):
        src = PoissonSource(rate=50.0, affinity=(0, 5), kind="irq")
        rng = RngFactory(4).stream("poisson")
        _, _, cpus = src.sample(0.0, 5.0, rng)
        assert set(cpus.tolist()) <= {0, 5}

    def test_unaffine_events_unplaced(self):
        src = PoissonSource(rate=50.0)
        rng = RngFactory(4).stream("poisson")
        starts, _, cpus = src.sample(0.0, 1.0, rng)
        assert starts.size and cpus is None

    def test_duration_cap(self):
        src = PoissonSource(rate=200.0, duration_median=us(500), duration_sigma=3.0,
                            duration_cap=us(1000))
        rng = RngFactory(5).stream("poisson")
        _, durations, _ = src.sample(0.0, 5.0, rng)
        assert durations.max() <= us(1000)

    def test_zero_rate(self):
        src = PoissonSource(rate=0.0)
        rng = RngFactory(5).stream("poisson")
        starts, durations, cpus = src.sample(0.0, 100.0, rng)
        assert starts.size == durations.size == 0 and cpus is None

    def test_validation(self):
        with pytest.raises(NoiseModelError):
            PoissonSource(rate=-1.0)
        with pytest.raises(NoiseModelError):
            PoissonSource(affinity=())


class TestIdleFirstPlacement:
    def test_prefers_fully_idle_cores(self, machine):
        rng = RngFactory(6).stream("x")
        # busy: cpu 0..3 (cores 0..3 of socket 0). Fully idle cores: 4..7.
        cpus = idle_first_cpus(machine, [0, 1, 2, 3], 500, rng)
        assert set(cpus.tolist()) <= {4, 5, 6, 7, 12, 13, 14, 15}

    def test_falls_back_to_siblings(self, machine):
        # all 8 cores have thread0 busy -> only siblings idle
        cpus = idle_first_cpus(machine, list(range(8)), 200, RngFactory(7).stream("x"))
        assert np.all((8 <= cpus) & (cpus < 16))

    def test_preempts_when_saturated(self, machine):
        busy = list(range(16))
        cpus = idle_first_cpus(machine, busy, 200, RngFactory(8).stream("x"))
        assert np.all((0 <= cpus) & (cpus < 16))
        # noise now lands on busy cpus
        assert np.isin(cpus, busy).any()

    def test_affine_events_untouched(self, machine):
        model = NoiseModel(machine, [PoissonSource(rate=100.0, affinity=(2,), kind="irq"),
                                     PoissonSource(rate=100.0)])
        real = model.realize(0.0, 1.0, [0, 1], RngFactory(9).stream("x"))
        _, _, cpus, kinds = real.events()
        assert (kinds == "irq").any() and np.all(cpus[kinds == "irq"] == 2)
        assert not np.isin(cpus[kinds == "daemon"], [0, 1, 8, 9]).any()  # busy cores

    def test_bad_busy_cpu(self, machine):
        with pytest.raises(NoiseModelError, match="999"):
            idle_first_cpus(machine, [999], 1, RngFactory(1).stream("x"))


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
        assert all(column.size == 0 for column in real.events())

    def test_sibling_pressure(self, machine):
        # noise pinned on cpu 8 (sibling of cpu 0 in core 0)
        model = NoiseModel(
            machine, [PoissonSource(rate=50.0, duration_median=us(100), affinity=(8,))]
        )
        real = model.realize(0.0, 1.0, busy_cpus=[0], rng=RngFactory(2).stream("n"))
        batch = NoiseBatch([real])
        stolen, sibling = batch.overlap(
            [0], batch.sibling_rows(np.array([0])), np.zeros((1, 2)), np.ones((1, 2))
        )
        assert sibling[0, 0] > 0 and stolen[0, 0] == 0
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
        kinds = real.events()[3]
        assert np.count_nonzero(kinds == "tick") > 0

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
        for mine, theirs in zip(r1.events(), r2.events()):
            np.testing.assert_array_equal(mine, theirs)


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


#: Valid sources only: the longest tick ends 2 ns before the next one.
tick_sources = st.sampled_from([100.0, 250.0, 1000.0, 3000.0]).flatmap(
    lambda hz: st.builds(
        TimerTickSource,
        hz=st.just(hz),
        duration_mean=st.floats(min_value=1e-6, max_value=min(4e-4, 1 / hz - 5e-7 - 3e-9)),
        duration_jitter=st.just(5e-7),
    )
)


class TestTickBlock:
    @given(src=tick_sources, seed=st.integers(0, 2**16),
           t_start=st.floats(min_value=0.0, max_value=1.0),
           length=st.floats(min_value=0.0, max_value=0.3),
           busy=st.lists(st.integers(0, 15), max_size=5, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_full_expansion_is_the_reference_draw(self, src, seed, t_start, length, busy):
        t_end = t_start + length
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = src.sample_block(t_start, t_end, busy, rng)
        reference = reference_ticks(src, t_start, t_end, busy, ref_rng)
        for mine, ref in zip(block.expand(), reference):
            assert np.array_equal(mine, ref)
        assert len(block) == reference[0].size
        # the generator leaves in the same state, whatever is expanded later
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(src=tick_sources, seed=st.integers(0, 2**16),
           reach=st.floats(min_value=-0.1, max_value=0.4),
           busy=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True))
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
    @settings(max_examples=100, deadline=None)
    def test_growth_in_any_increments_is_the_reference_draw(self, src, seed, busy, data):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = src.sample_block(0.0, 0.3, busy, rng)
        reference = reference_ticks(src, 0.0, 0.3, busy, ref_rng)
        ref_durations = np.split(reference[1], np.cumsum(block.counts)[:-1])
        rows = st.integers(0, max(block.cpus.size - 1, 0))
        for _ in range(data.draw(st.integers(0, 6)) if block.cpus.size else 0):
            picked = np.asarray(data.draw(st.lists(rows, min_size=1, max_size=4)))
            need = data.draw(st.lists(st.integers(0, 1000), min_size=picked.size,
                                      max_size=picked.size))
            block.grow(picked, np.asarray(need))
            # every row holds a prefix of its reference draws, whatever grew
            assert np.all(block.drawn <= block.counts)
            for i, drawn in enumerate(block.drawn.tolist()):
                held = block.take(np.asarray([i]), np.arange(drawn)[None, :])[0]
                assert np.array_equal(held, ref_durations[i][:drawn])
        for mine, ref in zip(block.expand(), reference):
            assert np.array_equal(mine, ref)
        assert np.array_equal(block.drawn, block.counts)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_a_buffered_half_survives_the_jump(self, seed):
        src = TimerTickSource(hz=1000.0)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for gen in (rng, ref_rng):
            gen.random(dtype=np.float32)  # keeps the other half of its 64-bit draw
        block = src.sample_block(0.0, 0.5, [0, 1, 2], rng)
        reference = reference_ticks(src, 0.0, 0.5, [0, 1, 2], ref_rng)
        assert block.counts.min() > PREFIX_TICKS  # the generator jumped
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random(dtype=np.float32) == ref_rng.random(dtype=np.float32)
        for mine, ref in zip(block.expand(), reference):
            assert np.array_equal(mine, ref)

    @staticmethod
    def _check_clip(src, seed, busy, data, grow):
        """Clip random windows with the batch and by hand, from a twin
        block expanded in full, so the clipped block draws on its own;
        returns the block, the query slots, the windows and the twin's
        quantized tick starts."""
        block = src.sample_block(0.0, 0.3, busy, np.random.default_rng(seed))
        assume(len(block))
        twin = src.sample_block(0.0, 0.3, busy, np.random.default_rng(seed))
        starts, durations, cpus = twin.expand()
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
        machine = TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()
        batch = NoiseBatch([NoiseRealization(machine, NO_EVENTS, block)])
        clip_starts, clip_ends = batch._clip(slots, edges, np.asarray([0, slots.size]), grow)
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
        return block, slots, edges, ticks[0]

    @given(src=tick_sources, seed=st.integers(0, 2**16),
           busy=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_clip_is_the_expanded_ticks_clipped_by_hand(self, src, seed, busy, data):
        self._check_clip(src, seed, busy, data, grow=True)

    @given(src=tick_sources, seed=st.integers(0, 2**16),
           busy=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_cut_path_draws_only_ticks_that_can_meet_their_window(self, src, seed, busy, data):
        draws = []  # (block, stream positions drawn)

        def spy(self, starts, sizes):
            draws.append((self, np.repeat(starts, sizes) + np.arange(sizes.sum())
                          - np.repeat(np.cumsum(sizes) - sizes, sizes)))
            return draw(self, starts, sizes)

        draw = TickBlock._draw
        TickBlock._draw = spy
        try:
            block, slots, edges, tick_starts = self._check_clip(src, seed, busy, data, grow=False)
        finally:
            TickBlock._draw = draw
        assert np.array_equal(block.drawn, np.minimum(block.counts, PREFIX_TICKS))  # kept nothing
        reach = math.ceil(block.longest * 1e9) + 2
        offsets = np.cumsum(block.counts) - block.counts
        for position in [p for owner, ps in draws if owner is block for p in ps.tolist()]:
            row = int(np.searchsorted(block.positions, position, side="right")) - 1
            k = position - block.positions[row]
            assert block.drawn[row] <= k < block.counts[row]
            start = tick_starts[offsets[row] + k]
            assert any(start < edges[1, q] and start + reach > edges[0, q]
                       for q in np.flatnonzero(slots == row).tolist())


class TestTickPath:
    """A realization has one tick block, whose ticks are disjoint on every
    CPU; each input that could break that is rejected when it is built."""

    def test_every_preset_tick_source_is_disjoint(self):
        """Every preset's sources, and the loud profile's, pass."""
        cases = [get_platform(name) for name in available_platforms()]
        # the loud profile pins IRQs to Dardel's cpu 128
        cases.append(get_platform("dardel").with_noise(noisy_profile()))
        for platform in cases:
            machine = platform.machine
            model = NoiseModel(machine, platform.noise_profile.sources)
            real = model.realize(0.0, 0.1, range(machine.n_cpus), np.random.default_rng(1))
            assert len(real._tick) >= machine.n_cpus

    def test_ticks_need_two_nanoseconds_of_room(self):
        period, jitter = 1e-3, 5e-7
        TimerTickSource(hz=1 / period, duration_mean=period - 3e-9 - jitter,
                        duration_jitter=jitter)
        tight = period - 1e-9 - jitter
        with pytest.raises(NoiseModelError, match=re.escape(f"up to {tight + jitter} s")):
            TimerTickSource(hz=1 / period, duration_mean=tight, duration_jitter=jitter)

    def test_ticks_that_may_overlap_are_rejected(self):
        with pytest.raises(NoiseModelError, match="hz=3000.0"):
            TimerTickSource(hz=3000.0, duration_mean=4e-4, duration_jitter=5e-7)

    def test_a_repeated_busy_cpu_is_rejected(self):
        src = TimerTickSource()
        assert len(src.sample_block(0.0, 0.1, [0, 1], np.random.default_rng(1)))
        with pytest.raises(NoiseModelError, match="busy cpu 0 listed twice"):
            src.sample_block(0.0, 0.1, [0, 1, 0], np.random.default_rng(1))

    def test_a_second_tick_source_is_rejected(self, machine):
        second = TimerTickSource(hz=100.0)
        with pytest.raises(NoiseModelError, match="hz=100.0"):
            NoiseModel(machine, [TimerTickSource(), PoissonSource(), second])


def smt4_machine():
    # 1 socket x 1 numa x 3 cores, SMT-4 -> 12 cpus, siblings {c, c+3, c+6, c+9}
    return TopologyBuilder("smt4").add_sockets(1, 1, 3, smt=4).build()


HORIZON = 0.05


@st.composite
def realizations(draw, machine):
    """A realization with random non-tick events and one tick block (or,
    at random, none: a run without ticks)."""
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
    block = src.sample_block(0.0, HORIZON, draw(st.lists(cpu, max_size=6, unique=True)), rng)
    arrays = (
        np.asarray([e[0] for e in events]),
        np.asarray([e[1] for e in events]),
        np.asarray([e[2] for e in events], dtype=np.int64),
        ["daemon"] * len(events),
    )
    return NoiseRealization(machine, arrays, block if draw(st.integers(0, 4)) else None)


def oracle_sets(real):
    """Full-horizon per-CPU sets, built event by event, and their sibling
    unions: the per-CPU path the planes replace."""
    machine = real.machine
    starts, durations, cpus, _ = real.events()
    stolen = []
    for c in range(machine.n_cpus):
        s, d = starts[cpus == c], durations[cpus == c]
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
    """A batch of realizations answers every run's window queries as that
    run's full-horizon per-CPU sets do, bit for bit: the tick sum plus the
    rest plane for stolen time, the stolen rows or the union plane for
    sibling pressure."""

    def _check(self, machine, data):
        reals = data.draw(st.lists(realizations(machine), min_size=1, max_size=4))
        batch = NoiseBatch(reals)
        n_runs, n_cpus = len(reals), machine.n_cpus

        def windows(width):
            # independent edges: about half the windows are reversed
            return (
                np.asarray(data.draw(st.lists(
                    window_point, min_size=n_runs * width, max_size=n_runs * width
                ))).reshape(n_runs, width)
                for _ in range(2)
            )

        cpu = st.integers(0, n_cpus - 1)
        answers = []
        for _ in range(data.draw(st.integers(1, 5))):
            cpus = np.asarray(data.draw(st.lists(cpu, min_size=1, max_size=8)))
            # sibling pressure is read at the batch's row map; a CPU without
            # an SMT sibling maps to no row and has none
            sib_rows = batch.sibling_rows(cpus)
            has = sib_rows >= 0
            for q, c in enumerate(cpus.tolist()):
                assert has[q] == bool(machine.siblings_of(c))
            sib_cpus, rows = cpus[has], sib_rows[has]
            sa, sb = windows(cpus.size)
            pa, pb = windows(rows.size)
            # and every window again, moved past the horizon
            past = data.draw(st.floats(min_value=HORIZON, max_value=2 * HORIZON))
            sa, sb, pa, pb = (np.concatenate((x, x + past), axis=1) for x in (sa, sb, pa, pb))
            cpus, sib_cpus, rows = np.tile(cpus, 2), np.tile(sib_cpus, 2), np.tile(rows, 2)
            stolen, sibling = batch.overlap(
                cpus, rows, np.concatenate((sa, pa), axis=1), np.concatenate((sb, pb), axis=1)
            )
            assert stolen.shape == (n_runs, cpus.size) and stolen.flags.c_contiguous
            assert sibling.shape == (n_runs, rows.size) and sibling.flags.c_contiguous
            answers.append((cpus, sib_cpus, sa, sb, pa, pb, stolen, sibling))
        # the oracles draw every tick, so they are built after the queries:
        # the batch grew its blocks' rows and drew its far ticks on its own
        oracles = [oracle_sets(real) for real in reals]
        for cpus, sib_cpus, sa, sb, pa, pb, stolen, sibling in answers:
            for r, (own, pressure) in enumerate(oracles):
                for j, c in enumerate(cpus.tolist()):
                    assert stolen[r, j] == own[c].overlap(float(sa[r, j]), float(sb[r, j]))
                for j, c in enumerate(sib_cpus.tolist()):
                    assert sibling[r, j] == pressure[c].overlap(
                        float(pa[r, j]), float(pb[r, j]))
        # the full-horizon row views are the per-CPU sets
        for real, (own, _) in zip(reals, oracles):
            for c in range(n_cpus):
                assert real.stolen_on(c) == own[c]

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
        clip = NoiseBatch._clip

        def counting(self, slots, edges, blocks):
            out = clip(self, slots, edges, blocks)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(NoiseBatch, "_clip", counting)
        RegionExecutor([ctx]).execute(ctx.team, np.full(4, ms(1)))
        assert len(ctx.noise._tick) > 90_000
        assert (len(ctx.team.cpus), 2) in shapes
        assert max(width for _, width in shapes) <= 4


class TestNoiseMemory:
    """Four machine-wide 20-s Dardel realizations, queried on 64 CPUs: a
    block holds the tick durations queries have reached, not its
    horizon's, and a window query allocates per window, not per tick."""

    @staticmethod
    def _realize():
        platform = get_platform("dardel")
        model = NoiseModel(platform.machine, platform.noise_profile.sources)
        return [
            model.realize(
                0.0, 20.0, range(platform.machine.n_cpus), RngFactory(seed).stream("noise")
            )
            for seed in range(1, 5)
        ]

    @staticmethod
    def _query(batch, t_end):
        """2000 windows of 5 ms on 64 CPUs, spread over ``[0, t_end)``."""
        cpus, none = np.arange(64), np.empty(0, dtype=np.int64)
        for t in np.linspace(0.0, t_end - ms(5), 2000).tolist():
            batch.overlap(cpus, none, np.full((4, 64), t), np.full((4, 64), t + ms(5)))

    def test_realizations_hold_only_their_drawn_prefix(self):
        tracemalloc.start()
        try:
            reals = self._realize()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(real._tick) for real in reals) > 5_000_000
        assert held < 4 * 2**20

    def test_queries_near_the_start_draw_only_the_ticks_they_reach(self):
        tracemalloc.start()
        try:
            self._query(NoiseBatch(self._realize()), 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_queries_inside_the_prefix_hold_no_tick_planes(self):
        """Windows inside the drawn prefix grow nothing: no interval array
        of the ticks they reach, and no copy of a run's tick durations."""
        batch = NoiseBatch(self._realize())
        tracemalloc.start()
        try:
            self._query(batch, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
