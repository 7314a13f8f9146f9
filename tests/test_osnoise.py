"""Tests for the OS-noise substrate."""

import numpy as np
import pytest

from repro.errors import NoiseModelError
from repro.obs.tracer import SpanTracer
from repro.osnoise import (
    IdleFirstPlacement,
    NoiseModel,
    NoiseRealization,
    PinnedPlacement,
    PoissonSource,
    TimerTickSource,
    dardel_noise,
    noisy_profile,
    quiet_profile,
    vera_noise,
)
from repro.rng import RngFactory
from repro.topology import TopologyBuilder, dardel_topology
from repro.units import us


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
        assert real.total_stolen(0, 0.0, 1.0) == pytest.approx(stolen0.total)

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
        assert real.sibling_pressure_on(0).total > 0
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
