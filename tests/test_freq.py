"""Tests for the frequency/DVFS substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrequencyError
from repro.freq import (
    BoostTable,
    CpuFreqSysfs,
    DerateProcess,
    DipProcess,
    FrequencyModel,
    FrequencySpec,
    PerformanceGovernor,
    PowersaveGovernor,
    OndemandGovernor,
    SchedutilGovernor,
    make_governor,
)
from repro.freq.dvfs import FrequencyPlan, _LazyTraces
from repro.rng import RngFactory
from repro.sim.trace import PiecewiseConstant
from repro.topology import TopologyBuilder
from repro.units import ghz


@pytest.fixture
def machine():
    return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=1).build()


def simple_spec(**kwargs):
    defaults = dict(
        min_hz=ghz(1.0),
        base_hz=ghz(2.0),
        boost=BoostTable.from_ghz([(2, 3.0), (4, 2.6), (8, 2.2)]),
        pstate_step_hz=25e6,
    )
    defaults.update(kwargs)
    return FrequencySpec(**defaults)


class TestBoostTable:
    def test_lookup(self):
        t = BoostTable.from_ghz([(2, 3.7), (16, 3.1), (32, 2.8)])
        assert t.freq_for(1) == ghz(3.7)
        assert t.freq_for(2) == ghz(3.7)
        assert t.freq_for(3) == ghz(3.1)
        assert t.freq_for(16) == ghz(3.1)
        assert t.freq_for(17) == ghz(2.8)
        assert t.freq_for(500) == ghz(2.8)  # beyond table: all-core floor

    def test_properties(self):
        t = BoostTable.from_ghz([(2, 3.7), (32, 2.8)])
        assert t.single_core_boost == ghz(3.7)
        assert t.all_core_floor == ghz(2.8)

    def test_flat(self):
        t = BoostTable.flat(ghz(2.0))
        assert t.freq_for(1) == t.freq_for(1000) == ghz(2.0)

    def test_validation(self):
        with pytest.raises(FrequencyError):
            BoostTable(())
        with pytest.raises(FrequencyError):
            BoostTable.from_ghz([(2, 3.0), (2, 2.8)])  # non-increasing counts
        with pytest.raises(FrequencyError):
            BoostTable.from_ghz([(2, 3.0), (4, 3.5)])  # increasing freq
        with pytest.raises(FrequencyError):
            t = BoostTable.from_ghz([(2, 3.0)])
            t.freq_for(-1)


class TestGovernors:
    def test_performance(self):
        g = PerformanceGovernor()
        assert g.target_freq(1e9, 3e9, 0.0) == 3e9
        assert g.target_freq(1e9, 3e9, 1.0) == 3e9

    def test_powersave(self):
        g = PowersaveGovernor()
        assert g.target_freq(1e9, 3e9, 1.0) == 1e9

    def test_ondemand_threshold(self):
        g = OndemandGovernor(up_threshold=0.8)
        assert g.target_freq(1e9, 3e9, 0.9) == 3e9
        mid = g.target_freq(1e9, 3e9, 0.4)
        assert 1e9 < mid < 3e9

    def test_schedutil_curve(self):
        g = SchedutilGovernor()
        assert g.target_freq(1e9, 3e9, 1.0) == 3e9
        assert g.target_freq(1e9, 3e9, 0.0) == 1e9
        assert g.target_freq(1e9, 3e9, 0.5) == pytest.approx(1.25 * 0.5 * 3e9)

    def test_make_governor(self):
        assert make_governor("performance").name == "performance"
        with pytest.raises(FrequencyError):
            make_governor("warp-speed")

    def test_input_validation(self):
        g = PerformanceGovernor()
        with pytest.raises(FrequencyError):
            g.target_freq(-1.0, 3e9, 0.5)
        with pytest.raises(FrequencyError):
            g.target_freq(1e9, 3e9, 1.5)
        with pytest.raises(FrequencyError):
            g.target_freq(3e9, 1e9, 0.5)


class TestDipProcess:
    def test_zero_rate_no_dips(self, machine):
        p = DipProcess(base_rate=0.0, cross_numa_rate=0.0)
        rng = RngFactory(1).stream("dips")
        assert p.sample(0.0, 100.0, (0,), False, rng) == []

    def test_cross_numa_raises_rate(self):
        p = DipProcess(base_rate=0.5, cross_numa_rate=4.0)
        assert p.rate(False) == 0.5
        assert p.rate(True) == 4.5

    def test_sample_statistics(self):
        p = DipProcess(base_rate=5.0, duration_median=0.01)
        rng = RngFactory(2).stream("dips")
        dips = p.sample(0.0, 200.0, (0,), False, rng)
        # expect ~1000 dips; Poisson fluctuation well within +-20%
        assert 800 < len(dips) < 1200
        for d in dips[:50]:
            assert 0.0 <= d.start < 200.0
            assert d.duration > 0
            assert 0.0 < d.depth <= 1.0

    def test_per_socket_sampling(self):
        p = DipProcess(base_rate=2.0)
        rng = RngFactory(3).stream("dips")
        dips = p.sample(0.0, 50.0, (0, 1), False, rng)
        sockets = {d.socket_id for d in dips}
        assert sockets == {0, 1}

    def test_validation(self):
        with pytest.raises(FrequencyError):
            DipProcess(base_rate=-1.0)
        with pytest.raises(FrequencyError):
            DipProcess(depth_low=0.9, depth_high=0.5)


class TestDerateProcess:
    def test_probability_scales_with_load(self):
        p = DerateProcess(prob_at_full_load=0.1, load_exponent=2.0)
        assert p.probability(1.0) == pytest.approx(0.1)
        assert p.probability(0.5) == pytest.approx(0.025)
        assert p.probability(0.0) == 0.0

    def test_sample_factor_bounds(self):
        p = DerateProcess(prob_at_full_load=1.0, depth_low=0.88, depth_high=0.94)
        rng = RngFactory(4).stream("derate")
        for _ in range(20):
            f = p.sample_factor(1.0, rng)
            assert 0.88 <= f <= 0.94

    def test_zero_probability_never_derates(self):
        p = DerateProcess(prob_at_full_load=0.0)
        rng = RngFactory(5).stream("derate")
        assert all(p.sample_factor(1.0, rng) == 1.0 for _ in range(50))


class TestFrequencyModel:
    def test_steady_plan_performance_governor(self, machine):
        spec = simple_spec()
        model = FrequencyModel(machine, spec)
        rng = RngFactory(1).stream("freq")
        plan = model.plan(0.0, 1.0, active_cpus=[0, 1], governor=PerformanceGovernor(), rng=rng)
        # 2 active cores -> boost 3.0 GHz for every cpu (performance governor)
        assert plan.freq_at(0, 0.5) == pytest.approx(ghz(3.0))
        assert plan.freq_at(7, 0.5) == pytest.approx(ghz(3.0))

    def test_boost_depends_on_active_cores(self, machine):
        spec = simple_spec()
        model = FrequencyModel(machine, spec)
        rng = RngFactory(1).stream("freq")
        plan = model.plan(0.0, 1.0, active_cpus=list(range(6)), governor=PerformanceGovernor(), rng=rng)
        assert plan.freq_at(0, 0.5) == pytest.approx(ghz(2.2))

    def test_duration_for_cycles(self, machine):
        model = FrequencyModel(machine, simple_spec())
        rng = RngFactory(1).stream("freq")
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), rng)
        # 3 GHz: 3e9 cycles take 1 second
        assert plan.duration_for_cycles(0, 0.0, 3.0e9) == pytest.approx(1.0)
        assert plan.duration_for_cycles(0, 0.0, 0.0) == 0.0

    def test_dips_lower_frequency(self, machine):
        spec = simple_spec(
            dips=DipProcess(base_rate=50.0, duration_median=0.01, depth_low=0.7, depth_high=0.8)
        )
        model = FrequencyModel(machine, spec)
        rng = RngFactory(7).stream("freq")
        plan = model.plan(0.0, 2.0, [0, 1], PerformanceGovernor(), rng)
        assert len(plan.dips) > 0
        trace = plan.trace(0)
        assert trace.values[trace.times < 2.0].min() < ghz(3.0) * 0.85

    def test_derate_affects_whole_window(self, machine):
        spec = simple_spec(derate=DerateProcess(prob_at_full_load=1.0, load_exponent=0.0))
        model = FrequencyModel(machine, spec)
        rng = RngFactory(8).stream("freq")
        plan = model.plan(0.0, 1.0, [0, 1], PerformanceGovernor(), rng)
        f = plan.freq_at(0, 0.5)
        assert f < ghz(3.0) * 0.95

    def test_determinism(self, machine):
        spec = simple_spec(jitter_amplitude=0.01, jitter_rate=5.0,
                           dips=DipProcess(base_rate=2.0))
        model = FrequencyModel(machine, spec)
        p1 = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(9).stream("f"))
        p2 = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(9).stream("f"))
        np.testing.assert_array_equal(p1.snapshot(0.5), p2.snapshot(0.5))

    def test_snapshot_shape(self, machine):
        model = FrequencyModel(machine, simple_spec())
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(1).stream("f"))
        assert plan.snapshot(0.1).shape == (machine.n_cpus,)

    def test_quantization(self, machine):
        spec = simple_spec(jitter_amplitude=0.02, jitter_rate=50.0)
        model = FrequencyModel(machine, spec)
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(3).stream("f"))
        values = plan.trace(0).values
        steps = values / spec.pstate_step_hz
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_spec_validation(self):
        with pytest.raises(FrequencyError):
            simple_spec(min_hz=ghz(3.0), base_hz=ghz(2.0))
        with pytest.raises(FrequencyError):
            simple_spec(base_hz=ghz(3.5))  # above single-core boost

    def test_machine_wide_plan_samples_dips_on_every_socket(self, machine):
        """machine_wide=True (unbound teams): dip/derate triggers must not be
        anchored to the initial placement's sockets."""
        spec = simple_spec(
            dips=DipProcess(base_rate=40.0, duration_median=0.01,
                            depth_low=0.7, depth_high=0.8)
        )
        model = FrequencyModel(machine, spec)
        # team only on socket 0 (cpus 0-3); machine-wide triggers still
        # reach socket 1
        plan = model.plan(
            0.0, 3.0, [0, 1], PerformanceGovernor(),
            RngFactory(4).stream("freq"), machine_wide=True,
        )
        assert {d.socket_id for d in plan.dips} == {0, 1}

    def test_machine_wide_keeps_team_boost_limit(self, machine):
        """The boost limit still follows the team's active-core count."""
        model = FrequencyModel(machine, simple_spec())
        plan = model.plan(
            0.0, 1.0, [0, 1], PerformanceGovernor(),
            RngFactory(1).stream("freq"), machine_wide=True,
        )
        # 2 active cores -> 3.0 GHz everywhere, not the 8-core 2.2 GHz floor
        assert plan.freq_at(0, 0.5) == pytest.approx(ghz(3.0))
        assert plan.freq_at(7, 0.5) == pytest.approx(ghz(3.0))


def reference_traces(model, window_start, window_end, active_cpus, governor, rng,
                     machine_wide=False, states=None):
    """A per-CPU plan loop that finishes each CPU's trace before drawing
    the next: the oracle of :meth:`FrequencyModel.plan`'s traces and
    draws.  *states*, if given, receives the stream's state before CPU 0
    and after each CPU."""
    machine, spec = model.machine, model.spec
    active = list(dict.fromkeys(active_cpus))
    active_cores = machine.cores_spanned(active) if active else 0
    if machine_wide:
        cross_numa = machine.numa_span(range(machine.n_cpus)) > 1
        busy_set = set(range(machine.n_cpus))
        socket_ids = tuple(s.socket_id for s in machine.sockets)
    else:
        cross_numa = machine.numa_span(active) > 1 if active else False
        busy_set = set(active)
        socket_ids = tuple(
            sorted({machine.hwthread(c).socket_id for c in active})
        ) or tuple(s.socket_id for s in machine.sockets)
    occupancy = (active_cores / machine.n_cores) if active else None
    dips = spec.dips.sample(
        window_start, window_end, socket_ids, cross_numa, rng, occupancy=occupancy
    )
    dips_by_socket = {}
    for dip in dips:
        dips_by_socket.setdefault(dip.socket_id, []).append(dip)
    load = active_cores / machine.n_cores
    derate_by_socket = {s: spec.derate.sample_factor(load, rng) for s in socket_ids}
    traces = {}
    horizon = window_end - window_start
    if states is not None:
        states.append(rng.bit_generator.state)
    for cpu in range(machine.n_cpus):
        base = model.steady_target(governor, active_cores, cpu in busy_set)
        base *= derate_by_socket.get(machine.hwthread(cpu).socket_id, 1.0)
        times = [window_start]
        if spec.jitter_rate > 0:
            n_jit = int(rng.poisson(spec.jitter_rate * horizon))
            if n_jit:
                times.extend((window_start + rng.random(n_jit) * horizon).tolist())
        cpu_dips = dips_by_socket.get(machine.hwthread(cpu).socket_id, ())
        for dip in cpu_dips:
            times.append(dip.start)
            times.append(dip.start + dip.duration)
        times = sorted({round(t, 12) for t in times if t >= window_start})
        t_arr = np.asarray(times)
        if spec.jitter_amplitude > 0:
            jitter = 1.0 + rng.uniform(
                -spec.jitter_amplitude, spec.jitter_amplitude, size=t_arr.size
            )
        else:
            jitter = np.ones(t_arr.size)
        values = base * jitter
        for dip in cpu_dips:
            lo, hi = dip.start, dip.start + dip.duration
            mask = (t_arr >= lo - 1e-12) & (t_arr < hi - 1e-12)
            values[mask] = np.minimum(values[mask], base * jitter[mask] * dip.depth)
        values = np.asarray(model._quantize(values), dtype=np.float64)
        keep = np.ones(t_arr.size, dtype=bool)
        keep[1:] = values[1:] != values[:-1]
        traces[cpu] = (t_arr[keep], values[keep])
        if states is not None:
            states.append(rng.bit_generator.state)
    return traces


@st.composite
def plan_cases(draw):
    """A model over a 16-CPU machine (2 sockets x 2 numa x 2 cores,
    SMT-2: cross-NUMA teams are possible), one window's plan arguments
    ``(window_start, window_end, active_cpus, governor)``, *machine_wide*
    and a seed."""
    machine = TopologyBuilder("oracle").add_sockets(2, 2, 2, smt=2).build()
    depths = sorted(draw(st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0))))
    spec = simple_spec(
        jitter_amplitude=draw(st.sampled_from([0.0, 0.002, 0.05])),
        jitter_rate=draw(st.sampled_from([0.0, 3.0, 40.0])),
        dips=DipProcess(
            base_rate=draw(st.sampled_from([0.0, 5.0, 60.0])),
            cross_numa_rate=draw(st.sampled_from([0.0, 30.0])),
            duration_median=draw(st.floats(min_value=1e-5, max_value=0.05)),
            depth_low=depths[0], depth_high=depths[1],
        ),
        derate=DerateProcess(
            prob_at_full_load=draw(st.sampled_from([0.0, 1.0])), load_exponent=0.0
        ),
    )
    window_start = draw(st.floats(min_value=0.0, max_value=2.0))
    args = (
        window_start,
        window_start + draw(st.floats(min_value=1e-3, max_value=3.0)),
        draw(st.lists(st.integers(0, 15), max_size=6)),
        make_governor(draw(st.sampled_from(["performance", "ondemand", "powersave"]))),
    )
    return FrequencyModel(machine, spec), args, draw(st.booleans()), draw(st.integers(0, 2**16))


def assert_reference_traces(plan, reference, cpus):
    for cpu in cpus:
        times, values = reference[cpu]
        assert np.array_equal(plan.trace(cpu).times, times)
        assert np.array_equal(plan.trace(cpu).values, values)


class TestPlanOracle:
    """The lazy plan builds the reference loop's traces bit for bit, in
    whatever order its CPUs are asked for, and leaves the stream where
    the loop left it after the highest CPU built."""

    @given(case=plan_cases())
    @settings(max_examples=150, deadline=None)
    def test_traces_match_reference_loop(self, case):
        model, args, machine_wide, seed = case
        rng, ref_rng = RngFactory(seed).stream("f"), RngFactory(seed).stream("f")
        plan = model.plan(*args, rng, machine_wide)
        reference = reference_traces(model, *args, ref_rng, machine_wide)
        assert_reference_traces(plan, reference, reference)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        case=plan_cases(),
        order=st.sampled_from(["ascending", "descending", "permutation", "team", "snapshot"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_request_order_builds_the_reference_traces(self, case, order, data):
        model, args, machine_wide, seed = case
        n = model.machine.n_cpus
        rng, ref_rng = RngFactory(seed).stream("f"), RngFactory(seed).stream("f")
        plan = model.plan(*args, rng, machine_wide)
        reference = reference_traces(model, *args, ref_rng, machine_wide)
        if order == "ascending":
            cpus = list(range(n))
        elif order == "descending":
            cpus = list(range(n - 1, -1, -1))
        else:
            cpus = data.draw(st.permutations(range(n)))
        if order == "team":
            team = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
            for cpu, trace in zip(team, plan.traces_for(team)):
                assert trace is plan.trace(cpu)
        elif order == "snapshot":
            # traces start at round(window_start, 12), up to 5e-13 later
            snap = plan.snapshot(data.draw(st.floats(args[0] + 1e-9, args[1] + 1.0)))
            assert snap.shape == (n,)
        assert_reference_traces(plan, reference, cpus)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(case=plan_cases(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_plans_from_one_seed_agree_in_any_order(self, case, data):
        model, args, machine_wide, seed = case
        n = model.machine.n_cpus
        rngs = [RngFactory(seed).stream("f") for _ in range(2)]
        plans = [model.plan(*args, rng, machine_wide) for rng in rngs]
        for plan in plans:
            for cpu in data.draw(st.permutations(range(n))):
                plan.trace(cpu)
        for cpu in range(n):
            a, b = (plan.trace(cpu) for plan in plans)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @given(case=plan_cases(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_partial_plan_drew_what_the_loop_drew_up_to_its_cpu(self, case, data):
        model, args, machine_wide, seed = case
        n = model.machine.n_cpus
        rng, ref_rng = RngFactory(seed).stream("f"), RngFactory(seed).stream("f")
        plan = model.plan(*args, rng, machine_wide)
        states = []
        reference_traces(model, *args, ref_rng, machine_wide, states=states)
        # states[0]: before CPU 0 (dips and derate drawn); states[k + 1]:
        # after CPU k
        assert rng.bit_generator.state == states[0]
        highest = -1
        for cpu in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
            plan.trace(cpu)
            highest = max(highest, cpu)
            assert rng.bit_generator.state == states[highest + 1]

    def test_cpus_off_the_machine_raise(self, machine):
        model = FrequencyModel(machine, simple_spec(jitter_amplitude=0.01, jitter_rate=5.0))
        rng, ref_rng = RngFactory(2).stream("f"), RngFactory(2).stream("f")
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), rng)
        states = []
        reference_traces(model, 0.0, 1.0, [0], PerformanceGovernor(), ref_rng, states=states)
        for cpu in (-1, machine.n_cpus):
            with pytest.raises(KeyError):
                plan.trace(cpu)
            with pytest.raises(KeyError):
                plan.freq_at(cpu, 0.5)
            with pytest.raises(KeyError):
                plan.traces_for([cpu])
        # -1 did not wrap around to the last CPU: nothing was built
        assert rng.bit_generator.state == states[0]
        plan.trace(0)
        assert rng.bit_generator.state == states[1]

    def test_team_request_builds_in_one_extension(self, machine, monkeypatch):
        stops = []
        build = _LazyTraces._build

        def counting(self, stop):
            stops.append(stop)
            build(self, stop)

        monkeypatch.setattr(_LazyTraces, "_build", counting)
        model = FrequencyModel(machine, simple_spec(jitter_amplitude=0.01, jitter_rate=5.0))
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(2).stream("f"))
        plan.traces_for([3, 0, 5, 1])
        plan.snapshot(0.5)
        assert stops == [6, machine.n_cpus]

    def test_explicit_plan_must_cover_every_cpu(self, machine):
        trace = PiecewiseConstant([0.0], [2.0e9])
        traces = {cpu: trace for cpu in range(machine.n_cpus)}
        assert FrequencyPlan(machine, traces, 0.0, 2.0e9).trace(3) is trace
        del traces[3]
        with pytest.raises(FrequencyError, match="every cpu"):
            FrequencyPlan(machine, traces, 0.0, 2.0e9)
        with pytest.raises(FrequencyError, match="every cpu"):
            FrequencyPlan(machine, {**traces, 3: trace, 99: trace}, 0.0, 2.0e9)


class TestSysfs:
    def test_read_paths(self, machine):
        spec = simple_spec()
        model = FrequencyModel(machine, spec)
        plan = model.plan(0.0, 1.0, [0, 1], PerformanceGovernor(), RngFactory(1).stream("f"))
        fs = CpuFreqSysfs(spec, plan, "performance")
        khz = int(fs.read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq", 0.5))
        assert khz == pytest.approx(3_000_000)
        assert fs.read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", 0.0) == "performance"
        assert int(fs.read("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq", 0.0)) == 3_000_000
        assert int(fs.read("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_min_freq", 0.0)) == 1_000_000
        assert "performance" in fs.read(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_governors", 0.0
        )

    def test_bad_paths(self, machine):
        spec = simple_spec()
        model = FrequencyModel(machine, spec)
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(1).stream("f"))
        fs = CpuFreqSysfs(spec, plan, "performance")
        with pytest.raises(FrequencyError):
            fs.read("/sys/nonsense", 0.0)
        with pytest.raises(FrequencyError):
            fs.read("/sys/devices/system/cpu/cpu999/cpufreq/scaling_cur_freq", 0.0)
        with pytest.raises(FrequencyError):
            fs.read("/sys/devices/system/cpu/cpu0/cpufreq/energy_bias", 0.0)

    def test_snapshot_khz(self, machine):
        spec = simple_spec()
        model = FrequencyModel(machine, spec)
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(1).stream("f"))
        fs = CpuFreqSysfs(spec, plan, "performance")
        snap = fs.snapshot_khz(0.5)
        assert snap.shape == (machine.n_cpus,)
        assert snap.dtype == np.int64

    def test_path_for(self, machine):
        spec = simple_spec()
        model = FrequencyModel(machine, spec)
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(), RngFactory(1).stream("f"))
        fs = CpuFreqSysfs(spec, plan, "performance")
        path = fs.path_for(3)
        assert path == "/sys/devices/system/cpu/cpu3/cpufreq/scaling_cur_freq"
        assert fs.read(path, 0.0)
