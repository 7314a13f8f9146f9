"""Tests for the OS scheduler model."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.platform import get_platform
from repro.rng import RngFactory
from repro.sched import (
    BalancerModel,
    MigrationModel,
    RunqueueState,
    SchedParams,
    SchedulerModel,
    WakeupPlacer,
)
from repro.topology import TopologyBuilder, dardel_topology
from repro.units import ms, us


@pytest.fixture
def machine():
    return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()  # 16 cpus


@lru_cache(maxsize=None)
def oracle_machine(name):
    """The placement oracle's machines: the 16-CPU SMT-2 fixture, Vera (32
    CPUs, no SMT), Dardel (256, SMT-2, four NUMA domains per socket) and a
    32-CPU SMT-4 machine with two NUMA domains per socket."""
    if name == "toy":
        return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()
    if name == "smt4":
        return TopologyBuilder("smt4").add_sockets(2, 2, 2, smt=4).build()
    return get_platform(name).machine


ORACLE_MACHINES = ("toy", "vera", "dardel", "smt4")
STACKING_PROBS = (0.0, 0.0015, 0.05, 0.5, 1.0)


def reference_place_one(machine, params, waker_cpu, rq, rng,
                        allow_stacking_shortcut=True):
    """The list-based wakeup search, one Python test per pool CPU: the
    oracle of the placer's draws and picks."""
    m = machine
    load = rq.load_fraction()
    stacking_prob = min(1.0, params.stacking_prob_per_thread * (1.0 + 8.0 * load))
    if allow_stacking_shortcut and rng.random() < stacking_prob:
        return int(rng.integers(0, m.n_cpus))
    waker = m.hwthread(waker_cpu)
    same_numa = [c for c in m.numa_domains[waker.numa_id].cpu_ids]
    same_socket = [
        c for c in m.sockets[waker.socket_id].cpu_ids if c not in set(same_numa)
    ]
    seen = set(same_numa) | set(same_socket)
    rest = [c for c in range(m.n_cpus) if c not in seen]
    pools = [same_numa, same_socket, rest]
    counts = rq.counts()
    for pool in pools:
        idle_core_cpus = [
            c
            for c in pool
            if all(counts[s] == 0 for s in m.core_of(c).cpu_ids)
            and m.hwthread(c).smt_index == 0
        ]
        if idle_core_cpus:
            return int(rng.choice(idle_core_cpus))
    for pool in pools:
        idle = [c for c in pool if counts[c] == 0]
        if idle:
            return int(rng.choice(idle))
    least = counts.min()
    return int(rng.choice(np.flatnonzero(counts == least)))


def reference_place_team(machine, params, n_threads, master_cpu, rng,
                         external_busy=()):
    rq = RunqueueState(machine)
    for cpu in external_busy:
        rq.add(cpu)
    rq.add(master_cpu)
    cpus = [master_cpu]
    for _ in range(1, n_threads):
        cpu = reference_place_one(machine, params, master_cpu, rq, rng)
        rq.add(cpu)
        cpus.append(cpu)
    return cpus


@st.composite
def team_forks(draw):
    """A machine, a team of 1 to 2x its CPUs, a master, external busy CPUs
    (repeats stack) and a stacking probability."""
    name = draw(st.sampled_from(ORACLE_MACHINES))
    n = oracle_machine(name).n_cpus
    return (
        name,
        draw(st.integers(1, 2 * n)),
        draw(st.integers(0, n - 1)),
        draw(st.lists(st.integers(0, n - 1), max_size=n)),
        draw(st.sampled_from(STACKING_PROBS)),
        draw(st.integers(0, 2**32 - 1)),
    )


@lru_cache(maxsize=None)
def shared_placer(name, stacking):
    """One placer per (machine, stacking probability), reused across
    examples so its cached pools meet many runqueue states."""
    params = SchedParams(stacking_prob_per_thread=stacking)
    return WakeupPlacer(oracle_machine(name), params)


#: ``fork_unbound`` CPUs recorded from the list-based placer, with each
#: platform's scheduler parameters, master CPU 0 and run 0's placement
#: stream. Dardel's 254 threads outnumber its 128 cores, so the idle
#: hardware-thread pass places the last 126 workers.
PINNED_UNBOUND_CPUS = {
    ("dardel", 1): (
        "0 14 2 3 12 10 11 7 15 4 6 5 9 1 13 8 32 39 31 60 37 35 48 34 46 "
        "62 43 59 54 29 33 28 19 27 38 61 50 21 26 30 23 58 52 45 17 22 "
        "49 42 24 25 56 16 57 63 53 55 41 47 18 51 36 44 40 20 124 90 122 "
        "111 92 87 64 113 74 84 85 107 106 110 72 69 112 119 73 104 95 79 "
        "97 115 67 70 88 81 86 83 91 71 66 98 89 114 125 99 121 105 82 75 "
        "93 102 80 108 116 127 94 76 96 109 68 120 117 126 100 103 65 77 "
        "118 101 123 78 140 135 134 128 139 143 136 132 131 130 138 141 "
        "129 133 142 137 150 149 153 178 173 187 170 189 183 146 169 174 "
        "172 157 160 156 185 164 188 180 151 176 182 147 163 148 144 159 "
        "186 145 154 158 171 179 184 161 181 168 167 162 152 177 191 166 "
        "165 190 175 155 234 254 242 216 222 204 250 215 226 207 209 219 "
        "235 202 237 211 239 236 217 213 241 229 240 244 196 198 194 212 "
        "249 210 223 251 253 201 197 199 203 231 232 230 247 195 228 248 "
        "221 225 243 192 227 224 208 220 255 233 200 218 205 252 193 214 "
        "246 206 "
    ),
    ("dardel", 2): (
        "0 3 2 15 1 9 13 10 8 5 6 4 12 11 14 7 49 43 54 45 50 22 36 24 56 "
        "62 46 44 61 51 31 58 55 52 34 32 18 53 40 38 63 29 23 57 21 27 "
        "16 26 35 42 59 25 19 39 17 33 37 48 28 20 41 30 47 60 112 103 87 "
        "89 117 65 104 98 97 113 110 80 93 88 111 69 78 67 85 82 75 96 91 "
        "101 127 73 64 92 119 79 124 76 126 122 105 86 99 70 118 120 116 "
        "74 81 114 106 84 121 66 94 77 125 102 83 68 95 107 115 100 108 "
        "90 123 109 71 72 131 140 128 143 138 133 129 141 136 130 137 135 "
        "139 132 134 142 190 161 179 174 150 164 153 184 155 147 157 191 "
        "165 160 146 156 154 158 187 171 166 186 159 188 145 152 169 167 "
        "185 168 176 173 183 144 180 177 178 181 163 148 162 182 189 149 "
        "175 172 151 170 193 220 253 238 218 192 234 239 224 242 197 227 "
        "204 222 201 202 209 236 231 217 223 248 207 211 214 244 241 206 "
        "203 240 195 216 237 226 221 249 251 200 212 194 228 198 245 225 "
        "230 213 243 233 254 208 250 229 246 196 210 235 232 219 215 252 "
        "199 205 "
    ),
    ("dardel", 3): (
        "0 14 7 1 15 11 5 9 12 8 4 10 2 6 3 13 26 33 23 34 19 46 39 60 54 "
        "52 32 59 37 31 44 61 18 53 47 55 16 48 20 29 43 50 62 41 57 35 "
        "17 27 38 21 24 49 45 42 25 40 56 30 51 63 28 22 36 58 68 80 69 "
        "74 110 118 107 124 105 115 126 117 108 66 101 121 114 120 71 89 "
        "100 99 111 127 86 96 106 64 65 87 79 85 122 123 119 81 82 77 95 "
        "112 73 94 109 103 67 88 98 93 125 84 76 102 104 116 97 75 113 72 "
        "91 92 70 83 78 90 139 128 134 138 133 129 135 130 131 143 132 "
        "136 141 140 137 142 171 182 160 168 189 145 188 165 150 146 181 "
        "167 187 186 164 173 153 172 179 151 178 183 149 155 157 161 144 "
        "170 158 156 148 190 176 147 163 169 180 159 177 162 175 191 185 "
        "166 152 174 154 184 246 207 212 255 203 214 229 238 251 225 198 "
        "234 248 228 223 245 200 217 254 196 240 244 232 253 231 237 233 "
        "211 201 194 219 193 215 236 213 202 220 204 216 243 249 222 242 "
        "197 206 252 239 192 247 195 224 210 235 221 230 205 241 227 250 "
        "208 209 218 "
    ),
    ("vera", 1): (
        "0 14 2 3 12 10 11 7 15 4 6 5 9 1 13 8 21 24 20 31 23 22 27 19 26 "
        "30 25 29 28 17 16 "
    ),
    ("vera", 2): (
        "0 3 2 15 1 9 13 10 8 5 6 4 12 11 14 7 27 24 29 25 26 17 21 18 30 "
        "31 23 22 28 20 16 "
    ),
    ("vera", 3): (
        "0 14 7 1 15 11 5 9 12 8 4 10 2 6 3 13 19 22 18 23 16 27 25 31 29 "
        "28 21 30 20 24 26 "
    ),
}


class TestSchedParams:
    def test_defaults_valid(self):
        SchedParams()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SchedParams(wake_ipi_cost=-1.0)
        with pytest.raises(ConfigurationError):
            SchedParams(stacking_prob_per_thread=2.0)
        with pytest.raises(ConfigurationError):
            SchedParams(stacking_share=0.0)
        with pytest.raises(ConfigurationError):
            SchedParams(sched_delay_median=0.0)
        with pytest.raises(ConfigurationError):
            SchedParams(fork_wake_fraction=1.5)


class TestRunqueueState:
    def test_add_remove(self, machine):
        rq = RunqueueState(machine)
        rq.add(3)
        rq.add(3)
        assert rq.counts()[3] == 2
        rq.remove(3)
        assert rq.counts()[3] == 1

    def test_remove_too_many(self, machine):
        rq = RunqueueState(machine)
        with pytest.raises(SimulationError):
            rq.remove(0)

    def test_move(self, machine):
        rq = RunqueueState(machine)
        rq.add(0)
        rq.move(0, 5)
        assert rq.counts()[[0, 5]].tolist() == [0, 1]

    def test_idle_queries(self, machine):
        rq = RunqueueState(machine)
        rq.add(0)  # core 0 busy on thread0, its sibling 8 idle
        assert not rq.idle_core_mask()[[0, 8]].any()
        assert 0 not in rq.idle_cores()
        assert 1 in rq.idle_cores()

    def test_stacked(self, machine):
        rq = RunqueueState(machine)
        rq.add(2)
        rq.add(2)
        assert np.flatnonzero(rq.counts() > 1).tolist() == [2]

    def test_load_fraction(self, machine):
        rq = RunqueueState(machine)
        assert rq.load_fraction() == 0.0
        for c in range(8):
            rq.add(c)
        assert rq.load_fraction() == pytest.approx(0.5)

    def test_bad_cpu(self, machine):
        with pytest.raises(SimulationError):
            RunqueueState(machine).add(99)

    @given(name=st.sampled_from(ORACLE_MACHINES),
           busy=st.lists(st.integers(0, 511), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_idle_core_mask_is_the_per_core_scan(self, name, busy):
        m = oracle_machine(name)
        rq = RunqueueState(m)
        for cpu in busy:
            rq.add(cpu % m.n_cpus)
        counts = rq.counts()
        want = [
            core.core_id for core in m.cores
            if all(counts[c] == 0 for c in core.cpu_ids)
        ]
        assert rq.idle_cores() == want
        assert all(type(c) is int for c in rq.idle_cores())
        assert rq.idle_core_mask().tolist() == [
            t.core_id in want for t in m.hwthreads
        ]


class TestWakeupPlacer:
    def test_prefers_idle_core_same_numa(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rq = RunqueueState(machine)
        rq.add(0)  # waker on cpu 0 (socket 0: cpus 0-3 + siblings 8-11)
        rng = RngFactory(1).stream("wake")
        for _ in range(20):
            cpu = placer.place_one(0, rq, rng)
            # an idle core's thread0 in the waker's NUMA domain (socket0)
            assert cpu in {1, 2, 3}

    def test_no_stacking_when_disabled_and_idle_exists(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(2).stream("wake")
        cpus = placer.place_team(8, master_cpu=0, rng=rng)
        assert len(set(cpus)) == 8  # no two threads share a cpu

    def test_team_fills_cores_before_siblings(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(3).stream("wake")
        cpus = placer.place_team(8, master_cpu=0, rng=rng)
        cores = {machine.hwthread(c).core_id for c in cpus}
        assert len(cores) == 8  # one thread per core when cores suffice

    def test_oversubscription_stacks(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(4).stream("wake")
        cpus = placer.place_team(20, master_cpu=0, rng=rng)  # > 16 cpus
        assert len(cpus) == 20
        counts = {}
        for c in cpus:
            counts[c] = counts.get(c, 0) + 1
        assert max(counts.values()) >= 2

    def test_stacking_shortcut_occurs(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.5)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(5).stream("wake")
        stacked_runs = 0
        for i in range(30):
            cpus = placer.place_team(8, master_cpu=0, rng=rng)
            if len(set(cpus)) < 8:
                stacked_runs += 1
        assert stacked_runs > 5


class TestPlacementOracle:
    """The array placer against the list-based search it replaced: the same
    CPUs, as Python ints, and the generator in the same state afterwards."""

    @given(fork=team_forks())
    # a 2x team without the shortcut runs all three passes on every machine
    @example(fork=("toy", 32, 0, [], 0.0, 1))
    @example(fork=("vera", 64, 7, [3], 0.0, 2))
    @example(fork=("dardel", 512, 0, [], 0.0, 3))
    @example(fork=("smt4", 64, 5, [5, 30], 0.0, 4))
    @settings(max_examples=120, deadline=None)
    def test_place_team_is_the_list_reference(self, fork):
        name, n_threads, master, busy, stacking, seed = fork
        m = oracle_machine(name)
        params = SchedParams(stacking_prob_per_thread=stacking)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = WakeupPlacer(m, params).place_team(
            n_threads, master, rng, external_busy=busy
        )
        want = reference_place_team(m, params, n_threads, master, ref_rng, busy)
        assert got == want
        assert all(type(c) is int for c in got)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(name=st.sampled_from(ORACLE_MACHINES),
           stacking=st.sampled_from(STACKING_PROBS),
           waker=st.integers(0, 511),
           busy=st.lists(st.integers(0, 511), max_size=600),
           shortcut=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_place_one_is_the_list_reference(self, name, stacking, waker, busy,
                                             shortcut, seed):
        m = oracle_machine(name)
        placer = shared_placer(name, stacking)
        rq = RunqueueState(m)
        for cpu in busy:
            rq.add(cpu % m.n_cpus)
        counts = rq.counts()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = placer.place_one(waker % m.n_cpus, rq, rng, shortcut)
        want = reference_place_one(
            m, placer.params, waker % m.n_cpus, rq, ref_rng, shortcut
        )
        assert got == want and type(got) is int
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        np.testing.assert_array_equal(rq.counts(), counts)  # rq untouched

    @pytest.mark.parametrize("name,seed", sorted(PINNED_UNBOUND_CPUS))
    def test_fork_unbound_cpus_are_pinned(self, name, seed):
        platform = get_platform(name)
        want = tuple(int(c) for c in PINNED_UNBOUND_CPUS[name, seed].split())
        model = SchedulerModel(platform.machine, platform.sched_params)
        out = model.fork_unbound(
            len(want), 0, 0.0, RngFactory(seed).child("run", 0).stream("placement")
        )
        assert out.cpus == want


class TestBalancer:
    def test_no_episodes_without_stacking(self):
        b = BalancerModel(SchedParams())
        eps = b.episodes_for_placement([0, 1, 2], 0.0, RngFactory(1).stream("b"))
        assert eps == []

    def test_episodes_for_stacked_threads(self):
        b = BalancerModel(SchedParams())
        eps = b.episodes_for_placement([0, 1, 1], 5.0, RngFactory(2).stream("b"))
        assert {e.thread for e in eps} == {1, 2}
        for e in eps:
            assert e.start == 5.0
            assert e.duration > 0
            assert e.share == pytest.approx(0.5)
            assert e.slowdown_factor() == pytest.approx(2.0)

    def test_triple_stacking_lower_share(self):
        b = BalancerModel(SchedParams())
        eps = b.episodes_for_placement([0, 1, 1, 1], 0.0, RngFactory(3).stream("b"))
        assert {e.thread for e in eps} == {1, 2, 3}
        for e in eps:
            assert e.share <= 0.5

    def test_episode_duration_scale(self):
        params = SchedParams(balance_latency_median=ms(10), balance_latency_sigma=0.5)
        b = BalancerModel(params)
        rng = RngFactory(4).stream("b")
        durations = [b.episode_duration(rng) for _ in range(500)]
        assert ms(5) < float(np.median(durations)) < ms(20)


class TestMigrationModel:
    def test_rate(self, machine):
        params = SchedParams(migration_rate_unbound=2.0)
        m = MigrationModel(machine, params)
        rng = RngFactory(5).stream("mig")
        events = m.sample([0, 1, 2, 3], 0.0, 10.0, rng)
        # expect ~ 4 threads * 2/s * 10s = 80
        assert 50 < len(events) < 115
        assert events == sorted(events, key=lambda e: e.t)

    def test_zero_rate(self, machine):
        params = SchedParams(migration_rate_unbound=0.0)
        m = MigrationModel(machine, params)
        assert m.sample([0], 0.0, 100.0, RngFactory(1).stream("m")) == []

    def test_destination_outside_team(self, machine):
        params = SchedParams(migration_rate_unbound=5.0)
        m = MigrationModel(machine, params)
        team = [0, 1, 2, 3]
        events = m.sample(team, 0.0, 5.0, RngFactory(6).stream("m"))
        for e in events:
            assert e.dst_cpu not in set(team)
            assert e.penalty == params.migration_penalty


class TestSchedulerModel:
    def test_fork_bound_keeps_cpus(self, machine):
        model = SchedulerModel(machine)
        out = model.fork_bound([0, 1, 2, 3], RngFactory(7).stream("f"))
        assert out.cpus == (0, 1, 2, 3)
        assert out.episodes == ()
        assert out.wake_delays[0] == 0.0  # master never pays wake
        assert np.all(out.wake_delays >= 0)

    def test_fork_unbound_places_team(self, machine):
        model = SchedulerModel(machine, SchedParams(stacking_prob_per_thread=0.0))
        out = model.fork_unbound(8, master_cpu=0, t_start=0.0,
                                 rng=RngFactory(8).stream("f"))
        assert out.n_threads == 8
        assert out.cpus[0] == 0
        assert out.episodes == ()

    def test_fork_unbound_stacking_adds_delay(self, machine):
        model = SchedulerModel(machine, SchedParams(stacking_prob_per_thread=1.0))
        out = model.fork_unbound(8, master_cpu=0, t_start=0.0,
                                 rng=RngFactory(9).stream("f"))
        assert out.episodes  # everything stacked
        stacked = {e.thread for e in out.episodes} - {0}
        assert any(out.wake_delays[t] > us(100) for t in stacked)

    def test_determinism(self, machine):
        model = SchedulerModel(machine)
        a = model.fork_unbound(8, 0, 0.0, RngFactory(10).stream("f"))
        b = model.fork_unbound(8, 0, 0.0, RngFactory(10).stream("f"))
        assert a.cpus == b.cpus
        np.testing.assert_array_equal(a.wake_delays, b.wake_delays)

    def test_dardel_scale_placement(self):
        machine = dardel_topology()
        model = SchedulerModel(machine, SchedParams(stacking_prob_per_thread=0.0))
        out = model.fork_unbound(128, master_cpu=0, t_start=0.0,
                                 rng=RngFactory(11).stream("f"))
        # 128 threads on 128 cores: every thread gets its own core
        cores = {machine.hwthread(c).core_id for c in out.cpus}
        assert len(cores) == 128
