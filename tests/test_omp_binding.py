"""Tests for OMP_PROC_BIND binding, cpu assignment, env parsing, and teams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError, ConfigurationError
from repro.omp import OMPEnvironment, Team, assign_cpus, bind_threads, parse_places
from repro.types import ProcBind, ScheduleKind
from repro.topology import TopologyBuilder, dardel_topology


@pytest.fixture
def machine():
    return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()


class TestBindThreads:
    def test_close_fewer_threads(self):
        assert bind_threads(4, 8, ProcBind.CLOSE) == [0, 1, 2, 3]

    def test_close_wraps_from_master(self):
        assert bind_threads(3, 4, ProcBind.CLOSE, master_place=2) == [2, 3, 0]

    def test_close_more_threads_groups(self):
        assert bind_threads(4, 2, ProcBind.CLOSE) == [0, 0, 1, 1]
        assert bind_threads(6, 2, ProcBind.CLOSE) == [0, 0, 0, 1, 1, 1]

    def test_spread_sparse(self):
        assert bind_threads(2, 8, ProcBind.SPREAD) == [0, 4]
        assert bind_threads(4, 8, ProcBind.SPREAD) == [0, 2, 4, 6]

    def test_master_policy(self):
        assert bind_threads(4, 8, ProcBind.MASTER, master_place=3) == [3, 3, 3, 3]

    def test_true_behaves_like_close(self):
        assert bind_threads(4, 8, ProcBind.TRUE) == bind_threads(4, 8, ProcBind.CLOSE)

    def test_false_rejected(self):
        with pytest.raises(BindingError):
            bind_threads(4, 8, ProcBind.FALSE)

    def test_validation(self):
        with pytest.raises(BindingError):
            bind_threads(0, 8, ProcBind.CLOSE)
        with pytest.raises(BindingError):
            bind_threads(4, 0, ProcBind.CLOSE)
        with pytest.raises(BindingError):
            bind_threads(4, 8, ProcBind.CLOSE, master_place=8)


@given(
    n_threads=st.integers(min_value=1, max_value=64),
    n_places=st.integers(min_value=1, max_value=64),
    policy=st.sampled_from([ProcBind.CLOSE, ProcBind.SPREAD, ProcBind.MASTER]),
)
@settings(max_examples=150)
def test_bind_threads_properties(n_threads, n_places, policy):
    out = bind_threads(n_threads, n_places, policy)
    assert len(out) == n_threads
    assert all(0 <= p < n_places for p in out)
    if policy is ProcBind.MASTER:
        assert set(out) == {0}
    if policy in (ProcBind.CLOSE, ProcBind.SPREAD) and n_threads <= n_places:
        # one place per thread, no sharing
        assert len(set(out)) == n_threads
    if n_threads >= n_places:
        counts = [out.count(p) for p in range(n_places)]
        if policy is not ProcBind.MASTER:
            # balanced to within one thread
            assert max(counts) - min(counts) <= 1


class TestAssignCpus:
    def test_distinct_cpus_within_place(self, machine):
        places = parse_places(machine, "cores")
        cpus = assign_cpus(places, [0, 0])  # two threads on core 0
        assert cpus == [0, 8]

    def test_wraps_when_oversubscribed(self, machine):
        places = parse_places(machine, "cores")
        cpus = assign_cpus(places, [0, 0, 0])
        assert cpus == [0, 8, 0]

    def test_st_config(self, machine):
        """ST: places=cores, one thread per core -> first hw threads."""
        places = parse_places(machine, "cores")
        tp = bind_threads(8, len(places), ProcBind.CLOSE)
        cpus = assign_cpus(places, tp)
        assert cpus == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_mt_config(self, machine):
        """MT: places=threads packs SMT siblings."""
        places = parse_places(machine, "threads")
        tp = bind_threads(8, len(places), ProcBind.CLOSE)
        cpus = assign_cpus(places, tp)
        # 8 threads fill 4 cores' both hw threads
        assert cpus == [0, 8, 1, 9, 2, 10, 3, 11]

    def test_bad_place_index(self, machine):
        places = parse_places(machine, "cores")
        with pytest.raises(BindingError):
            assign_cpus(places, [99])

    def test_empty_places(self):
        with pytest.raises(BindingError):
            assign_cpus([], [0])


class TestOMPEnvironment:
    def test_defaults(self):
        env = OMPEnvironment(num_threads=4)
        assert not env.bound
        assert env.schedule is ScheduleKind.STATIC

    def test_binding_implies_default_places(self):
        env = OMPEnvironment(num_threads=4, proc_bind=ProcBind.CLOSE)
        assert env.places == "cores"

    def test_from_env_full(self):
        env = OMPEnvironment.from_env(
            {
                "OMP_NUM_THREADS": "128",
                "OMP_PLACES": "threads",
                "OMP_PROC_BIND": "close",
                "OMP_SCHEDULE": "dynamic,1",
            }
        )
        assert env.num_threads == 128
        assert env.places == "threads"
        assert env.proc_bind is ProcBind.CLOSE
        assert env.schedule is ScheduleKind.DYNAMIC
        assert env.schedule_chunk == 1

    def test_from_env_defaults(self):
        env = OMPEnvironment.from_env({})
        assert env.num_threads == 1
        assert env.proc_bind is ProcBind.FALSE

    def test_from_env_errors(self):
        with pytest.raises(ConfigurationError):
            OMPEnvironment.from_env({"OMP_NUM_THREADS": "many"})
        with pytest.raises(ConfigurationError):
            OMPEnvironment.from_env({"OMP_PROC_BIND": "sideways"})
        with pytest.raises(ConfigurationError):
            OMPEnvironment.from_env({"OMP_SCHEDULE": "chaotic"})
        with pytest.raises(ConfigurationError):
            OMPEnvironment.from_env({"OMP_SCHEDULE": "static,x"})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OMPEnvironment(num_threads=0)
        with pytest.raises(ConfigurationError):
            OMPEnvironment(num_threads=1, schedule_chunk=0)

    def test_describe_roundtrip(self):
        env = OMPEnvironment(
            num_threads=16,
            places="cores",
            proc_bind=ProcBind.CLOSE,
            schedule=ScheduleKind.DYNAMIC,
            schedule_chunk=1,
        )
        text = env.describe()
        assert "OMP_NUM_THREADS=16" in text
        assert "OMP_PLACES=cores" in text
        assert "OMP_PROC_BIND=close" in text
        assert "OMP_SCHEDULE=dynamic,1" in text


class TestTeam:
    def test_basic_properties(self, machine):
        team = Team(machine, (0, 1, 2, 3), bound=True)
        assert team.n_threads == 4
        assert team.master_cpu == 0
        assert team.numa_span == 1
        assert team.socket_span == 1
        assert team.active_cores == 4
        assert not team.uses_smt

    def test_smt_shared(self, machine):
        team = Team(machine, (0, 8, 1), bound=True)  # cpus 0,8 share core 0
        np.testing.assert_array_equal(team.smt_shared, [True, True, False])
        assert team.uses_smt

    def test_span_fractions(self, machine):
        # 2 threads on socket 0, 2 on socket 1 (cpus 4-7 are socket 1)
        team = Team(machine, (0, 1, 4, 5), bound=True)
        assert team.socket_span == 2
        assert team.outside_master_socket_fraction == pytest.approx(0.5)
        assert team.outside_master_numa_fraction == pytest.approx(0.5)

    def test_with_cpus(self, machine):
        team = Team(machine, (0, 1), bound=False)
        moved = team.with_cpus([2, 3])
        assert moved.cpus == (2, 3)
        assert not moved.bound

    def test_validation(self, machine):
        with pytest.raises(BindingError):
            Team(machine, (), bound=True)
        with pytest.raises(BindingError):
            Team(machine, (99,), bound=True)

    def test_describe(self, machine):
        team = Team(machine, (0, 1), bound=True)
        assert "2 threads (bound)" in team.describe()

    def test_dardel_254_thread_team(self):
        """The paper's 254-thread configuration: 127 cores, both siblings."""
        m = dardel_topology()
        from repro.omp import bind_threads as bt, assign_cpus as ac, parse_places as pp

        places = pp(m, "threads")
        cpus = ac(places, bt(254, len(places), ProcBind.CLOSE))
        team = Team(m, tuple(cpus), bound=True)
        assert team.n_threads == 254
        assert team.active_cores == 127
        assert team.uses_smt
        assert team.socket_span == 2
