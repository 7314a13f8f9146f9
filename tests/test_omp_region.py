"""Tests for the parallel-region executor (the R=1 call form)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.freq.dvfs import FrequencyModel
from repro.freq.governor import PerformanceGovernor
from repro.omp import NoiseMode, OMPEnvironment, RegionExecutor, RegionParams, Team
from repro.omp.runtime import OpenMPRuntime
from repro.osnoise.model import NoiseBatch, NoiseRealization
from repro.platform import toy, vera
from repro.rng import RngFactory
from repro.sched.balancer import StackingEpisode
from repro.types import ProcBind
from repro.units import ms, us


@pytest.fixture
def platform():
    return toy()


def make_executor(platform, busy_cpus, noise_events=(), horizon=10.0):
    """One-run executor with a deterministic noise realization: daemon
    events ``(start, duration, cpu)``."""
    model = FrequencyModel(platform.machine, platform.freq_spec)
    plan = model.plan(0.0, horizon, busy_cpus, PerformanceGovernor(),
                      RngFactory(1).stream("freq"))
    starts, durations, cpus = np.asarray(noise_events, dtype=float).reshape(-1, 3).T
    noise = NoiseRealization(
        platform.machine, (starts, durations, cpus.astype(np.int64), ["daemon"] * cpus.size)
    )
    env = OMPEnvironment(num_threads=1, places="cores", proc_bind=ProcBind.CLOSE)
    ctx = OpenMPRuntime(platform, env).start_run(0, RngFactory(1), horizon)
    return RegionExecutor([replace(ctx, freq_plan=plan, noise=noise)]), plan


class TestPureCompute:
    def test_duration_matches_frequency(self, platform):
        # 2 active cores -> 3.0 GHz; calibration = 3.0 GHz -> work unchanged
        ex, plan = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        res = ex.execute(team, np.asarray([ms(1), ms(1)]))
        assert res.duration[0] == pytest.approx(ms(1), rel=1e-6)

    def test_boost_derates_many_cores(self, platform):
        # 8 active cores -> 2.2 GHz vs calibration 3.0 GHz
        cpus = list(range(8))
        ex, plan = make_executor(platform, cpus)
        team = Team(platform.machine, tuple(cpus), bound=True)
        res = ex.execute(team, np.full(8, ms(1)))
        assert res.duration[0] == pytest.approx(ms(1) * 3.0 / 2.2, rel=1e-3)

    def test_slowest_thread_dominates(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        res = ex.execute(team, np.asarray([ms(1), ms(3)]))
        assert res.duration[0] == pytest.approx(ms(3), rel=1e-6)

    def test_zero_work(self, platform):
        ex, _ = make_executor(platform, [0])
        team = Team(platform.machine, (0,), bound=True)
        ex.advance(5.0)
        res = ex.execute(team, np.asarray([0.0]))
        assert res.duration[0] == 0.0
        assert res.start[0] == 5.0

    def test_work_shape_validated(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        with pytest.raises(SimulationError):
            ex.execute(team, np.asarray([ms(1)]))


class TestSMTSharing:
    def test_mt_team_slower(self, platform):
        m = platform.machine
        st_team = Team(m, (0, 1), bound=True)
        mt_team = Team(m, (0, 8), bound=True)  # same core
        ex_st, _ = make_executor(platform, [0, 1])
        ex_mt, _ = make_executor(platform, [0, 8])
        work = np.full(2, ms(1))
        d_st = ex_st.execute(st_team, work).duration[0]
        d_mt = ex_mt.execute(mt_team, work).duration[0]
        assert d_mt > d_st / platform.region_params.smt_efficiency * 0.9
        assert d_mt > d_st


class TestNoiseAggregation:
    def test_max_mode_single_thread_noise(self, platform):
        m = platform.machine
        events = [(us(100), us(200), 0)]
        ex, _ = make_executor(platform, [0, 1], noise_events=events)
        team = Team(m, (0, 1), bound=True)
        res = ex.execute(team, np.full(2, ms(1)), noise_mode=NoiseMode.MAX)
        assert res.duration[0] == pytest.approx(ms(1) + us(200), rel=1e-3)

    def test_max_mode_takes_worst_thread(self, platform):
        m = platform.machine
        events = [
            (us(10), us(100), 0),
            (us(10), us(300), 1),
        ]
        ex, _ = make_executor(platform, [0, 1], noise_events=events)
        team = Team(m, (0, 1), bound=True)
        res = ex.execute(team, np.full(2, ms(1)), noise_mode=NoiseMode.MAX)
        assert res.duration[0] == pytest.approx(ms(1) + us(300), rel=1e-3)

    def test_sync_sum_adds_all(self, platform):
        m = platform.machine
        events = [
            (us(10), us(100), 0),
            (us(10), us(300), 1),
        ]
        ex, _ = make_executor(platform, [0, 1], noise_events=events)
        team = Team(m, (0, 1), bound=True)
        res = ex.execute(team, np.full(2, ms(1)), noise_mode=NoiseMode.SYNC_SUM)
        kappa = platform.region_params.sync_noise_kappa
        assert res.duration[0] == pytest.approx(ms(1) + kappa * us(400), rel=1e-3)

    def test_balanced_spreads_noise(self, platform):
        m = platform.machine
        events = [(us(10), us(400), 0)]
        ex, _ = make_executor(platform, [0, 1], noise_events=events)
        team = Team(m, (0, 1), bound=True)
        res = ex.execute(team, np.full(2, ms(1)), noise_mode=NoiseMode.BALANCED)
        assert res.duration[0] == pytest.approx(ms(1) + us(200), rel=1e-3)

    def test_noise_outside_window_ignored(self, platform):
        m = platform.machine
        events = [(5.0, us(500), 0)]
        ex, _ = make_executor(platform, [0], noise_events=events)
        team = Team(m, (0,), bound=True)
        res = ex.execute(team, np.asarray([ms(1)]))
        assert res.duration[0] == pytest.approx(ms(1), rel=1e-3)

    def test_sibling_pressure_slows(self, platform):
        m = platform.machine
        # noise on cpu 8 = sibling of team thread on cpu 0
        events = [(us(10), us(400), 8)]
        ex, _ = make_executor(platform, [0], noise_events=events)
        team = Team(m, (0,), bound=True)
        res = ex.execute(team, np.asarray([ms(1)]))
        expected_extra = platform.region_params.smt_noise_penalty * us(400)
        assert res.duration[0] == pytest.approx(ms(1) + expected_extra, rel=1e-2)


class TestSiblingRows:
    """Each region asks its noise batch once, for every run: the stolen
    windows of the team's CPUs, and sibling pressure only for threads
    whose CPU has an SMT sibling that is not a teammate, at the rows the
    batch maps them to: with one sibling per CPU, the sibling's own
    stolen row."""

    def _spy(self, monkeypatch):
        """Record the CPUs, sibling rows and answers of every query."""
        queried = []
        query = NoiseBatch.overlap

        def recording(batch, cpus, rows, a, b):
            stolen, sibling = query(batch, cpus, rows, a, b)
            queried.append((np.asarray(cpus).tolist(), np.asarray(rows).tolist(),
                            stolen.tolist(), sibling.tolist()))
            return stolen, sibling

        monkeypatch.setattr(NoiseBatch, "overlap", recording)
        return queried

    def test_all_smt_shared_team_issues_no_sibling_rows(self, platform, monkeypatch):
        m = platform.machine
        # noise on both hardware threads of core 0, which the team fills
        events = [
            (us(10), us(400), 0),
            (us(10), us(400), 8),
        ]
        ex, _ = make_executor(platform, [0, 8], noise_events=events)
        queried = self._spy(monkeypatch)
        res = ex.execute(Team(m, (0, 8), bound=True), np.full(2, ms(1)))
        assert queried == [([0, 8], [], [[4e-4, 4e-4]], [[]])]  # exact ns / 1e9
        assert res.noise_seconds[0] == pytest.approx(us(400), rel=1e-3)

    def test_free_sibling_is_queried(self, platform, monkeypatch):
        # SMT-2: the pressure on cpus 0 and 1 is the stolen time of 8 and
        # 9, answered in the same pass as the team's own rows
        events = [(us(10), us(300), 9)]
        ex, _ = make_executor(platform, [0, 1], noise_events=events)
        queried = self._spy(monkeypatch)
        ex.execute(Team(platform.machine, (0, 1), bound=True), np.full(2, ms(1)))
        assert queried == [([0, 1], [8, 9], [[0.0, 0.0]], [[0.0, 3e-4]])]
        assert "_union" not in vars(ex._noise)

    def test_team_without_smt_issues_no_sibling_query(self, monkeypatch):
        plat = vera()
        ex, _ = make_executor(plat, [0, 1, 2, 3])
        queried = self._spy(monkeypatch)
        ex.execute(Team(plat.machine, (0, 1, 2, 3), bound=True), np.full(4, ms(1)))
        assert queried == [([0, 1, 2, 3], [], [[0.0] * 4], [[]])]
        assert "_union" not in vars(ex._noise)

    def test_wider_smt_queries_the_union_plane(self, monkeypatch):
        plat = toy(smt=4)
        # cpu 8 is a sibling of cpu 0: its noise is pressure on thread 0
        events = [(us(10), us(400), 8)]
        ex, _ = make_executor(plat, [0, 1], noise_events=events)
        queried = self._spy(monkeypatch)
        res = ex.execute(Team(plat.machine, (0, 1), bound=True), np.full(2, ms(1)))
        assert queried == [([0, 1], [0, 1], [[0.0, 0.0]], [[4e-4, 0.0]])]
        assert "_union" in vars(ex._noise)
        expected_extra = plat.region_params.smt_noise_penalty * us(400)
        assert res.duration[0] == pytest.approx(ms(1) + expected_extra, rel=1e-2)

    def test_runs_share_one_query(self, platform, monkeypatch):
        """Two runs: one call answers both runs' rows, each from its own
        realization."""
        events = [(us(10), us(300), 9)]
        ex_a, _ = make_executor(platform, [0, 1], noise_events=events)
        ex_b, _ = make_executor(platform, [0, 1])
        both = RegionExecutor(ex_a.runs + ex_b.runs)
        queried = self._spy(monkeypatch)
        both.execute(Team(platform.machine, (0, 1), bound=True), np.full(2, ms(1)))
        assert queried == [
            ([0, 1], [8, 9], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 3e-4], [0.0, 0.0]])
        ]


class TestRepAxis:
    def test_rows_match_single_runs(self, platform):
        """A two-run executor answers each row exactly as that run alone."""
        m = platform.machine
        events = [(us(10), us(300), 1)]
        ex_a, _ = make_executor(platform, [0, 1], noise_events=events)
        ex_b, _ = make_executor(platform, [0, 1])
        both = RegionExecutor(ex_a.runs + ex_b.runs)
        both.advance(np.asarray([0.0, us(7)]))
        team = Team(m, (0, 1), bound=True)
        work = np.full(2, ms(1))
        res = both.execute(team, work, noise_mode=NoiseMode.SYNC_SUM)
        alone = [ex_a.execute(team, work, noise_mode=NoiseMode.SYNC_SUM),
                 ex_b.execute(team, work, noise_mode=NoiseMode.SYNC_SUM)]
        assert res.end.tolist() == [float(r.end[0]) for r in alone]

    def test_stacking_episodes_need_a_single_run(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        both = RegionExecutor(ex.runs * 2)
        ep = StackingEpisode(thread=1, start=0.0, duration=ms(10), share=0.5)
        with pytest.raises(SimulationError, match="single run"):
            both.execute(Team(platform.machine, (0, 1), bound=True),
                         np.full(2, ms(1)), stacking_episodes=(ep,))


class TestSchedulerArtifacts:
    def test_wake_delays_shift_arrival(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        res = ex.execute(
            team, np.full(2, ms(1)), wake_delays=np.asarray([0.0, us(500)])
        )
        assert res.duration[0] == pytest.approx(ms(1) + us(500), rel=1e-3)

    def test_stacking_episode_slows_thread(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        ep = StackingEpisode(thread=1, start=0.0, duration=ms(10), share=0.5)
        res = ex.execute(team, np.full(2, ms(1)), stacking_episodes=(ep,))
        # thread 1 runs at half speed for its whole 1 ms of work
        assert res.duration[0] > ms(1.8)
        assert res.stacking_seconds[0] > 0

    def test_queue_floor_binds(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        res = ex.execute(team, np.full(2, ms(1)), queue_floor=ms(5))
        assert res.duration[0] == pytest.approx(ms(5), rel=1e-6)

    def test_barrier_cost_added(self, platform):
        ex, _ = make_executor(platform, [0, 1])
        team = Team(platform.machine, (0, 1), bound=True)
        res = ex.execute(team, np.full(2, ms(1)), barrier_cost=us(5))
        assert res.duration[0] == pytest.approx(ms(1) + us(5), rel=1e-3)

    def test_sync_overhead_frequency_scaled(self, platform):
        # 8 active cores -> 2.2 GHz vs 3.0 GHz calibration
        cpus = list(range(8))
        ex, _ = make_executor(platform, cpus)
        team = Team(platform.machine, tuple(cpus), bound=True)
        res = ex.execute(team, np.zeros(8), sync_overhead=ms(1))
        assert res.duration[0] == pytest.approx(ms(1) * 3.0 / 2.2, rel=1e-3)


class TestRegionParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionParams(smt_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            RegionParams(smt_noise_penalty=1.5)
        with pytest.raises(ConfigurationError):
            RegionParams(sync_noise_kappa=-0.1)
