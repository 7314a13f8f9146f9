"""Tests for the explicit-tasking subsystem.

Covers the runtime pieces (cost model, deques, workload generators, the
work-stealing scheduler), the taskbench benchmark, the harness integration
(determinism across serial / process-pool execution, cache round-trips with
tasking parameters in the key), and the figure8 experiment driver.
"""

import heapq
import inspect
import json
import math
from collections import deque

import numpy as np
import pytest

from repro.errors import (
    BenchmarkError,
    ConfigurationError,
    HarnessError,
    SimulationError,
)
from repro.freq.dvfs import FrequencyModel, FrequencyPlan
from repro.freq.governor import make_governor
from repro.harness import (
    ExperimentConfig,
    ResultCache,
    Runner,
    Sweep,
    cache_key,
    experiments,
)
from repro.harness.report import render_tasking_summary, split_tasking_labels
import repro.harness.runner as runner_mod
from repro.bench.taskbench import Taskbench, TaskbenchParams
from repro.omp.tasking import (
    Task,
    TaskCostModel,
    TaskCostParams,
    WorkStealingScheduler,
    fib_tasks,
    taskloop_tasks,
    uniform_tasks,
)
import repro.omp.tasking.scheduler as scheduler_mod
from repro.omp.team import Team
from repro.osnoise.model import NoiseBatch, NoiseModel
from repro.platform import toy, vera
from repro.rng import RngFactory
from repro.sim.bench import bench_figure8_smoke
from repro.sim.intervals import IntervalSet
from repro.sim.trace import PiecewiseConstant


# ---------------------------------------------------------------------------
# Cost parameters
# ---------------------------------------------------------------------------

class TestTaskCostParams:
    def test_defaults_validate(self):
        TaskCostParams()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskCostParams(deque_push=-1e-9)

    def test_failed_steal_cheaper_than_success(self):
        with pytest.raises(ConfigurationError):
            TaskCostParams(steal_attempt=1e-6, steal_success=1e-7)

    def test_backoff_grows_and_caps(self):
        model = TaskCostModel(TaskCostParams(
            steal_backoff_base=1e-6, steal_backoff_factor=2.0,
            steal_backoff_max=5e-6,
        ))
        delays = [model.backoff(k) for k in range(1, 6)]
        assert delays[0] == pytest.approx(1e-6)
        assert delays[1] == pytest.approx(2e-6)
        assert delays == sorted(delays)
        assert max(delays) == pytest.approx(5e-6)
        assert model.backoff(0) == 0.0

    def test_cross_numa_team_steals_slower(self):
        plat = vera()
        model = TaskCostModel(TaskCostParams(), None)
        one_numa = Team(plat.machine, tuple(range(8)), bound=True)
        two_socket = Team(plat.machine, tuple(range(4)) + tuple(range(16, 20)),
                          bound=True)
        assert model.steal_cost(two_socket) > model.steal_cost(one_numa)
        assert model.failed_steal_cost(two_socket) > model.failed_steal_cost(one_numa)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class TestTaskloopChunking:
    def test_grainsize_chunk_bounds(self):
        tasks = taskloop_tasks(100, 1e-6, grainsize=8)
        sizes = [t.work / 1e-6 for t in tasks]
        assert sum(sizes) == pytest.approx(100)
        assert all(8 <= s < 16 for s in sizes)  # OpenMP spec guarantee

    def test_num_tasks_near_equal(self):
        tasks = taskloop_tasks(10, 1e-6, num_tasks=4)
        sizes = sorted(round(t.work / 1e-6) for t in tasks)
        assert sizes == [2, 2, 3, 3]

    def test_num_tasks_clamped_to_iterations(self):
        assert len(taskloop_tasks(3, 1e-6, num_tasks=10)) == 3

    def test_exactly_one_sizing_clause(self):
        with pytest.raises(ConfigurationError):
            taskloop_tasks(10, 1e-6)
        with pytest.raises(ConfigurationError):
            taskloop_tasks(10, 1e-6, grainsize=2, num_tasks=2)

    def test_imbalance_ramps_but_preserves_total(self):
        flat = taskloop_tasks(64, 1e-6, num_tasks=8)
        ramped = taskloop_tasks(64, 1e-6, num_tasks=8, imbalance=0.8)
        assert sum(t.work for t in ramped) == pytest.approx(
            sum(t.work for t in flat)
        )
        works = [t.work for t in ramped]
        assert works == sorted(works)          # linear ramp: ascending chunks
        assert works[-1] > 2.0 * works[0]      # and genuinely imbalanced

    def test_determinism(self):
        a = taskloop_tasks(50, 2e-6, grainsize=4, imbalance=0.3)
        b = taskloop_tasks(50, 2e-6, grainsize=4, imbalance=0.3)
        assert a == b


class TestTreeWorkloads:
    def test_fib_counts_follow_fibonacci(self):
        # tasks(n) = 1 + tasks(n-1) + tasks(n-2), tasks(<2) = 1
        counts = {n: fib_tasks(n, 1e-6, 1e-7).count() for n in range(8)}
        for n in range(2, 8):
            assert counts[n] == 1 + counts[n - 1] + counts[n - 2]

    def test_fib_unbalanced(self):
        root = fib_tasks(8, 1e-6, 1e-7)
        first, second = root.children
        assert first.count() > second.count()

    def test_fib_cutoff(self):
        assert fib_tasks(5, 1e-6, 1e-7, cutoff=6).count() == 1

    def test_uniform(self):
        tasks = uniform_tasks(5, 3e-6)
        assert len(tasks) == 5
        assert all(t.work == 3e-6 and not t.children for t in tasks)

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            Task(work=-1.0)

    @pytest.mark.parametrize("work", [math.nan, math.inf, -math.inf])
    def test_task_rejects_non_finite_work(self, work):
        with pytest.raises(ConfigurationError, match="finite"):
            Task(work=work)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def _scheduler(team, seed=3, platform=None, params=None):
    plat = platform if platform is not None else toy()
    f = RngFactory(seed)
    fm = FrequencyModel(plat.machine, plat.freq_spec)
    plan = fm.plan(0.0, 5.0, list(team.cpus),
                   make_governor(plat.default_governor), f.stream("freq"))
    noise = NoiseModel(plat.machine, plat.noise_profile.sources).realize(
        0.0, 5.0, list(team.cpus), f.stream("noise")
    )
    streams = [f.stream("thief", i) for i in range(team.n_threads)]
    model = TaskCostModel(params if params is not None else TaskCostParams())
    return WorkStealingScheduler(team, model, plan, NoiseBatch([noise]), streams)


class TestWorkStealingScheduler:
    def test_every_task_executes_exactly_once(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(128, 2e-6, grainsize=2, imbalance=0.5)
        stats = _scheduler(team).run(tasks)
        assert int(stats.tasks_executed.sum()) == stats.total_tasks == len(tasks)

    def test_recursive_tree_executes_fully(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        root = fib_tasks(10, 4e-6, 4e-7)
        stats = _scheduler(team).run(root)
        assert int(stats.tasks_executed.sum()) == root.count()
        assert stats.total_steals > 0  # the tree cannot stay on one deque

    def test_deterministic_replay(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(64, 2e-6, grainsize=2, imbalance=0.5)
        a = _scheduler(team, seed=11).run(tasks)
        b = _scheduler(team, seed=11).run(tasks)
        assert a.makespan == b.makespan
        assert np.array_equal(a.steals, b.steals)
        assert np.array_equal(a.failed_steals, b.failed_steals)
        assert np.array_equal(a.tasks_executed, b.tasks_executed)

    def test_seed_changes_schedule(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(64, 2e-6, grainsize=2, imbalance=0.5)
        a = _scheduler(team, seed=11).run(tasks)
        b = _scheduler(team, seed=12).run(tasks)
        assert a.makespan != b.makespan

    def test_single_thread_never_steals(self):
        team = Team(toy().machine, (0,), bound=True)
        tasks = taskloop_tasks(32, 2e-6, grainsize=4)
        stats = _scheduler(team).run(tasks)
        assert stats.total_steals == 0
        assert stats.total_failed_steals == 0
        assert int(stats.tasks_executed[0]) == len(tasks)

    def test_parallelism_speeds_up_quiet_platform(self):
        plat = toy().quiet()
        tasks = taskloop_tasks(256, 5e-6, grainsize=4)
        t1 = Team(plat.machine, (0,), bound=True)
        t4 = Team(plat.machine, (0, 2, 4, 6), bound=True)
        serial = _scheduler(t1, platform=plat).run(tasks)
        parallel = _scheduler(t4, platform=plat).run(tasks)
        assert parallel.makespan < serial.makespan

    def test_imbalanced_grainsize_forces_steals(self):
        """The acceptance-criteria scenario: imbalanced taskloop -> steals."""
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(256, 2e-6, grainsize=4, imbalance=0.6)
        stats = _scheduler(team).run(tasks)
        assert stats.total_steals > 0
        assert 0.0 <= stats.failed_steal_rate <= 1.0
        assert 0.0 <= stats.idle_fraction < 1.0

    def test_stats_accounting(self):
        team = Team(toy().machine, (0, 2), bound=True)
        tasks = uniform_tasks(16, 3e-6)
        stats = _scheduler(team).run(tasks, t_start=1.5)
        assert stats.t_start == 1.5
        assert stats.t_end > 1.5
        assert stats.makespan == pytest.approx(stats.t_end - 1.5)
        assert stats.events_executed > 0
        assert np.all(stats.busy_time >= 0) and np.all(stats.idle_time >= 0)

    def test_stream_count_must_match_team(self):
        team = Team(toy().machine, (0, 2), bound=True)
        sched = _scheduler(team)
        with pytest.raises(ConfigurationError):
            WorkStealingScheduler(
                team, sched.cost_model, sched.freq_plan, sched.noise,
                sched.streams[:1],
            )

    def test_empty_graph_rejected(self):
        team = Team(toy().machine, (0,), bound=True)
        with pytest.raises(ConfigurationError):
            _scheduler(team).run(())

    def test_runaway_guard_trips(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        sched = _scheduler(team)
        sched.max_events = 10  # far too small for 64 tasks
        with pytest.raises(SimulationError, match="event cap"):
            sched.run(taskloop_tasks(64, 2e-6, grainsize=1))

    def test_nan_backoff_raises_before_it_is_queued(self, monkeypatch):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        sched = _scheduler(team)
        sched.cost_model = _NanBackoff(TaskCostParams())
        queued_times = []

        def spy(heap, entry):
            queued_times.append(entry[0])
            heapq.heappush(heap, entry)

        monkeypatch.setattr(scheduler_mod, "heappush", spy)
        with pytest.raises(SimulationError, match="non-finite or negative"):
            sched.run(taskloop_tasks(8, 2e-6, grainsize=4))
        assert queued_times
        assert all(math.isfinite(t) for t in queued_times)

    def test_owner_pops_newest_thief_takes_oldest(self, monkeypatch):
        """Thread 0 starts with the whole bag: it pops the task pushed
        last, and thread 1, waking next, steals the task pushed first."""
        taken = []

        class Recording(deque):
            def pop(self):
                task = super().pop()
                taken.append(("pop", task.tag))
                return task

            def popleft(self):
                task = super().popleft()
                taken.append(("steal", task.tag))
                return task

        monkeypatch.setattr(scheduler_mod, "deque", Recording)
        team = Team(toy().machine, (0, 2), bound=True)
        bag = tuple(Task(work=2e-6, tag=tag) for tag in "abcd")
        _scheduler(team).run(bag)
        assert taken[:2] == [("pop", "d"), ("steal", "a")]
        assert sorted(tag for _, tag in taken) == list("abcd")

    def test_scan_order_is_the_permutation_of_the_other_threads(self):
        """A scan visits the other threads in the order
        ``rng.permutation(n - 1)`` maps onto them, and consumes the stream
        exactly as that permutation would."""
        for n in (2, 3, 8, 31):
            team = Team(vera().machine, tuple(range(n)), bound=True)
            sched = _scheduler(team, platform=vera())
            for thief in sorted({0, n // 2, n - 1}):
                for seed in range(5):
                    perm = np.random.default_rng(seed).permutation(n - 1)
                    want = [int(k) + 1 if k >= thief else int(k) for k in perm]
                    for victim in want:
                        deques = [deque() for _ in range(n)]
                        deques[victim].append(Task(work=0.0))
                        rng = np.random.default_rng(seed)
                        got = sched._scan_victims(thief, deques, rng)
                        assert got == (victim, want.index(victim))
                        ref = np.random.default_rng(seed)
                        ref.permutation(n - 1)
                        assert rng.random() == ref.random()


class _NanBackoff(TaskCostModel):
    """A cost model whose failed-scan backoff is not a number."""

    __slots__ = ()

    def backoff(self, consecutive_failures: int) -> float:
        return float("nan")


#: Levels (Hz) the hand-built step traces cycle through.
_STEP_LEVELS = (2.0e9, 1.4e9, 2.6e9, 1.8e9, 2.3e9)


class _StolenSets:
    """Per-CPU stolen intervals, answering the one query the scheduler
    makes of a run's noise batch."""

    def __init__(self, sets):
        self.sets = sets

    def stolen(self, cpu):
        return self.sets[cpu].overlap


def _stepped_substrate(machine):
    """A hand-built frequency plan of step traces, and per-CPU stolen sets.

    From t = 0.25, every CPU's trace steps every 3.1 us at its own phase,
    and its stolen set holds a 1.5 us interval every 11 us, so bodies of a
    few microseconds run across breakpoints and lose time to noise.  (No
    taskbench body crosses a breakpoint of the platforms' own traces.)
    """
    n = machine.n_cpus
    traces, stolen = {}, {}
    for cpu in range(n):
        phase = cpu / n
        times = [0.0] + [0.25 + (k + phase) * 3.1e-6 for k in range(2000)]
        traces[cpu] = PiecewiseConstant(
            times, [_STEP_LEVELS[(cpu + k) % 5] for k in range(len(times))]
        )
        stolen[cpu] = IntervalSet.from_pairs(
            (t, t + 1.5e-6)
            for t in (0.25 + (k + 1.0 - phase) * 11e-6 for k in range(600))
        )
    plan = FrequencyPlan(machine, traces, 0.0, calibration_hz=2.0e9)
    return plan, _StolenSets(stolen)


def _pinned_scheduler(platform, cpus, bound, substrate):
    plat = vera() if platform == "vera" else toy()
    if substrate == "quiet":
        plat = plat.quiet()
    if isinstance(cpus, int):
        cpus = tuple(range(cpus))
    sched = _scheduler(Team(plat.machine, cpus, bound=bound), platform=plat)
    if substrate == "stepped":
        sched.freq_plan, sched.noise = _stepped_substrate(plat.machine)
    return sched


#: Exact outcomes of fixed scheduler episodes (seed 3, default costs,
#: t_start 0.25): ``(events_executed, total_steals, total_failed_steals,
#: t_end, idle, busy, overhead)``, the last four as ``float.hex`` of the
#: end time and of the per-thread sums.  A changed schedule, RNG draw or
#: event count moves at least one of them.  The substrate is the
#: platform's frequency and noise models (``"model"``), its noise-free
#: copy (``"quiet"``), or :func:`_stepped_substrate` (``"stepped"``).
PINNED_EPISODES = {
    "taskloop-g1-n2": (
        "vera", 2, True, "model",
        taskloop_tasks(512, 2e-6, grainsize=1, imbalance=0.6),
        (1027, 297, 1, "0x1.009cf991b2152p-2",
         "0x1.27476ca61b882p-21", "0x1.0c63bd3b34400p-10", "0x1.6c76cbb951710p-13"),
    ),
    "taskloop-g64-n2": (
        "vera", 2, True, "model",
        taskloop_tasks(512, 2e-6, grainsize=64, imbalance=0.6),
        (23, 5, 5, "0x1.0087185087f2ap-2",
         "0x1.b93da3cf7d813p-17", "0x1.0aa499f3d0600p-10", "0x1.813472f946d35p-19"),
    ),
    "taskloop-g1-n8": (
        "vera", 8, True, "model",
        taskloop_tasks(512, 2e-6, grainsize=1, imbalance=0.6),
        (1043, 456, 1449, "0x1.00371cb4f437bp-2",
         "0x1.33dca65ea3fa4p-16", "0x1.40a68b95ff700p-10", "0x1.d5b858cc74e34p-12"),
    ),
    "taskloop-g64-n8": (
        "vera", 8, True, "model",
        taskloop_tasks(512, 2e-6, grainsize=64, imbalance=0.6),
        (82, 7, 432, "0x1.003ac48421055p-2",
         "0x1.5e46dd34231d4p-11", "0x1.3d689cb14f000p-10", "0x1.000533709ac7cp-17"),
    ),
    "taskloop-g1-n30": (
        "vera", 30, True, "model",
        taskloop_tasks(512, 2e-6, grainsize=1, imbalance=0.6),
        (1100, 478, 7993, "0x1.00291fdb67645p-2",
         "0x1.0c0e562f0bb14p-11", "0x1.62c93c14d43eep-10", "0x1.8d9233be3d06bp-9"),
    ),
    "taskloop-g64-n30": (
        "vera", 30, True, "model",
        taskloop_tasks(512, 2e-6, grainsize=64, imbalance=0.6),
        (326, 7, 8238, "0x1.00410fc80d1c3p-2",
         "0x1.aa47d226a8e16p-8", "0x1.61bab3d425000p-10", "0x1.b39b6cf7ef84ep-15"),
    ),
    "fib-smt": (
        "toy", (0, 8, 1, 9, 2, 10, 3, 11), True, "model",
        fib_tasks(12, 4e-6, 4e-7),
        (1203, 44, 284, "0x1.003b219dce285p-2",
         "0x1.24f37f6916c50p-14", "0x1.6c9dcf6245a00p-10", "0x1.70d0441d07c4dp-12"),
    ),
    "uniform-quiet": (
        "toy", 4, True, "quiet",
        uniform_tasks(64, 5e-6),
        (141, 47, 73, "0x1.001b13dc8d277p-2",
         "0x1.13fc3646e3ea2p-16", "0x1.8360ab4201400p-12", "0x1.13bbc99a3d588p-15"),
    ),
    "unbound-n8": (
        "vera", 8, False, "model",
        taskloop_tasks(256, 2e-6, num_tasks=16, imbalance=0.3),
        (78, 14, 311, "0x1.00189b0ff5f2dp-2",
         "0x1.67a95c853c148p-13", "0x1.3f08ac02e5a00p-11", "0x1.dccef8761de98p-17"),
    ),
    "stepped-taskloop-smt": (
        "toy", (0, 8, 1, 9), True, "stepped",
        taskloop_tasks(256, 2e-6, grainsize=4, imbalance=0.6),
        (141, 52, 77, "0x1.0030b7e5c8271p-2",
         "0x1.50a284cfb3062p-16", "0x1.66031a39a0cb3p-11", "0x1.847160b7c8254p-15"),
    ),
    "stepped-fib-smt": (
        "toy", (0, 8, 1, 9, 2, 3), True, "stepped",
        fib_tasks(12, 4e-6, 4e-7),
        (1194, 54, 174, "0x1.004a191701dcbp-2",
         "0x1.6f0068db8bac8p-15", "0x1.549828e61f9aap-10", "0x1.74d5b74e82bc1p-12"),
    ),
    "stepped-uniform-n8": (
        "toy", 8, True, "stepped",
        uniform_tasks(64, 5e-6),
        (149, 53, 259, "0x1.0010dd919c29cp-2",
         "0x1.684dc7332fd82p-15", "0x1.6e74d2f0f7672p-12", "0x1.1a25f1005dc8ep-13"),
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_EPISODES))
def test_pinned_episode(shape):
    platform, cpus, bound, substrate, workload, want = PINNED_EPISODES[shape]
    sched = _pinned_scheduler(platform, cpus, bound, substrate)
    stats = sched.run(workload, t_start=0.25)
    got = (
        stats.events_executed,
        stats.total_steals,
        stats.total_failed_steals,
        stats.t_end.hex(),
        float(stats.idle_time.sum()).hex(),
        float(stats.busy_time.sum()).hex(),
        float(stats.overhead_time.sum()).hex(),
    )
    assert got == want
    assert int(stats.tasks_executed.sum()) == stats.total_tasks


class _Recorded:
    """Forwards the scheduler's two pricing queries and records, per call,
    whether the body spanned a breakpoint or lost time to noise."""

    def __init__(self, target, log):
        self.target, self.log = target, log

    def invert_integral(self, a, cycles):
        end = self.target.invert_integral(a, cycles)
        times = self.target.times
        self.log.append(
            np.searchsorted(times, a, "right") < np.searchsorted(times, end)
        )
        return end

    def overlap(self, a, b):
        stolen = self.target.overlap(a, b)
        self.log.append(stolen > 0)
        return stolen


@pytest.mark.parametrize(
    "shape", sorted(k for k in PINNED_EPISODES if k.startswith("stepped"))
)
def test_stepped_bodies_cross_breakpoints_and_stolen_time(shape):
    """Stepped episodes price what the platforms' taskbench episodes never
    reach: bodies across frequency breakpoints, inside stolen time."""
    platform, cpus, bound, substrate, workload, want = PINNED_EPISODES[shape]
    sched = _pinned_scheduler(platform, cpus, bound, substrate)
    crossed, stolen = [], []
    plan = sched.freq_plan
    sched.freq_plan = FrequencyPlan(
        plan.machine,
        {cpu: _Recorded(plan.trace(cpu), crossed) for cpu in range(plan.machine.n_cpus)},
        plan.window_start,
        plan.calibration_hz,
    )
    sched.noise.sets = {
        cpu: _Recorded(s, stolen) for cpu, s in sched.noise.sets.items()
    }
    stats = sched.run(workload, t_start=0.25)
    assert stats.t_end.hex() == want[3]
    assert len(crossed) == len(stolen) == stats.total_tasks
    assert any(crossed) and any(stolen)


def test_figure8_smoke_event_count_matches_committed_report():
    """The engine trajectory's headline count (``BENCH_engine.json``)."""
    assert bench_figure8_smoke(reps=30)["events"] == 6463


# ---------------------------------------------------------------------------
# Taskbench
# ---------------------------------------------------------------------------

class TestTaskbenchParams:
    def test_pattern_validated(self):
        with pytest.raises(BenchmarkError):
            TaskbenchParams(pattern="quicksort")

    def test_grainsize_num_tasks_exclusive(self):
        with pytest.raises(BenchmarkError):
            TaskbenchParams(grainsize=4, num_tasks=8)

    def test_labels(self):
        assert TaskbenchParams(grainsize=8).label(4) == "taskloop_g8"
        assert TaskbenchParams(num_tasks=32).label(4) == "taskloop_nt32"
        assert TaskbenchParams().label(4) == "taskloop_nt8"  # 2 x team size
        assert TaskbenchParams(pattern="fib", fib_n=12).label(4) == "fib_12"
        assert TaskbenchParams(pattern="uniform", n_tasks=64).label(4) == "uniform_64"


QUICK_TASK = {
    "outer_reps": 4, "pattern": "taskloop", "grainsize": 4,
    "total_iters": 128, "imbalance": 0.6,
}


def _task_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="taskbench", num_threads=4,
        runs=3, seed=17, benchmark_params=QUICK_TASK,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTaskbenchThroughHarness:
    def test_series_layout(self):
        result = Runner(_task_cfg()).run()
        assert set(result.labels()) == {
            "taskloop_g4", "taskloop_g4.steals",
            "taskloop_g4.failed_steals", "taskloop_g4.idle_frac",
        }
        times = result.runs_matrix("taskloop_g4")
        assert times.shape == (3, 4)
        assert np.all(times > 0)
        assert np.all(result.runs_matrix("taskloop_g4.steals") >= 0)

    def test_nonzero_steals_under_imbalance(self):
        result = Runner(_task_cfg()).run()
        assert result.runs_matrix("taskloop_g4.steals").sum() > 0

    def test_fib_pattern(self):
        cfg = _task_cfg(benchmark_params={
            "outer_reps": 2, "pattern": "fib", "fib_n": 8,
            "fib_leaf_work": 4e-6, "fib_node_work": 4e-7,
        })
        result = Runner(cfg).run()
        assert "fib_8" in result.labels()

    def test_unbound_team_runs(self):
        cfg = _task_cfg(places=None, proc_bind="false", runs=2)
        result = Runner(cfg).run()
        assert result.runs_matrix("taskloop_g4").shape == (2, 4)

    def test_parallel_bit_identical_to_serial(self):
        cfg = _task_cfg(runs=4)
        serial = Runner(cfg).run().to_dict()
        parallel = Sweep(jobs=4).run([cfg])[0].to_dict()
        assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_json_round_trip(self):
        from repro.harness.results import ExperimentResult

        result = Runner(_task_cfg(runs=2)).run()
        again = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert again.to_dict() == result.to_dict()


class TestTaskingCache:
    def test_tasking_params_participate_in_key(self):
        base = _task_cfg()
        assert cache_key(base) != cache_key(
            base.with_overrides(benchmark_params={**QUICK_TASK, "grainsize": 8})
        )
        assert cache_key(base) != cache_key(
            base.with_overrides(benchmark_params={**QUICK_TASK, "imbalance": 0.2})
        )
        assert cache_key(base) != cache_key(base.with_overrides(noise="quiet"))

    def test_cache_round_trip_serves_without_simulation(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = _task_cfg()
        first = Sweep(jobs=1, cache=cache).run([cfg])[0]
        assert cache.stores == 1

        def boom(self, run_indices):
            raise AssertionError("simulated despite warm cache")

        monkeypatch.setattr(runner_mod.Runner, "run_batch", boom)
        second = Sweep(jobs=1, cache=cache).run([cfg])[0]
        assert second.to_dict() == first.to_dict()
        assert cache.hits == 1


class TestNoiseProfileKnob:
    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(noise="loud")

    def test_quiet_is_deterministically_leq_default(self):
        noisy = Runner(_task_cfg()).run().runs_matrix("taskloop_g4")
        quiet = Runner(_task_cfg(noise="quiet")).run().runs_matrix("taskloop_g4")
        assert quiet.mean() <= noisy.mean()

    def test_noise_survives_round_trip(self):
        cfg = _task_cfg(noise="quiet")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

class TestTaskingReport:
    def test_split_labels(self):
        labels = (
            "taskloop_g4", "taskloop_g4.steals", "taskloop_g4.failed_steals",
            "taskloop_g4.idle_frac", "reduction",
        )
        times, metrics = split_tasking_labels(labels)
        assert times == ["taskloop_g4", "reduction"]
        assert set(metrics) == set(labels) - {"taskloop_g4", "reduction"}

    def test_split_requires_all_companions(self):
        times, metrics = split_tasking_labels(("x", "x.steals"))
        assert times == ["x", "x.steals"] and metrics == []

    def test_render_summary(self):
        steals = np.array([[4.0, 6.0], [5.0, 5.0]])
        failed = np.array([[1.0, 3.0], [2.0, 2.0]])
        idle = np.array([[0.1, 0.2], [0.15, 0.15]])
        text = render_tasking_summary("taskloop_g4", steals, failed, idle)
        assert "taskloop_g4" in text
        assert "fail rate" in text
        assert "all" in text

    def test_render_summary_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_tasking_summary(
                "x", np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))
            )


# ---------------------------------------------------------------------------
# Experiment registry + figure8
# ---------------------------------------------------------------------------

class TestExperimentRegistry:
    def test_all_drivers_registered(self):
        names = experiments.available_experiments()
        assert "table2" in names and "figure8" in names
        assert set(names) == set(experiments.EXPERIMENTS)

    def test_spec_carries_description_and_rep_params(self):
        spec = experiments.get_experiment("figure8")
        assert spec.driver is experiments.figure8
        assert spec.rep_params == ("outer_reps",)
        assert "work-stealing" in spec.description

    @pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
    def test_unknown_knob_raises_type_error(self, name):
        with pytest.raises(TypeError, match="bogus"):
            experiments.EXPERIMENTS[name].driver(bogus=1)

    def test_rep_params_come_from_the_builders(self):
        both = ("outer_reps", "num_times")
        expected = {"figure2": ("num_times",), "figure3": both,
                    "figure4": both, "figure5": both}
        assert {
            name: spec.rep_params
            for name, spec in experiments.EXPERIMENTS.items()
        } == {
            name: expected.get(name, ("outer_reps",))
            for name in experiments.EXPERIMENTS
        }

    def test_driver_takes_the_builder_knobs_and_jobs_cache(self):
        for spec in experiments.EXPERIMENTS.values():
            driver = inspect.signature(spec.driver).parameters
            builder = inspect.signature(spec.study_builder).parameters
            assert list(driver) == [*builder, "jobs", "cache"]
            assert [driver[k].default for k in builder] == [
                p.default for p in builder.values()
            ]

    def test_unknown_experiment_raises(self):
        with pytest.raises(HarnessError):
            experiments.get_experiment("figure99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(HarnessError):
            experiments.experiment(
                "dup", study=experiments.figure8_study, name="figure8"
            )(lambda result: None)


FIGURE8_TINY = dict(
    runs=2, outer_reps=3, seed=5, threads=(2, 4), grainsizes=(2,),
    noise_profiles=("default", "quiet"), total_iters=64,
)


class TestFigure8:
    def test_serial_jobs_and_replay_bit_identical(self, tmp_path):
        """Acceptance criteria: serial == --jobs N == cached replay."""
        serial = experiments.figure8(jobs=1, **FIGURE8_TINY)
        parallel = experiments.figure8(jobs=2, **FIGURE8_TINY)
        assert parallel.data == serial.data

        cache = ResultCache(tmp_path)
        warmed = experiments.figure8(jobs=2, cache=cache, **FIGURE8_TINY)
        assert warmed.data == serial.data
        replayed = experiments.figure8(jobs=1, cache=cache, **FIGURE8_TINY)
        assert cache.hits == cache.stores > 0
        assert replayed.data == serial.data

    def test_reports_nonzero_steals_under_imbalance(self):
        art = experiments.figure8(jobs=1, **FIGURE8_TINY)
        assert art.data["default/n4/g2"]["mean_steals"] > 0
        assert 0.0 <= art.data["default/n4/g2"]["failed_steal_rate"] <= 1.0
        assert "scheduler internals" in art.render()

    def test_noise_ablation_keys_present(self):
        art = experiments.figure8(jobs=1, **FIGURE8_TINY)
        for noise in ("default", "quiet"):
            for n in (2, 4):
                assert f"{noise}/n{n}/g2" in art.data
