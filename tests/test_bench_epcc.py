"""Tests for the EPCC benchmark machinery and drivers."""

import dataclasses
import math

import numpy as np
import pytest

from repro.bench import (
    BabelStream,
    BabelStreamParams,
    Schedbench,
    SchedbenchParams,
    Syncbench,
    SyncbenchParams,
    epcc_stats,
    get_benchmark,
    available_benchmarks,
    target_innerreps,
)
from repro.bench.taskbench import TaskbenchParams
from repro.errors import BenchmarkError
from repro.omp import OMPEnvironment, RegionExecutor
from repro.omp.runtime import OpenMPRuntime
from repro.platform import toy, vera
from repro.rng import RngFactory
from repro.types import ProcBind, ScheduleKind, StreamKernel, SyncConstruct
from repro.units import ms, us


def make_ctx(platform, n_threads=4, bound=True, run_index=0, seed=5, horizon=2.0,
              places="cores"):
    env = OMPEnvironment(
        num_threads=n_threads,
        places=places if bound else None,
        proc_bind=ProcBind.CLOSE if bound else ProcBind.FALSE,
    )
    rt = OpenMPRuntime(platform, env)
    return rt.start_run(run_index, RngFactory(seed), horizon)


def one_run(ctx) -> RegionExecutor:
    """The R=1 executor over a single run context."""
    return RegionExecutor([ctx])


class TestEpccCommon:
    def test_stats_fields(self):
        s = epcc_stats(np.asarray([1.0, 2.0, 3.0]))
        assert s.mean == 2.0
        assert s.n == 3
        assert s.norm_min == pytest.approx(0.5)
        assert s.norm_max == pytest.approx(1.5)

    def test_outlier_counting(self):
        x = np.ones(100)
        x[3] = 50.0
        assert epcc_stats(x).n_outliers == 1

    def test_stats_validation(self):
        with pytest.raises(BenchmarkError):
            epcc_stats(np.asarray([]))
        with pytest.raises(BenchmarkError):
            epcc_stats(np.asarray([-1.0]))

    def test_target_innerreps_power_of_two(self):
        reps = target_innerreps(us(1000), us(8))
        assert reps == 128
        assert reps & (reps - 1) == 0

    def test_target_innerreps_minimum_one(self):
        assert target_innerreps(us(1), us(100)) == 1

    def test_target_innerreps_validation(self):
        with pytest.raises(BenchmarkError):
            target_innerreps(0.0, 1.0)
        with pytest.raises(BenchmarkError):
            target_innerreps(1.0, 0.0)


class TestSyncbench:
    def test_measure_shapes(self):
        ctx = make_ctx(toy())
        bench = Syncbench(SyncbenchParams(outer_reps=12))
        m = bench.measure(one_run(ctx), SyncConstruct.BARRIER)[0]
        assert m.rep_times.shape == (12,)
        assert np.all(m.rep_times > 0)
        assert m.innerreps >= 1
        assert m.overheads.shape == (12,)

    def test_cursor_advances(self):
        ctx = make_ctx(toy())
        bench = Syncbench(SyncbenchParams(outer_reps=5))
        t0 = ctx.t
        bench.measure(one_run(ctx), SyncConstruct.BARRIER)[0]
        assert ctx.t > t0

    def test_reduction_slower_than_barrier(self):
        ctx = make_ctx(toy(), n_threads=8)
        bench = Syncbench(SyncbenchParams(outer_reps=10))
        red = bench.measure(one_run(ctx), SyncConstruct.REDUCTION)[0]
        bar = bench.measure(one_run(ctx), SyncConstruct.BARRIER)[0]
        # overhead per construct instance: reduction >> barrier
        assert red.overheads.mean() > bar.overheads.mean()

    def test_determinism(self):
        p = toy()
        bench = Syncbench(SyncbenchParams(outer_reps=8))
        a = bench.measure(one_run(make_ctx(p, seed=3)), SyncConstruct.SINGLE)[0]
        b = bench.measure(one_run(make_ctx(p, seed=3)), SyncConstruct.SINGLE)[0]
        np.testing.assert_array_equal(a.rep_times, b.rep_times)

    def test_different_seeds_differ(self):
        p = toy()
        bench = Syncbench(SyncbenchParams(outer_reps=8))
        a = bench.measure(one_run(make_ctx(p, seed=3)), SyncConstruct.SINGLE)[0]
        b = bench.measure(one_run(make_ctx(p, seed=4)), SyncConstruct.SINGLE)[0]
        assert not np.array_equal(a.rep_times, b.rep_times)

    def test_params_validation(self):
        with pytest.raises(BenchmarkError):
            SyncbenchParams(outer_reps=0)
        with pytest.raises(BenchmarkError):
            SyncbenchParams(test_time=0.0)
        with pytest.raises(BenchmarkError):
            SyncbenchParams(smt_efficiency=0.0)

    def test_unbound_team_reforks(self):
        ctx = make_ctx(toy(), bound=False)
        bench = Syncbench(SyncbenchParams(outer_reps=6))
        m = bench.measure(one_run(ctx), SyncConstruct.PARALLEL)[0]
        assert m.rep_times.shape == (6,)


class TestSchedbench:
    def test_table1_defaults(self):
        p = SchedbenchParams()
        assert p.outer_reps == 100
        assert p.delay_time == pytest.approx(us(15))
        assert p.itersperthr == 8192

    def test_measure_static(self):
        ctx = make_ctx(toy(), horizon=60.0)
        bench = Schedbench(SchedbenchParams(outer_reps=5, itersperthr=256))
        m = bench.measure(one_run(ctx), ScheduleKind.STATIC)[0]
        assert m.label == "static"
        assert m.rep_times.shape == (5,)
        # 256 iters x 15us at calibration, derated by all-core boost
        assert m.stats.mean > 256 * us(15) * 0.9

    def test_dynamic_slower_than_static(self):
        ctx = make_ctx(toy(), horizon=60.0)
        bench = Schedbench(SchedbenchParams(outer_reps=5, itersperthr=256))
        st = bench.measure(one_run(ctx), ScheduleKind.STATIC)[0]
        dy = bench.measure(one_run(ctx), ScheduleKind.DYNAMIC, 1)[0]
        assert dy.stats.mean > st.stats.mean

    def test_params_validation(self):
        with pytest.raises(BenchmarkError):
            SchedbenchParams(outer_reps=0)
        with pytest.raises(BenchmarkError):
            SchedbenchParams(itersperthr=-1)
        with pytest.raises(BenchmarkError):
            SchedbenchParams(smt_efficiency=1.5)

    def test_vera_4thread_calibration(self):
        """Table 2: Vera @ 4 threads ~ 136.5 ms (+-2%)."""
        plat = vera()
        env = OMPEnvironment(num_threads=4, places="cores", proc_bind=ProcBind.CLOSE)
        rt = OpenMPRuntime(plat, env)
        bench = Schedbench(SchedbenchParams(outer_reps=10))
        ctx = rt.start_run(0, RngFactory(42), horizon=bench.horizon_estimate(4))
        m = bench.measure(one_run(ctx), ScheduleKind.DYNAMIC, 1)[0]
        assert m.stats.mean == pytest.approx(ms(136.5), rel=0.02)


class TestBabelStream:
    def test_paper_array_size(self):
        p = BabelStreamParams()
        assert p.array_size == 2**25
        assert p.array_bytes == 256 * 2**20

    def test_kernel_bytes(self):
        p = BabelStreamParams()
        assert p.kernel_bytes(StreamKernel.COPY) == 2 * p.array_bytes
        assert p.kernel_bytes(StreamKernel.TRIAD) == 3 * p.array_bytes

    def test_run_shapes(self):
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=7))
        sm = bench.run(one_run(ctx))[0]
        for kernel in StreamKernel:
            assert sm.times[kernel].shape == (7,)
            assert np.all(sm.times[kernel] > 0)

    def test_add_triad_slower_than_copy(self):
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=5))
        sm = bench.run(one_run(ctx))[0]
        assert sm.times[StreamKernel.ADD].mean() > sm.times[StreamKernel.COPY].mean()

    def test_normalized_min_max_brackets_one(self):
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=10))
        sm = bench.run(one_run(ctx))[0]
        lo, hi = sm.normalized_min_max(StreamKernel.TRIAD)
        assert lo <= 1.0 <= hi

    def test_bandwidth_positive(self):
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=5))
        sm = bench.run(one_run(ctx))[0]
        assert sm.bandwidth(StreamKernel.COPY, bench.params) > 1e9

    def test_more_threads_faster(self):
        plat = toy()
        bench = BabelStream(BabelStreamParams(num_times=5))
        t2 = bench.run(one_run(make_ctx(plat, n_threads=2, horizon=60.0)))[0]
        t8 = bench.run(one_run(make_ctx(plat, n_threads=8, horizon=60.0)))[0]
        assert (
            t8.times[StreamKernel.COPY].mean() < t2.times[StreamKernel.COPY].mean()
        )

    def test_params_validation(self):
        with pytest.raises(BenchmarkError):
            BabelStreamParams(array_size=0)
        with pytest.raises(BenchmarkError):
            BabelStreamParams(num_times=0)


class TestRegistry:
    def test_lookup(self):
        assert type(get_benchmark("syncbench")).__name__ == "Syncbench"
        assert type(get_benchmark("SCHEDBENCH")).__name__ == "Schedbench"
        assert type(get_benchmark("babelstream")).__name__ == "BabelStream"

    def test_unknown(self):
        with pytest.raises(BenchmarkError):
            get_benchmark("linpack")

    def test_available(self):
        assert set(available_benchmarks()) == {
            "babelstream", "schedbench", "syncbench", "taskbench",
        }


def _float_fields(cls) -> list[tuple[type, str]]:
    defaults = cls()
    return [
        (cls, f.name) for f in dataclasses.fields(cls)
        if isinstance(getattr(defaults, f.name), float)
    ]


FLOAT_PARAMS = [
    case
    for cls in (TaskbenchParams, SyncbenchParams, SchedbenchParams, BabelStreamParams)
    for case in _float_fields(cls)
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name", FLOAT_PARAMS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_PARAMS]
)
def test_non_finite_float_parameter_rejected(cls, name, value):
    with pytest.raises(BenchmarkError, match=f"{name} must be finite"):
        cls(**{name: value})


def _int_fields(cls) -> list[tuple[type, str]]:
    return [
        (cls, f.name) for f in dataclasses.fields(cls) if f.type in ("int", "int | None")
    ]


INT_PARAMS = [
    case
    for cls in (TaskbenchParams, SyncbenchParams, SchedbenchParams, BabelStreamParams)
    for case in _int_fields(cls)
]


@pytest.mark.parametrize("value", [64.0, 2.5, 1e3, True, False, "8"])
@pytest.mark.parametrize(
    "cls, name", INT_PARAMS, ids=[f"{c.__name__}.{n}" for c, n in INT_PARAMS]
)
def test_non_integer_count_parameter_rejected(cls, name, value):
    with pytest.raises(BenchmarkError, match=f"{name} must be an integer, got {value!r}"):
        cls(**{name: value})


@pytest.mark.parametrize(
    "cls, name", INT_PARAMS, ids=[f"{c.__name__}.{n}" for c, n in INT_PARAMS]
)
def test_numpy_integer_count_parameter_accepted(cls, name):
    value = getattr(cls(), name)
    if value is None:  # an optional count: None stays legal
        value = 4
    assert getattr(cls(**{name: np.int64(value)}), name) == value


def test_int_fields_cover_every_benchmark():
    assert {cls for cls, _ in INT_PARAMS} == {
        TaskbenchParams, SyncbenchParams, SchedbenchParams, BabelStreamParams,
    }
