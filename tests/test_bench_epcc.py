"""Tests for the EPCC benchmark machinery and drivers."""

import dataclasses
import hashlib
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
    get_benchmark,
    available_benchmarks,
    target_innerreps,
)
from repro.bench.registry import reps_param, runs_share_batches
from repro.bench.taskbench import TaskbenchParams
from repro.errors import BenchmarkError, ConfigurationError, ReproError
from repro.omp import OMPEnvironment
from repro.omp.runtime import OpenMPRuntime
from repro.platform import toy, vera
from repro.rng import RngFactory
from repro.serve.jobspec import spec_to_study, validate_spec
from repro.stats import normalized_min_max, sigma_outliers, summarize
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


def one_series(bench, ctx) -> dict:
    """*bench*'s series of the single run *ctx*."""
    (row,) = bench.series([ctx])
    return row


class TestEpccCommon:
    """EPCC prints mean / sd / min / max and the 3-sigma outlier count of
    its repetition times; :mod:`repro.stats` computes them."""

    def test_stats_fields(self):
        s = summarize(np.asarray([1.0, 2.0, 3.0]))
        assert s.mean == 2.0
        assert s.n == 3
        assert s.norm_min == pytest.approx(0.5)
        assert s.norm_max == pytest.approx(1.5)

    def test_outlier_counting(self):
        x = np.ones(100)
        x[3] = 50.0
        assert np.count_nonzero(sigma_outliers(x)) == 1

    def test_stats_validation(self):
        with pytest.raises(ReproError):
            summarize(np.asarray([]))
        with pytest.raises(ReproError):
            summarize(np.asarray([np.nan]))

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
        bench = Syncbench(SyncbenchParams(outer_reps=12, constructs=["barrier"]))
        row = one_series(bench, ctx)
        assert list(row) == ["barrier", "barrier.overhead"]
        assert row["barrier"].shape == (12,)
        assert np.all(row["barrier"] > 0)
        assert row["barrier.overhead"].shape == (12,)
        assert np.all(row["barrier.overhead"] >= 0)

    def test_cursor_advances(self):
        ctx = make_ctx(toy())
        bench = Syncbench(SyncbenchParams(outer_reps=5, constructs=["barrier"]))
        t0 = ctx.t
        one_series(bench, ctx)
        assert ctx.t > t0

    def test_reduction_slower_than_barrier(self):
        ctx = make_ctx(toy(), n_threads=8)
        bench = Syncbench(
            SyncbenchParams(outer_reps=10, constructs=["reduction", "barrier"])
        )
        row = one_series(bench, ctx)
        # overhead per construct instance: reduction >> barrier
        assert row["reduction.overhead"].mean() > row["barrier.overhead"].mean()

    def test_determinism(self):
        p = toy()
        bench = Syncbench(SyncbenchParams(outer_reps=8, constructs=["single"]))
        a = one_series(bench, make_ctx(p, seed=3))
        b = one_series(bench, make_ctx(p, seed=3))
        np.testing.assert_array_equal(a["single"], b["single"])

    def test_different_seeds_differ(self):
        p = toy()
        bench = Syncbench(SyncbenchParams(outer_reps=8, constructs=["single"]))
        a = one_series(bench, make_ctx(p, seed=3))
        b = one_series(bench, make_ctx(p, seed=4))
        assert not np.array_equal(a["single"], b["single"])

    def test_params_validation(self):
        with pytest.raises(BenchmarkError):
            SyncbenchParams(outer_reps=0)
        with pytest.raises(BenchmarkError):
            SyncbenchParams(test_time=0.0)
        with pytest.raises(BenchmarkError):
            SyncbenchParams(smt_efficiency=0.0)

    def test_unbound_team_reforks(self):
        ctx = make_ctx(toy(), bound=False)
        bench = Syncbench(SyncbenchParams(outer_reps=6, constructs=["parallel"]))
        assert one_series(bench, ctx)["parallel"].shape == (6,)

    def test_constructs_parse_to_enum_members(self):
        p = SyncbenchParams(constructs=["barrier", SyncConstruct.SINGLE])
        assert p.constructs == (SyncConstruct.BARRIER, SyncConstruct.SINGLE)
        assert SyncbenchParams().constructs == (SyncConstruct.REDUCTION,)

    @pytest.mark.parametrize("value", [
        "reduction", "bogus", SyncConstruct.BARRIER, [], ["bogus"],
        ["barrier", "barrier"], [["barrier"]], 3, None,
    ])
    def test_bad_constructs_rejected(self, value):
        with pytest.raises(BenchmarkError, match="constructs"):
            SyncbenchParams(constructs=value)


class TestSchedbench:
    def test_table1_defaults(self):
        p = SchedbenchParams()
        assert p.outer_reps == 100
        assert p.delay_time == pytest.approx(us(15))
        assert p.itersperthr == 8192

    def test_measure_static(self):
        ctx = make_ctx(toy(), horizon=60.0)
        bench = Schedbench(SchedbenchParams(outer_reps=5, itersperthr=256))
        row = one_series(bench, ctx)  # the run's OMP_SCHEDULE: static
        assert list(row) == ["static"]
        assert row["static"].shape == (5,)
        # 256 iters x 15us at calibration, derated by all-core boost
        assert row["static"].mean() > 256 * us(15) * 0.9

    def test_dynamic_slower_than_static(self):
        ctx = make_ctx(toy(), horizon=60.0)
        bench = Schedbench(SchedbenchParams(
            outer_reps=5, itersperthr=256,
            schedules=[["static", None], ["dynamic", 1]],
        ))
        row = one_series(bench, ctx)
        assert list(row) == ["static", "dynamic_1"]
        assert row["dynamic_1"].mean() > row["static"].mean()

    def test_schedules_parse_to_enum_pairs(self):
        p = SchedbenchParams(schedules=[["guided", 4], ("static", None)])
        assert p.schedules == ((ScheduleKind.GUIDED, 4), (ScheduleKind.STATIC, None))
        assert SchedbenchParams().schedules is None

    @pytest.mark.parametrize("value", [
        "bogus", "dynamic,1", [], ["dynamic"], [["dynamic"]], [["bogus", 1]],
        [["dynamic", 0]], [["dynamic", 1.5]], [["dynamic", True]],
        [["static", 1, 2]], [["dynamic", 1], ["dynamic", 1]], 3,
    ])
    def test_bad_schedules_rejected(self, value):
        with pytest.raises(BenchmarkError, match="schedules"):
            SchedbenchParams(schedules=value)

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
        bench = Schedbench(SchedbenchParams(outer_reps=10, schedules=[["dynamic", 1]]))
        ctx = rt.start_run(0, RngFactory(42), horizon=bench.horizon(4))
        row = one_series(bench, ctx)
        assert row["dynamic_1"].mean() == pytest.approx(ms(136.5), rel=0.02)


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
        row = one_series(bench, ctx)
        assert list(row) == [kernel.value for kernel in StreamKernel]
        for times in row.values():
            assert times.shape == (7,)
            assert np.all(times > 0)

    def test_add_triad_slower_than_copy(self):
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=5))
        row = one_series(bench, ctx)
        assert row["add"].mean() > row["copy"].mean()

    def test_normalized_min_max_brackets_one(self):
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=10))
        lo, hi = normalized_min_max(one_series(bench, ctx)["triad"])
        assert lo <= 1.0 <= hi

    def test_bandwidth_positive(self):
        """Best achieved bandwidth, as BabelStream reports it."""
        ctx = make_ctx(toy(), horizon=30.0)
        bench = BabelStream(BabelStreamParams(num_times=5))
        best = one_series(bench, ctx)["copy"].min()
        assert bench.params.kernel_bytes(StreamKernel.COPY) / best > 1e9

    def test_more_threads_faster(self):
        plat = toy()
        bench = BabelStream(BabelStreamParams(num_times=5))
        t2 = one_series(bench, make_ctx(plat, n_threads=2, horizon=60.0))
        t8 = one_series(bench, make_ctx(plat, n_threads=8, horizon=60.0))
        assert t8["copy"].mean() < t2["copy"].mean()

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
        with pytest.raises(ConfigurationError, match="unknown benchmark 'linpack'"):
            get_benchmark("linpack")

    def test_available(self):
        assert set(available_benchmarks()) == {
            "babelstream", "schedbench", "syncbench", "taskbench",
        }

    @pytest.mark.parametrize("name", ["syncbench", "SyncBench", "BABELSTREAM"])
    def test_params_reach_the_params_type(self, name):
        bench = get_benchmark(name, {reps_param(name): 3})
        assert isinstance(bench.params, bench.params_type)
        assert getattr(bench.params, reps_param(name)) == 3

    def test_unknown_parameter_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="bad parameters for benchmark 'syncbench'"):
            get_benchmark("SyncBench", {"bogus": 1})

    def test_every_row_names_its_class_and_knobs(self):
        """Each row's repetition parameter is a field of its class's
        params type, and only taskbench runs one run per batch."""
        for name in available_benchmarks():
            bench = get_benchmark(name)
            assert type(bench.params) is bench.params_type
            knobs = {f.name for f in dataclasses.fields(bench.params_type)}
            assert reps_param(name) in knobs
        assert [
            name for name in available_benchmarks() if not runs_share_batches(name)
        ] == ["taskbench"]


#: ``horizon(8)`` for Vera configs at 8 threads: the extent of every
#: run's noise and frequency realization, which the runner sized before
#: each benchmark sized its own.
PINNED_HORIZONS = [
    ("syncbench", {}, 1.2075),
    ("syncbench", {"constructs": ["barrier", "single", "reduction"]}, 2.8175),
    ("schedbench", {}, 31.0212),
    ("schedbench", {"schedules": [["dynamic", 1], ["static", None]]}, 51.702000000000005),
    ("babelstream", {}, 81.5406368),
    ("taskbench", {}, 1.5595500000000002),
    ("taskbench", {"pattern": "fib"}, 1.6269299999999998),
]


@pytest.mark.parametrize(
    "name, params, horizon", PINNED_HORIZONS,
    ids=[f"{name}-{'-'.join(params) or 'default'}" for name, params, _ in PINNED_HORIZONS],
)
def test_horizon_is_pinned(name, params, horizon):
    assert get_benchmark(name, params).horizon(8) == horizon


def test_schedules_run_is_pinned():
    """A schedbench run over an explicit ``schedules`` list, bound and
    unbound, keeps its records' bytes."""
    spec = {
        "base": {
            "platform": "vera", "benchmark": "schedbench", "num_threads": 8,
            "runs": 2, "seed": 7,
            "benchmark_params": {
                "outer_reps": 3, "itersperthr": 256,
                "schedules": [["dynamic", 1], ["static", None]],
            },
        },
        "axes": [{"kind": "grid", "axes": {"proc_bind": ["close", "false"]}}],
    }
    text = spec_to_study(validate_spec(spec)).run().to_csv_text()
    assert len(text.splitlines()) == 9
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d01535a0700252b9670922a1d60d60e7587595197fd2fe154a27129885557f49"
    )


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
