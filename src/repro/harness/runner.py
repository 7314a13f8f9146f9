"""The experiment runner: N independent runs of one configuration."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.bench.babelstream import BabelStream, BabelStreamParams
from repro.bench.epcc.schedbench import Schedbench, SchedbenchParams
from repro.bench.epcc.syncbench import Syncbench, SyncbenchParams
from repro.bench.taskbench import Taskbench, TaskbenchParams
from repro.errors import ConfigurationError, HarnessError
from repro.harness.config import ExperimentConfig
from repro.harness.freqlogger import FrequencyLogger
from repro.harness.results import ExperimentResult, RunRecord
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.omp.region import RegionExecutor
from repro.omp.runtime import OpenMPRuntime, RunContext
from repro.platform import get_platform
from repro.rng import RngFactory
from repro.types import ScheduleKind, SyncConstruct


def _runs_share_batches(config: ExperimentConfig, traced: bool) -> bool:
    """Whether several of *config*'s runs may execute as one batch.

    A bound, untraced region benchmark shares its team across runs, so
    its runs evaluate together on the region executor's rep axis.
    Unbound teams re-place per repetition, *traced* runs emit their spans
    run by run, and taskbench's work-stealing order couples a run's
    repetitions to its history: those execute one run per batch.
    """
    return (
        config.benchmark.lower() != "taskbench"
        and config.omp_environment().bound
        and not traced
    )


def run_batches(
    config: ExperimentConfig, traced: bool = False
) -> list[tuple[int, ...]]:
    """*config*'s run indices grouped into execution batches: all runs
    together where they may share a batch, one run per batch otherwise."""
    runs = tuple(range(config.runs))
    if _runs_share_batches(config, traced):
        return [runs]
    return [(run,) for run in runs]


class Runner:
    """Executes an :class:`ExperimentConfig` into an :class:`ExperimentResult`.

    A benchmark "run" corresponds to one launch of the real benchmark
    binary: a fresh OS placement, frequency realization and noise
    realization, followed by the benchmark's own outer repetitions.
    """

    def __init__(self, config: ExperimentConfig, tracer: Tracer = NULL_TRACER):
        self.config = config
        self.tracer = tracer
        self.platform = get_platform(config.platform)
        if config.noise == "quiet":
            self.platform = self.platform.quiet()
        self.env = config.omp_environment()
        # vendor profile from the config; env carries wait-policy overrides
        self.runtime = OpenMPRuntime(
            self.platform, self.env, profile=config.runtime_profile()
        )
        self.rng_factory = RngFactory(config.seed).child(
            config.platform, config.benchmark, config.num_threads, config.proc_bind
        )
        self._bench = self._make_benchmark()
        # resolved and checked before any run is simulated
        self._logger_at = self._logger_cpu() if config.freq_logging else None

    # -- benchmark construction -----------------------------------------------

    def _make_benchmark(self) -> Any:
        name = self.config.benchmark.lower()
        params = dict(self.config.benchmark_params)
        try:
            return self._build_benchmark(name, params)
        except TypeError as exc:
            # a mistyped/unknown benchmark parameter (e.g. --param bogus=1,
            # or a sweep axis that matches no knob of this benchmark) fails
            # the params-dataclass construction with TypeError; surface it
            # as a configuration error instead of a raw traceback
            raise ConfigurationError(
                f"bad parameters for benchmark {name!r}: {exc}"
            ) from exc

    def _build_benchmark(self, name: str, params: dict) -> Any:
        if name == "syncbench":
            constructs = params.pop("constructs", None)
            bench = Syncbench(SyncbenchParams(**params))
            bench_constructs = (
                tuple(SyncConstruct(c) for c in constructs)
                if constructs is not None
                else (SyncConstruct.REDUCTION,)
            )
            return ("syncbench", bench, bench_constructs)
        if name == "schedbench":
            schedules = params.pop("schedules", None)
            bench = Schedbench(SchedbenchParams(**params))
            if schedules is None:
                sched_list = (
                    (ScheduleKind(self.config.schedule), self.config.schedule_chunk),
                )
            else:
                sched_list = tuple(
                    (ScheduleKind(k), c) for k, c in schedules
                )
            return ("schedbench", bench, sched_list)
        if name == "babelstream":
            bench = BabelStream(BabelStreamParams(**params))
            return ("babelstream", bench, None)
        if name == "taskbench":
            bench = Taskbench(TaskbenchParams(**params))
            return ("taskbench", bench, None)
        raise HarnessError(f"unknown benchmark {self.config.benchmark!r}")

    # -- horizon estimation ------------------------------------------------------

    def _horizon(self, ctx_threads: int) -> float:
        kind, bench, payload = self._bench
        if kind == "syncbench":
            return bench.horizon_estimate() * (len(payload) + 0.5)
        if kind == "schedbench":
            return bench.horizon_estimate(ctx_threads) * (len(payload) + 0.5)
        if kind == "taskbench":
            return bench.horizon_estimate(ctx_threads) * 1.5
        # babelstream: needs a context to price kernels; use a generous bound
        p = bench.params
        per_iter = 5 * p.array_bytes * 3 / 20e9 + 5 * p.kernel_gap
        return p.num_times * per_iter * 4.0 + 1.0

    # -- execution -----------------------------------------------------------------

    def planned_cpus(self) -> tuple[int, ...]:
        """CPUs the benchmark team is planned to occupy.

        Bound runs resolve OMP_PLACES/OMP_PROC_BIND to an exact cpuset.  An
        unbound team's placement is the OS's choice and unknowable ahead of
        time, except when the team needs every CPU of the machine.
        """
        if self.env.bound:
            return tuple(self.runtime.resolve_bound_team().cpus)
        if self.config.num_threads >= self.platform.machine.n_cpus:
            return tuple(range(self.platform.machine.n_cpus))
        return ()

    def _logger_cpu(self) -> int:
        machine = self.platform.machine
        n_cpus = machine.n_cpus
        planned = set(self.planned_cpus())
        if self.config.logger_cpu is not None:
            cpu = self.config.logger_cpu
            if isinstance(cpu, bool) or not isinstance(cpu, int) or not 0 <= cpu < n_cpus:
                raise HarnessError(
                    f"frequency logger CPU {cpu!r} is not a CPU of "
                    f"{machine.name} (CPUs 0-{n_cpus - 1})"
                )
        else:
            # default: the last CPU of the machine (a spare core in the
            # paper's configurations, which leave at least 2 CPUs free)
            cpu = n_cpus - 1
        if cpu in planned:
            free = [c for c in range(n_cpus) if c not in planned]
            hint = (
                f"; pass logger_cpu={free[-1]}" if free
                else "; no CPU is free for the logger on this machine"
            )
            raise HarnessError(
                f"frequency logger CPU {cpu} collides with the benchmark "
                f"team's planned cpuset {sorted(planned)}{hint}"
            )
        return cpu

    def start_run_context(
        self, run_index: int
    ) -> tuple[RunContext, FrequencyLogger | None]:
        """Realize one run's context (and its frequency logger, if any)."""
        cfg = self.config
        extra_busy: tuple[int, ...] = ()
        logger = None
        if cfg.freq_logging:
            logger = FrequencyLogger(self._logger_at)
            extra_busy = (logger.logger_cpu,)
        horizon = self._horizon(cfg.num_threads)
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin_run(run_index)
        ctx = self.runtime.start_run(
            run_index, self.rng_factory, horizon, extra_busy_cpus=extra_busy,
            tracer=tracer,
        )
        return ctx, logger

    def capture_freq_log(self, ctx: RunContext, logger: FrequencyLogger | None):
        """Post-run frequency-logger capture (``None`` without logging)."""
        if logger is None:
            return None
        return logger.capture(
            self.platform.freq_spec,
            ctx.freq_plan,
            self.platform.default_governor,
            0.0,
            max(ctx.t, 1e-3),
        )

    # -- batches ---------------------------------------------------------------

    def batches(self) -> list[tuple[int, ...]]:
        """The config's run indices, grouped into execution batches."""
        return run_batches(self.config, traced=self.tracer.enabled)

    def run_batch(self, run_indices: Sequence[int]) -> list[RunRecord]:
        """Simulate the runs *run_indices* as one batch; records in order.

        Any grouping of runs into batches gives identical records: the
        grouping only decides which runs share the region executor.
        """
        run_indices = tuple(run_indices)
        if len(run_indices) > 1 and not _runs_share_batches(
            self.config, self.tracer.enabled
        ):
            raise ConfigurationError(
                f"config runs one run per batch; got {len(run_indices)} runs"
            )
        pairs = [self.start_run_context(run) for run in run_indices]
        runs = [ctx for ctx, _ in pairs]
        series: list[dict[str, Any]] = [{} for _ in runs]

        kind, bench, payload = self._bench
        if kind == "taskbench":
            (ctx,) = runs
            tm = bench.measure(ctx)
            series[0][tm.label] = tm.rep_times
            series[0].update(tm.metric_series())
        else:
            ex = RegionExecutor(runs)
            if kind == "syncbench":
                for construct in payload:
                    for row, m in zip(series, bench.measure(ex, construct)):
                        row[construct.value] = m.rep_times
                        # EPCC's reported metric: per-construct overhead
                        row[f"{construct.value}.overhead"] = np.maximum(
                            m.overheads, 0.0
                        )
            elif kind == "schedbench":
                for sched_kind, chunk in payload:
                    for row, m in zip(series, bench.measure(ex, sched_kind, chunk)):
                        row[m.label] = m.rep_times
            else:  # babelstream
                for row, sm in zip(series, bench.run(ex)):
                    for kernel, times in sm.times.items():
                        row[kernel.value] = times

        tracer = self.tracer
        if tracer.enabled:
            (ctx,) = runs
            # paint the realized OS noise under the run we just executed
            ctx.noise.trace_onto(
                tracer, sorted(set(ctx.team.cpus)), 0.0, max(ctx.t, 1e-9)
            )
        return [
            RunRecord(
                run_index=run,
                series=row,
                freq_log=self.capture_freq_log(ctx, logger),
            )
            for run, row, (ctx, logger) in zip(run_indices, series, pairs)
        ]

    def run_one(self, run_index: int) -> RunRecord:
        """Simulate one run as a batch of its own."""
        return self.run_batch((run_index,))[0]

    def run(self) -> ExperimentResult:
        records = tuple(
            record for batch in self.batches() for record in self.run_batch(batch)
        )
        return ExperimentResult(config=self.config, records=records)
