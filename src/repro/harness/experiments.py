"""Canonical experiments — one per table/figure of the paper.

Every experiment regenerates one artifact of the evaluation section as an
:class:`ExperimentArtifact` carrying both structured data (for assertions
and further analysis) and an ASCII rendering (the "figure").

An experiment is declared once, as two functions:

* a *study builder* (``figure3_study``, ...) returns the experiment's
  sweep as a :class:`~repro.harness.study.Study`.  Its signature is the
  experiment's whole knob surface — scale (``runs``, ``outer_reps`` /
  ``num_times``), ``seed`` and axis values — and its defaults are the
  paper's scale (10 runs x 100 repetitions);
* a *renderer*, decorated with :func:`experiment`, turns the executed
  :class:`~repro.harness.study.StudyResult` into the artifact.  It takes
  the knobs it reads as keyword-only arguments and declares no defaults:
  those live in the builder.

The decorator returns the experiment's *driver*, ``figure3(runs=2,
jobs=2, cache=...)``: it binds the call's knobs against the builder's
signature (an unknown knob raises :class:`TypeError`), runs the study
through one shared :class:`~repro.harness.parallel.Sweep` and renders the
result.  Besides the builder's knobs, every driver accepts two execution
knobs, forwarded to ``Study.run``:

``jobs``
    Worker processes for the run fan-out (default ``1`` = serial;
    ``0``/``None`` = every core).  All of an experiment's configs share
    one sweep, so the runs of short configs interleave with long ones
    instead of serializing behind them.  Results are bit-identical to
    serial execution for any ``jobs``.
``cache``
    Optional :class:`~repro.harness.cache.ResultCache`; configs already in
    the cache are replayed from disk without any simulation.

The rendered artifacts are regression-locked byte-for-byte against the
committed goldens (``tests/test_study.py``).

Index:

========  ==================================================================
table2    schedbench dynamic_1 total times, Dardel@{4,254} / Vera@{4,30}
figure1   syncbench (reduction) time vs thread count, both platforms
figure2   BabelStream kernel times vs thread count, both platforms
figure3   scalability of normalized min/max variability, 3 benchmarks x 2
figure4   pinning on/off on Dardel (schedbench@16, syncbench@128, stream@128)
figure5   ST vs MT on Dardel (schedbench@128, syncbench@32, stream@128)
figure6   Vera schedbench, 16 cores on 1 vs 2 NUMA domains + freq traces
figure7   Vera syncbench, same configurations
figure8   taskbench work-stealing, threads x grainsize x noise on Vera

runtime_compare  vendor (libgomp/libomp) x wait-policy x threads, both
                 platforms — an open-comparison scenario beyond the paper
========  ==================================================================

The CLI (``repro-omp list`` / ``repro-omp experiment``), the job service
and the bench harness discover experiments from the registry, so a new
one needs no dispatch edits anywhere else.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import HarnessError
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig
from repro.harness.report import (
    render_pivot,
    render_series,
    render_table,
    render_tasking_summary,
)
from repro.harness.study import Study, StudyResult
from repro.stats.descriptive import summarize
from repro.types import StreamKernel, SyncConstruct
from repro.units import to_ms, to_us


@dataclass(frozen=True)
class ExperimentArtifact:
    """One regenerated table/figure."""

    name: str
    description: str
    sections: tuple[tuple[str, str], ...]
    data: dict[str, Any] = field(compare=False, default_factory=dict)

    def render(self) -> str:
        parts = [f"### {self.name}: {self.description}"]
        for title, text in self.sections:
            parts.append(f"--- {title} ---")
            parts.append(text)
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REP_PARAM_NAMES = ("outer_reps", "num_times")


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: its study builder, renderer and driver.

    ``study_builder`` returns the exact :class:`~repro.harness.study.Study`
    the experiment executes, as a pure function of its knobs; the job
    service builds experiment jobs from it.  ``renderer`` turns the
    executed :class:`~repro.harness.study.StudyResult` into the artifact,
    and ``driver`` does both (see the module docstring).
    """

    name: str
    description: str
    study_builder: Callable[..., Study]
    renderer: Callable[..., ExperimentArtifact]
    driver: Callable[..., ExperimentArtifact]

    @property
    def rep_params(self) -> tuple[str, ...]:
        """The builder's repetition knobs (``outer_reps`` / ``num_times``)."""
        params = inspect.signature(self.study_builder).parameters
        return tuple(k for k in _REP_PARAM_NAMES if k in params)

    def knobs(
        self,
        runs: int | None = None,
        reps: int | None = None,
        seed: int | None = None,
    ) -> dict[str, int]:
        """The knobs one ``runs`` / ``reps`` / ``seed`` triple sets, as the
        CLI and the job service pass them: ``reps`` sets every repetition
        knob the builder has, and ``None`` leaves the builder's default."""
        knobs: dict[str, int] = {}
        if runs is not None:
            knobs["runs"] = runs
        if reps is not None:
            knobs.update(dict.fromkeys(self.rep_params, reps))
        if seed is not None:
            knobs["seed"] = seed
        return knobs

    def bind(self, **knobs: Any) -> dict[str, Any]:
        """*knobs* with the builder's defaults filled in; a knob the
        builder does not take raises :class:`TypeError`."""
        bound = inspect.signature(self.study_builder).bind(**knobs)
        bound.apply_defaults()
        return bound.arguments

    def build_study(self, **knobs: Any) -> Study:
        """Call ``study_builder`` with the knobs its signature accepts.

        Unknown knobs are dropped (a caller mapping ``--reps`` onto both
        rep param names can pass the union), so one call site serves every
        registered experiment.
        """
        params = inspect.signature(self.study_builder).parameters
        accepted = {k: v for k, v in knobs.items() if k in params}
        return self.study_builder(**accepted)

    def render(self, result: StudyResult, **knobs: Any) -> ExperimentArtifact:
        """Render an executed study of this experiment; knobs left out
        take the builder's defaults."""
        bound = self.bind(**knobs)
        names = inspect.signature(self.renderer).parameters
        return self.renderer(
            result, **{k: v for k, v in bound.items() if k in names}
        )


#: name -> spec, populated by the :func:`experiment` decorator.
EXPERIMENTS: dict[str, ExperimentSpec] = {}

#: The execution knobs every driver takes besides its builder's knobs.
_EXECUTION_PARAMS = (
    inspect.Parameter("jobs", inspect.Parameter.KEYWORD_ONLY, default=1),
    inspect.Parameter("cache", inspect.Parameter.KEYWORD_ONLY, default=None),
)


def experiment(
    description: str,
    *,
    study: Callable[..., Study],
    name: str | None = None,
):
    """Register the decorated renderer with its *study* builder under
    *name* (default: the renderer's name) and return the driver."""

    def decorate(render: Callable[..., ExperimentArtifact]):
        exp_name = name if name is not None else render.__name__
        if exp_name in EXPERIMENTS:
            raise HarnessError(f"experiment {exp_name!r} registered twice")

        @functools.wraps(render)
        def driver(
            *, jobs: int | None = 1, cache: ResultCache | None = None,
            **knobs: Any,
        ) -> ExperimentArtifact:
            bound = spec.bind(**knobs)
            result = study(**bound).run(jobs=jobs, cache=cache)
            return spec.render(result, **bound)

        params = inspect.signature(study).parameters.values()
        driver.__signature__ = inspect.Signature([  # type: ignore[attr-defined]
            *(p.replace(kind=p.KEYWORD_ONLY) for p in params),
            *_EXECUTION_PARAMS,
        ])
        spec = ExperimentSpec(
            name=exp_name,
            description=description,
            study_builder=study,
            renderer=render,
            driver=driver,
        )
        EXPERIMENTS[exp_name] = spec
        return driver

    return decorate


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment; raises :class:`HarnessError` if unknown."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise HarnessError(
            f"unknown experiment {name!r}; choose from {available_experiments()}"
        ) from None


def available_experiments() -> tuple[str, ...]:
    return tuple(sorted(EXPERIMENTS))


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

_TABLE2_COLUMNS = (
    ("dardel", 4, "cores"),
    ("dardel", 254, "threads"),
    ("vera", 4, "cores"),
    ("vera", 30, "cores"),
)


def table2_study(
    runs: int = 10, outer_reps: int = 100, seed: int = 42
) -> Study:
    """The table2 sweep: schedbench dynamic_1 on four platform@threads."""
    return Study(
        ExperimentConfig(
            benchmark="schedbench",
            proc_bind="close",
            schedule="dynamic",
            schedule_chunk=1,
            runs=runs,
            seed=seed,
            benchmark_params={"outer_reps": outer_reps},
        ),
        name="table2",
        description="run-to-run schedbench dynamic_1 execution times",
    ).cases(*(
        {"platform": platform, "num_threads": threads, "places": places}
        for platform, threads, places in _TABLE2_COLUMNS
    ))


@experiment(
    "Table 2: run-to-run schedbench dynamic_1 times, Dardel/Vera",
    study=table2_study,
)
def table2(result: StudyResult, *, runs: int) -> ExperimentArtifact:
    """Table 2: higher execution time (us) for schedbench ``dynamic_1``."""
    by_combo = result.by("platform", "num_threads")

    per_column_means: dict[str, np.ndarray] = {}
    for platform, threads, _places in _TABLE2_COLUMNS:
        matrix = by_combo[(platform, threads)].runs_matrix("dynamic_1")
        per_column_means[f"{platform}@{threads}"] = matrix.mean(axis=1)

    headers = ["run #"] + [k for k in per_column_means]
    rows = []
    for r in range(runs):
        rows.append(
            [r + 1] + [f"{to_us(per_column_means[k][r]):.2f}" for k in per_column_means]
        )
    table = render_table(headers, rows, title="schedbench dynamic_1 mean time (us) per run")
    return ExperimentArtifact(
        name="table2",
        description="run-to-run schedbench dynamic_1 execution times",
        sections=(("per-run means", table),),
        data={"run_means": per_column_means},
    )


# ---------------------------------------------------------------------------
# Figure 1 — syncbench scalability
# ---------------------------------------------------------------------------

_DARDEL_THREADS = (4, 8, 16, 32, 64, 128, 254)
_VERA_THREADS = (2, 4, 8, 16, 30)


def _thread_places(platform: str, threads: int) -> str:
    """ST-style placement except when SMT siblings are required."""
    if platform == "dardel" and threads > 128:
        return "threads"  # must use SMT siblings beyond the 128 cores
    return "cores"


def figure1_study(
    runs: int = 10,
    outer_reps: int = 100,
    seed: int = 42,
    dardel_threads: Sequence[int] = _DARDEL_THREADS,
    vera_threads: Sequence[int] = _VERA_THREADS,
) -> Study:
    """The figure1 sweep: syncbench reduction across both thread ladders."""
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    return (
        Study(
            ExperimentConfig(
                benchmark="syncbench",
                proc_bind="close",
                runs=runs,
                seed=seed,
                benchmark_params={
                    "outer_reps": outer_reps,
                    "constructs": (SyncConstruct.REDUCTION.value,),
                },
            ),
            name="figure1",
            description="syncbench execution time scaling",
        )
        .cases(*(
            {"platform": platform, "num_threads": threads}
            for platform, sweep in sweeps
            for threads in sweep
        ))
        .derive(places=lambda cfg: _thread_places(cfg.platform, cfg.num_threads))
    )


@experiment(
    "Figure 1: syncbench (reduction) time vs thread count",
    study=figure1_study,
)
def figure1(
    result: StudyResult,
    *,
    dardel_threads: Sequence[int],
    vera_threads: Sequence[int],
) -> ExperimentArtifact:
    """Figure 1: syncbench (reduction) time vs HW thread count."""
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    by_combo = result.by("platform", "num_threads")

    sections = []
    data: dict[str, Any] = {}
    for platform, sweep in sweeps:
        xs, ys = [], []
        for threads in sweep:
            # EPCC reports the per-construct overhead; that is what grows
            # with thread count (raw test times are held near the target
            # test time by the inner-repetition doubling)
            matrix = by_combo[(platform, threads)].runs_matrix(
                f"{SyncConstruct.REDUCTION.value}.overhead"
            )
            xs.append(threads)
            ys.append(to_us(float(matrix.mean())))
        data[platform] = {"threads": list(xs), "mean_us": list(ys)}
        sections.append(
            (
                f"{platform}: reduction overhead vs threads",
                render_series(f"syncbench(reduction)@{platform}", xs, ys, unit="us"),
            )
        )
    return ExperimentArtifact(
        name="figure1",
        description="syncbench execution time scaling (socket/SMT jumps)",
        sections=tuple(sections),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figure 2 — BabelStream scalability
# ---------------------------------------------------------------------------

def figure2_study(
    runs: int = 3,
    num_times: int = 100,
    seed: int = 42,
    dardel_threads: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 254),
    vera_threads: Sequence[int] = _VERA_THREADS,
) -> Study:
    """The figure2 sweep: BabelStream across both thread ladders."""
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    return (
        Study(
            ExperimentConfig(
                benchmark="babelstream",
                proc_bind="close",
                runs=runs,
                seed=seed,
                benchmark_params={"num_times": num_times},
            ),
            name="figure2",
            description="BabelStream kernel time scaling",
        )
        .cases(*(
            {"platform": platform, "num_threads": threads}
            for platform, sweep in sweeps
            for threads in sweep
        ))
        .derive(places=lambda cfg: _thread_places(cfg.platform, cfg.num_threads))
    )


@experiment(
    "Figure 2: BabelStream kernel times vs thread count",
    study=figure2_study,
)
def figure2(
    result: StudyResult,
    *,
    dardel_threads: Sequence[int],
    vera_threads: Sequence[int],
) -> ExperimentArtifact:
    """Figure 2: BabelStream kernel time (ms) vs HW thread count."""
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    by_combo = result.by("platform", "num_threads")

    sections = []
    data: dict[str, Any] = {}
    for platform, sweep in sweeps:
        per_kernel: dict[str, list[float]] = {k.value: [] for k in StreamKernel}
        for threads in sweep:
            for kernel in StreamKernel:
                matrix = by_combo[(platform, threads)].runs_matrix(kernel.value)
                per_kernel[kernel.value].append(to_ms(float(matrix.mean())))
        data[platform] = {"threads": list(sweep), "mean_ms": per_kernel}
        lines = [
            render_series(f"{k}@{platform}", list(sweep), v, unit="ms")
            for k, v in per_kernel.items()
        ]
        sections.append((f"{platform}: kernel time vs threads", "\n".join(lines)))
    return ExperimentArtifact(
        name="figure2",
        description="BabelStream execution time falls with added threads",
        sections=tuple(sections),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figure 3 — scalability of variability
# ---------------------------------------------------------------------------

def _figure3_benches(outer_reps: int, num_times: int) -> tuple:
    """(benchmark, reported label, params) triples shared by the figure3
    study builder and the panel rendering."""
    return (
        ("schedbench", "dynamic_1", {"outer_reps": outer_reps}),
        (
            "syncbench",
            SyncConstruct.REDUCTION.value,
            {"outer_reps": outer_reps,
             "constructs": (SyncConstruct.REDUCTION.value,)},
        ),
        ("babelstream", StreamKernel.TRIAD.value, {"num_times": num_times}),
    )


def figure3_study(
    runs: int = 10,
    outer_reps: int = 100,
    num_times: int = 100,
    seed: int = 42,
    dardel_threads: Sequence[int] = (4, 16, 64, 128, 254),
    vera_threads: Sequence[int] = (2, 8, 16, 30),
) -> Study:
    """The figure3 sweep: three benchmarks across both thread ladders."""
    benches = _figure3_benches(outer_reps, num_times)
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    return (
        Study(
            ExperimentConfig(
                proc_bind="close",
                schedule="dynamic",
                schedule_chunk=1,
                runs=runs,
                seed=seed,
            ),
            name="figure3",
            description="normalized min/max variability scaling",
        )
        .cases(*(
            {
                "platform": platform,
                "benchmark": bench,
                "num_threads": threads,
                "benchmark_params": params,
            }
            for platform, sweep in sweeps
            for bench, _label, params in benches
            for threads in sweep
        ))
        .derive(places=lambda cfg: _thread_places(cfg.platform, cfg.num_threads))
    )


@experiment(
    "Figure 3: normalized min/max variability vs thread count",
    study=figure3_study,
)
def figure3(
    result: StudyResult,
    *,
    outer_reps: int,
    num_times: int,
    dardel_threads: Sequence[int],
    vera_threads: Sequence[int],
) -> ExperimentArtifact:
    """Figure 3: normalized min/max per run vs thread count, 6 panels."""
    panels: list[tuple[str, str]] = []
    data: dict[str, Any] = {}

    def norm_rows(matrix: np.ndarray) -> tuple[list[float], list[float]]:
        mins, maxs = [], []
        for row in matrix:
            s = summarize(row)
            mins.append(s.norm_min)
            maxs.append(s.norm_max)
        return mins, maxs

    benches = _figure3_benches(outer_reps, num_times)
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    by_combo = result.by("platform", "benchmark", "num_threads")

    for platform, sweep in sweeps:
        for bench, label, _params in benches:
            worst_max, best_min, xs = [], [], []
            panel_data = {}
            for threads in sweep:
                matrix = by_combo[(platform, bench, threads)].runs_matrix(label)
                mins, maxs = norm_rows(matrix)
                xs.append(threads)
                best_min.append(min(mins))
                worst_max.append(max(maxs))
                panel_data[threads] = {"norm_min": mins, "norm_max": maxs}
            key = f"{platform}/{bench}"
            data[key] = panel_data
            body = "\n".join(
                [
                    render_series("worst norm max", xs, worst_max),
                    render_series("best norm min", xs, best_min),
                ]
            )
            panels.append((f"{key} ({label})", body))
    return ExperimentArtifact(
        name="figure3",
        description="variability grows with thread count, esp. near saturation",
        sections=tuple(panels),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figure 4 — the effect of thread pinning (Dardel)
# ---------------------------------------------------------------------------

_FIGURE4_BINDINGS = (("unpinned", "false"), ("pinned", "close"))


def _figure4_cases(outer_reps: int, num_times: int) -> tuple:
    """(benchmark, threads, reported label, params) for the figure4 panels."""
    return (
        ("schedbench", 16, "dynamic_1", {"outer_reps": outer_reps}),
        (
            "syncbench",
            128,
            SyncConstruct.REDUCTION.value,
            {"outer_reps": outer_reps,
             "constructs": (SyncConstruct.REDUCTION.value,)},
        ),
        ("babelstream", 128, StreamKernel.TRIAD.value, {"num_times": num_times}),
    )


def figure4_study(
    runs: int = 10,
    outer_reps: int = 100,
    num_times: int = 100,
    seed: int = 42,
) -> Study:
    """The figure4 sweep: three Dardel workloads x pinned/unpinned."""
    cases = _figure4_cases(outer_reps, num_times)
    bindings = _FIGURE4_BINDINGS
    return (
        Study(
            ExperimentConfig(
                platform="dardel",
                schedule="dynamic",
                schedule_chunk=1,
                runs=runs,
                seed=seed,
            ),
            name="figure4",
            description="thread pinning on/off on Dardel",
        )
        .cases(*(
            {
                "benchmark": bench,
                "num_threads": threads,
                "benchmark_params": params,
            }
            for bench, threads, _label, params in cases
        ))
        .zip(
            proc_bind=[bind for _bound, bind in bindings],
            places=[None if bind == "false" else "cores" for _bound, bind in bindings],
        )
    )


@experiment("Figure 4: thread pinning on/off on Dardel", study=figure4_study)
def figure4(
    result: StudyResult, *, outer_reps: int, num_times: int
) -> ExperimentArtifact:
    """Figure 4: before/after pinning on Dardel."""
    cases = _figure4_cases(outer_reps, num_times)
    bindings = _FIGURE4_BINDINGS
    by_combo = result.by("benchmark", "num_threads", "proc_bind")

    sections = []
    data: dict[str, Any] = {}
    for bench, threads, label, _params in cases:
        entry: dict[str, Any] = {}
        for bound, bind in bindings:
            matrix = by_combo[(bench, threads, bind)].runs_matrix(label)
            stats = [summarize(row) for row in matrix]
            entry[bound] = {
                "run_means": [s.mean for s in stats],
                "run_maxs": [s.maximum for s in stats],
                "run_mins": [s.minimum for s in stats],
                "pooled_max_over_min": float(matrix.max() / matrix.min()),
            }
        data[f"{bench}@{threads}"] = entry
        rows = []
        for bound in ("unpinned", "pinned"):
            e = entry[bound]
            rows.append(
                [
                    bound,
                    f"{to_us(float(np.mean(e['run_means']))):.1f}",
                    f"{to_us(float(np.min(e['run_mins']))):.1f}",
                    f"{to_us(float(np.max(e['run_maxs']))):.1f}",
                    f"{e['pooled_max_over_min']:.1f}x",
                ]
            )
        sections.append(
            (
                f"{bench}@{threads} threads ({label})",
                render_table(
                    ["binding", "mean us", "min us", "max us", "max/min"], rows
                ),
            )
        )
    return ExperimentArtifact(
        name="figure4",
        description="pinning removes most run-to-run variability",
        sections=tuple(sections),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figure 5 — the effect of SMT (Dardel)
# ---------------------------------------------------------------------------

_FIGURE5_MODES = (("ST", "cores"), ("MT", "threads"))


def _figure5_blocks(outer_reps: int, num_times: int) -> tuple:
    """(panel, benchmark, threads, extra overrides) for the figure5 blocks."""
    constructs = tuple(c.value for c in SyncConstruct)
    return (
        ("schedbench@128", "schedbench", 128,
         {"schedule": "dynamic", "schedule_chunk": 1,
          "benchmark_params": {"outer_reps": outer_reps}}),
        ("syncbench@32", "syncbench", 32,
         {"benchmark_params": {"outer_reps": outer_reps,
                               "constructs": constructs}}),
        ("babelstream@128", "babelstream", 128,
         {"benchmark_params": {"num_times": num_times}}),
    )


def figure5_study(
    runs: int = 10,
    outer_reps: int = 100,
    num_times: int = 100,
    seed: int = 42,
) -> Study:
    """The figure5 sweep: three Dardel workloads x ST/MT placement."""
    blocks = _figure5_blocks(outer_reps, num_times)
    return (
        Study(
            ExperimentConfig(
                platform="dardel", proc_bind="close", runs=runs, seed=seed
            ),
            name="figure5",
            description="ST vs MT at equal thread counts on Dardel",
        )
        .cases(*(
            {"benchmark": bench, "num_threads": threads, **extra}
            for _block, bench, threads, extra in blocks
        ))
        .grid(places=[places for _mode, places in _FIGURE5_MODES])
    )


@experiment(
    "Figure 5: ST vs MT at equal thread counts on Dardel",
    study=figure5_study,
)
def figure5(
    result: StudyResult, *, outer_reps: int, num_times: int
) -> ExperimentArtifact:
    """Figure 5: ST vs MT at equal thread counts on Dardel."""
    modes = _FIGURE5_MODES
    constructs = tuple(c.value for c in SyncConstruct)
    blocks = _figure5_blocks(outer_reps, num_times)
    by_places = result.by("benchmark", "places")
    mode_places = dict(modes)
    by_spec = {
        (block, mode): by_places[(bench, mode_places[mode])]
        for block, bench, _threads, _extra in blocks
        for mode, _places in modes
    }

    sections = []
    data: dict[str, Any] = {}

    # schedbench at 128 threads: ST = 128 cores, MT = 64 cores x 2 siblings
    sched_entry = {}
    for mode, _places in modes:
        matrix = by_spec[("schedbench@128", mode)].runs_matrix("dynamic_1")
        stats = [summarize(row) for row in matrix]
        sched_entry[mode] = {
            "run_cv": [s.cv for s in stats],
            "run_norm_max": [s.norm_max for s in stats],
        }
    data["schedbench@128"] = sched_entry
    sections.append(
        (
            "schedbench@128: per-run CV",
            render_table(
                ["mode", "mean CV", "max norm-max"],
                [
                    [
                        mode,
                        f"{float(np.mean(e['run_cv'])):.4f}",
                        f"{float(np.max(e['run_norm_max'])):.3f}",
                    ]
                    for mode, e in sched_entry.items()
                ],
            ),
        )
    )

    # syncbench at 32 threads: CV per construct
    sync_entry: dict[str, Any] = {}
    for mode, _places in modes:
        sync = by_spec[("syncbench@32", mode)]
        sync_entry[mode] = {
            c: [summarize(row).cv for row in sync.runs_matrix(c)]
            for c in constructs
        }
    data["syncbench@32"] = sync_entry
    rows = []
    for c in constructs:
        rows.append(
            [
                c,
                f"{float(np.mean(sync_entry['ST'][c])):.4f}",
                f"{float(np.mean(sync_entry['MT'][c])):.4f}",
            ]
        )
    sections.append(
        (
            "syncbench@32: mean CV per construct",
            render_table(["construct", "ST CV", "MT CV"], rows),
        )
    )

    # babelstream at 128 threads
    stream_entry: dict[str, Any] = {}
    for mode, _places in modes:
        stream = by_spec[("babelstream@128", mode)]
        stream_entry[mode] = {
            k.value: [summarize(row).norm_max for row in stream.runs_matrix(k.value)]
            for k in StreamKernel
        }
    data["babelstream@128"] = stream_entry
    rows = [
        [
            k.value,
            f"{float(np.max(stream_entry['ST'][k.value])):.3f}",
            f"{float(np.max(stream_entry['MT'][k.value])):.3f}",
        ]
        for k in StreamKernel
    ]
    sections.append(
        (
            "babelstream@128: worst normalized max per kernel",
            render_table(["kernel", "ST", "MT"], rows),
        )
    )
    return ExperimentArtifact(
        name="figure5",
        description="MT destabilizes all three benchmarks vs ST",
        sections=tuple(sections),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figures 6 and 7 — frequency variation on Vera
# ---------------------------------------------------------------------------

_VERA_NUMA_PLACEMENTS = (
    ("one-numa (cpus 0-15)", "{0:16}"),
    ("two-numa (cpus 0-7,16-23)", "{0:8},{16:8}"),
)


def _vera_numa_study(
    benchmark: str, params: dict, runs: int, seed: int
) -> Study:
    """The figure6/figure7 sweep: 16 Vera cores on 1 vs 2 NUMA domains."""
    return Study(
        ExperimentConfig(
            platform="vera",
            benchmark=benchmark,
            num_threads=16,
            proc_bind="close",
            schedule="dynamic" if benchmark == "schedbench" else "static",
            schedule_chunk=1 if benchmark == "schedbench" else None,
            runs=runs,
            seed=seed,
            benchmark_params=params,
            freq_logging=True,
            logger_cpu=31,  # a spare core on the second socket
        ),
        name=f"{benchmark}-numa",
        description="16 Vera cores on 1 vs 2 NUMA domains",
    ).grid(places=[places for _name, places in _VERA_NUMA_PLACEMENTS])


def _figure6_params(outer_reps: int) -> dict:
    return {"outer_reps": outer_reps}


def _figure7_params(outer_reps: int) -> dict:
    return {
        "outer_reps": outer_reps,
        "constructs": tuple(c.value for c in SyncConstruct),
    }


def figure6_study(
    runs: int = 10, outer_reps: int = 100, seed: int = 42
) -> Study:
    """The figure6 sweep: schedbench on 1 vs 2 Vera NUMA domains."""
    return _vera_numa_study(
        "schedbench", _figure6_params(outer_reps), runs, seed
    )


def figure7_study(
    runs: int = 10, outer_reps: int = 100, seed: int = 42
) -> Study:
    """The figure7 sweep: syncbench on 1 vs 2 Vera NUMA domains."""
    return _vera_numa_study(
        "syncbench", _figure7_params(outer_reps), runs, seed
    )


def _vera_numa_sections(
    result: StudyResult, label: str
) -> tuple[tuple[tuple[str, str], ...], dict[str, Any]]:
    """The figure6/figure7 panels: series *label* per NUMA placement."""
    by_places = result.by("places")

    sections = []
    data: dict[str, Any] = {}
    for name, places in _VERA_NUMA_PLACEMENTS:
        placed = by_places[places]
        matrix = placed.runs_matrix(label)
        stats = [summarize(row) for row in matrix]
        logs = [rec.freq_log for rec in placed.records if rec.freq_log is not None]
        dip_occupancy = float(
            np.mean([log.band_occupancy(2.6) for log in logs])
        )
        min_freq = min(log.min_freq_ghz() for log in logs)
        max_freq = max(log.max_freq_ghz() for log in logs)
        data[name] = {
            "run_means": [s.mean for s in stats],
            "run_norm_max": [s.norm_max for s in stats],
            "pooled_cv": summarize(matrix.ravel()).cv,
            "freq_min_ghz": min_freq,
            "freq_max_ghz": max_freq,
            "dip_occupancy": dip_occupancy,
        }
        body = "\n".join(
            [
                render_series(
                    "run means (us)",
                    list(range(1, len(stats) + 1)),
                    [to_us(s.mean) for s in stats],
                ),
                f"pooled CV {data[name]['pooled_cv']:.4f}; frequency span "
                f"{min_freq:.2f}-{max_freq:.2f} GHz; time below 2.6 GHz: "
                f"{dip_occupancy * 100:.2f}%",
            ]
        )
        sections.append((name, body))
    return tuple(sections), data


@experiment(
    "Figure 6: Vera schedbench on 1 vs 2 NUMA domains + freq traces",
    study=figure6_study,
)
def figure6(result: StudyResult) -> ExperimentArtifact:
    """Figure 6: schedbench on 16 Vera cores, 1 vs 2 NUMA domains."""
    sections, data = _vera_numa_sections(result, "dynamic_1")
    return ExperimentArtifact(
        name="figure6",
        description="cross-NUMA teams see frequency dips and higher variability",
        sections=sections,
        data=data,
    )


@experiment(
    "Figure 7: Vera syncbench on 1 vs 2 NUMA domains + freq traces",
    study=figure7_study,
)
def figure7(result: StudyResult) -> ExperimentArtifact:
    """Figure 7: syncbench (reduction) on 16 Vera cores, 1 vs 2 NUMA.

    As in the real suite, the whole construct set runs in one invocation
    (so the run is long enough for frequency dips to land); the reduction
    micro-benchmark is the one reported.
    """
    sections, data = _vera_numa_sections(result, SyncConstruct.REDUCTION.value)
    return ExperimentArtifact(
        name="figure7",
        description="same effect for the synchronization micro-benchmark",
        sections=sections,
        data=data,
    )


# ---------------------------------------------------------------------------
# Figure 8 — tasking variability (work-stealing runtime)
# ---------------------------------------------------------------------------

def figure8_study(
    runs: int = 10,
    outer_reps: int = 20,
    seed: int = 42,
    threads: Sequence[int] = (2, 8, 16, 30),
    grainsizes: Sequence[int] = (1, 8, 64),
    noise_profiles: Sequence[str] = ("default", "quiet"),
    total_iters: int = 512,
) -> Study:
    """The figure8 sweep: taskbench noise x threads x grainsize grid."""
    return (
        Study(
            ExperimentConfig(
                platform="vera",
                benchmark="taskbench",
                places="cores",
                proc_bind="close",
                runs=runs,
                seed=seed,
                benchmark_params={
                    "outer_reps": outer_reps,
                    "pattern": "taskloop",
                    "total_iters": total_iters,
                    "imbalance": 0.6,
                },
            ),
            name="figure8",
            description="taskbench work-stealing sweep on Vera",
        )
        .grid(
            noise=list(noise_profiles),
            num_threads=list(threads),
            grainsize=list(grainsizes),
        )
    )


@experiment(
    "Figure 8: taskbench work-stealing vs threads x grainsize x noise",
    study=figure8_study,
)
def figure8(
    result: StudyResult,
    *,
    threads: Sequence[int],
    grainsizes: Sequence[int],
    noise_profiles: Sequence[str],
) -> ExperimentArtifact:
    """Figure 8: tasking-runtime variability on Vera.

    Sweeps an imbalanced ``taskloop`` (linear work ramp, so LIFO owners
    finish their cheap early chunks and thieves must steal the expensive
    tail) across team size, grainsize and the OS-noise profile.  The
    artifact reports, per configuration, the construct time, its CV, and
    the scheduler internals no worksharing benchmark can expose: steals
    per repetition, the failed-steal rate of the random victim selection,
    and the idle fraction of the team.

    The noise ablation attributes variability: with noise quieted, what
    remains is purely the runtime's own stochastic scheduling (victim
    choices + contention jitter); the default profile adds the OS on top.
    """
    by_combo = result.by("noise", "num_threads", "grainsize")

    data: dict[str, Any] = {}
    for (noise, n, g), cell in by_combo.items():
        label = f"taskloop_g{g}"
        matrix = cell.runs_matrix(label)
        steals = cell.runs_matrix(f"{label}.steals")
        failed = cell.runs_matrix(f"{label}.failed_steals")
        idle = cell.runs_matrix(f"{label}.idle_frac")
        pooled = summarize(matrix.ravel())
        attempts = float(steals.sum() + failed.sum())
        data[f"{noise}/n{n}/g{g}"] = {
            "mean_us": to_us(pooled.mean),
            "cv": pooled.cv,
            "norm_max": pooled.norm_max,
            "mean_steals": float(steals.mean()),
            "failed_steal_rate": (
                float(failed.sum()) / attempts if attempts else 0.0
            ),
            "idle_frac": float(idle.mean()),
        }

    sections: list[tuple[str, str]] = []
    for noise in noise_profiles:

        def noise_cell(n: int, g: int) -> list[str]:
            entry = data[f"{noise}/n{n}/g{g}"]
            return [
                f"{entry['mean_us']:.1f}",
                f"{entry['cv']:.4f}",
                f"{entry['mean_steals']:.1f}",
            ]

        sections.append(
            (
                f"noise={noise}: taskloop time/CV/steals per rep",
                render_pivot(
                    "threads",
                    threads,
                    grainsizes,
                    ("us", "CV", "steals"),
                    noise_cell,
                    col_label=lambda g: f"g{g}",
                ),
            )
        )

    # one detailed scheduler panel: widest team, finest grain, default noise
    noise0, n0, g0 = noise_profiles[0], max(threads), min(grainsizes)
    label0 = f"taskloop_g{g0}"
    detail = by_combo[(noise0, n0, g0)]
    sections.append(
        (
            f"noise={noise0} n={n0} g={g0}: scheduler internals",
            render_tasking_summary(
                label0,
                detail.runs_matrix(f"{label0}.steals"),
                detail.runs_matrix(f"{label0}.failed_steals"),
                detail.runs_matrix(f"{label0}.idle_frac"),
            ),
        )
    )
    return ExperimentArtifact(
        name="figure8",
        description="work-stealing tasking: variability vs grainsize and noise",
        sections=tuple(sections),
        data=data,
    )


# ---------------------------------------------------------------------------
# Runtime comparison — vendor profiles x wait policies (beyond the paper)
# ---------------------------------------------------------------------------

def runtime_compare_study(
    runs: int = 10,
    outer_reps: int = 50,
    seed: int = 42,
    dardel_threads: Sequence[int] = (16, 64, 128),
    vera_threads: Sequence[int] = (8, 16, 30),
    runtimes: Sequence[str] = ("gnu", "llvm"),
    wait_policies: Sequence[str] = ("active", "passive"),
) -> Study:
    """The runtime_compare sweep: vendor x wait-policy x thread ladders."""
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    return (
        Study(
            ExperimentConfig(
                benchmark="syncbench",
                proc_bind="close",
                runs=runs,
                seed=seed,
                benchmark_params={
                    "outer_reps": outer_reps,
                    "constructs": (
                        SyncConstruct.BARRIER.value,
                        SyncConstruct.PARALLEL.value,
                    ),
                },
            ),
            name="runtime_compare",
            description="vendor x wait-policy x threads on both platforms",
        )
        .cases(*(
            {"platform": platform, "num_threads": threads}
            for platform, sweep in sweeps
            for threads in sweep
        ))
        .grid(runtime=list(runtimes), wait_policy=list(wait_policies))
        .derive(places=lambda cfg: _thread_places(cfg.platform, cfg.num_threads))
    )


@experiment("Runtime compare: vendor (gnu/llvm) x wait-policy x threads, "
            "both platforms", study=runtime_compare_study)
def runtime_compare(
    result: StudyResult,
    *,
    dardel_threads: Sequence[int],
    vera_threads: Sequence[int],
    runtimes: Sequence[str],
    wait_policies: Sequence[str],
) -> ExperimentArtifact:
    """Sweep runtime vendor x wait policy x threads on both platforms.

    Runs syncbench's BARRIER and PARALLEL micro-benchmarks — the two
    constructs whose costs are pure runtime policy — under every
    (vendor, wait-policy) combination.  The qualitative expectations
    (asserted by ``benchmarks/bench_runtime_compare.py``):

    * the vendors' barrier algorithms diverge with the team size: libomp's
      hyper barrier needs fewer serialized rounds than libgomp's
      centralized gather-release at >= 64 threads;
    * passive waiting pays the scheduler wakeup path on every fork and
      barrier release, so it is uniformly slower than active spinning for
      these fork/barrier-bound microbenchmarks;
    * the vendor's contention-jitter scale shows up as a CV difference,
      not just a mean shift.
    """
    sweeps = (("dardel", dardel_threads), ("vera", vera_threads))
    by_combo = result.by("platform", "runtime", "wait_policy", "num_threads")

    data: dict[str, Any] = {}
    for platform, sweep in sweeps:
        for rt in runtimes:
            for wp in wait_policies:
                for threads in sweep:
                    cell = by_combo[(platform, rt, wp, threads)]
                    barrier = cell.runs_matrix(
                        f"{SyncConstruct.BARRIER.value}.overhead"
                    )
                    par = cell.runs_matrix(
                        f"{SyncConstruct.PARALLEL.value}.overhead"
                    )
                    pooled = summarize(barrier.ravel())
                    data[f"{platform}/{rt}/{wp}/n{threads}"] = {
                        "barrier_us": to_us(pooled.mean),
                        "barrier_cv": pooled.cv,
                        "barrier_norm_max": pooled.norm_max,
                        "parallel_us": to_us(float(par.mean())),
                    }

    sections: list[tuple[str, str]] = []
    for platform, sweep in sweeps:
        for wp in wait_policies:

            def vendor_cell(threads: int, rt: str) -> list[str]:
                entry = data[f"{platform}/{rt}/{wp}/n{threads}"]
                return [
                    f"{entry['barrier_us']:.2f}",
                    f"{entry['barrier_cv']:.4f}",
                    f"{entry['parallel_us']:.2f}",
                ]

            sections.append(
                (
                    f"{platform}, OMP_WAIT_POLICY={wp}",
                    render_pivot(
                        "threads",
                        sweep,
                        runtimes,
                        ("barrier us", "CV", "parallel us"),
                        vendor_cell,
                    ),
                )
            )

    # headline: the vendor gap at the widest team of each platform
    if len(runtimes) >= 2:
        rows = []
        wp0 = wait_policies[0]
        for platform, sweep in sweeps:
            n_max = max(sweep)
            base = data[f"{platform}/{runtimes[0]}/{wp0}/n{n_max}"]
            for rt in runtimes[1:]:
                other = data[f"{platform}/{rt}/{wp0}/n{n_max}"]
                rows.append(
                    [
                        f"{platform}@{n_max}",
                        f"{runtimes[0]}->{rt}",
                        f"{other['barrier_us'] / base['barrier_us']:.3f}",
                        f"{other['barrier_cv'] / base['barrier_cv']:.3f}",
                    ]
                )
        sections.append(
            (
                f"vendor gap at the widest team ({wp0} waiters)",
                render_table(
                    ["config", "vendors", "barrier time ratio", "CV ratio"], rows
                ),
            )
        )
    return ExperimentArtifact(
        name="runtime_compare",
        description="OpenMP implementation fingerprints: barrier algorithm "
                    "and wait policy drive cost and variability",
        sections=tuple(sections),
        data=data,
    )
