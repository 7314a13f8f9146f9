"""Event-loop throughput benchmark (simulated events per wall-clock second).

The work-stealing scheduler's flat loop is the simulator's one event
loop: every task body, steal probe and backoff of a tasking run is one
wake-up, so tasking wall-clock is wake-ups/sec times wake-up count.
:func:`bench_figure8_smoke` runs that loop on a real Vera run context
(frequency plan, OS noise, taskloop workload — the figure8
configuration) and reports *simulated events (scheduler wake-ups) per
second of wall time*, the number the ``repro-omp bench`` CLI records
into ``BENCH_engine.json`` so the performance trajectory is tracked
across commits.

The simulated event count is deterministic (seeded); only the
wall-clock measurements vary run to run.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = [
    "append_trajectory",
    "bench_figure8_smoke",
    "carry_baseline",
    "run_benchmarks",
    "write_report",
]


def bench_figure8_smoke(
    threads: int = 16,
    grainsize: int = 8,
    reps: int = 30,
    seed: int = 42,
) -> dict[str, float]:
    """Simulated events/sec of the figure8 smoke configuration.

    Builds one real Vera run context (frequency plan + OS noise, exactly
    as the figure8 experiment does for a bound taskbench run) and drives
    ``reps`` work-stealing taskloop repetitions through the scheduler,
    measuring its event-loop wake-ups per wall-clock second.
    """
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import Runner

    config = ExperimentConfig(
        platform="vera",
        benchmark="taskbench",
        num_threads=threads,
        places="cores",
        proc_bind="close",
        runs=1,
        seed=seed,
        benchmark_params={"outer_reps": reps, "grainsize": grainsize},
    )
    runner = Runner(config)
    bench = runner.bench
    ctx = runner.runtime.start_run(0, runner.rng_factory, bench.horizon(threads))

    total_events = 0
    start = time.perf_counter()
    for rep in range(reps):
        fork, stats = bench.run_rep(ctx, rep)
        total_events += stats.events_executed
        # unlike Taskbench.measure, the cursor skips the join: the
        # recorded event counts were measured along this timeline
        ctx.advance(fork + stats.makespan + bench.params.rep_gap)
    elapsed = time.perf_counter() - start
    return {
        "wall_seconds": elapsed,
        "events": float(total_events),
        "events_per_sec": total_events / elapsed,
    }


def run_benchmarks(quick: bool = False) -> dict[str, Any]:
    """Run the figure8 smoke benchmark; returns the report payload.

    ``quick`` shrinks the workload ~6x (5 repetitions instead of 30) for
    CI smoke runs.
    """
    smoke_reps = 5 if quick else 30
    smoke = bench_figure8_smoke(reps=smoke_reps)
    from repro import __version__

    return {
        "schema": 1,
        "quick": quick,
        "version": __version__,
        "figure8_smoke": {
            "reps": smoke_reps,
            "wall_seconds": round(smoke["wall_seconds"], 4),
            "events": int(smoke["events"]),
            "events_per_sec": round(smoke["events_per_sec"]),
        },
    }


def carry_baseline(report: dict[str, Any], prior: dict[str, Any]) -> dict[str, Any]:
    """Preserve a prior report's baseline block across re-runs.

    ``BENCH_engine.json`` carries a hand-recorded ``baseline_pre_overhaul``
    section (the pre-overhaul numbers the speedups are judged against);
    a fresh ``repro-omp bench`` run must not silently drop it.  Copies the
    baseline from *prior* into *report* and recomputes the figure8 smoke's
    ``speedup_vs_baseline`` from the fresh numbers — but only when the
    fresh run used the same workload scale the baseline records
    (``quick`` flag): dividing ``--quick`` numbers by a full-workload
    baseline would publish apples-to-oranges speedups.
    """
    baseline = prior.get("baseline_pre_overhaul")
    if not isinstance(baseline, dict):
        return report
    report["baseline_pre_overhaul"] = baseline
    if report.get("quick", False) != baseline.get("quick", False):
        return report  # scale mismatch: keep the record, skip the ratios
    base_smoke = baseline.get("figure8_smoke", {})
    if base_smoke.get("events_per_sec"):
        report["speedup_vs_baseline"] = {
            "figure8_smoke_events_per_sec": round(
                report["figure8_smoke"]["events_per_sec"]
                / base_smoke["events_per_sec"],
                2,
            ),
        }
    return report


def append_trajectory(
    report: dict[str, Any],
    prior: dict[str, Any] | None,
    stamp: str | None = None,
) -> dict[str, Any]:
    """Extend the prior report's append-only ``trajectory`` into *report*.

    Historically ``repro-omp bench --out`` clobbered the whole file, so
    every re-run erased the performance history.  The trajectory is an
    append-only list of past measurements: the prior file's entries are
    carried over and the *prior* report's own headline numbers are
    appended as one entry ``{stamp?, version?, quick, figure8_smoke}``
    (plus the ``engine`` and ``rep_fusion`` blocks where an older report
    recorded them) before the fresh report replaces them at top level.  *stamp* is a caller-provided label (``--stamp``, e.g.
    a date or commit id) attached to the **new** report so the *next* run
    records it; the code version (``repro.__version__``) rides along the
    same way, so every trajectory entry says which code produced its
    numbers.  Nothing here reads a wall clock — an unstamped entry is
    simply unlabeled.
    """
    entries = []
    if isinstance(prior, dict):
        prior_entries = prior.get("trajectory")
        if isinstance(prior_entries, list):
            entries.extend(prior_entries)
        snapshot: dict[str, Any] = {}
        if prior.get("stamp") is not None:
            snapshot["stamp"] = prior["stamp"]
        for key in ("version", "quick", "engine", "figure8_smoke", "rep_fusion"):
            if key in prior:
                snapshot[key] = prior[key]
        if "figure8_smoke" in snapshot:
            entries.append(snapshot)
    if stamp is not None:
        report["stamp"] = stamp
    report["trajectory"] = entries
    return report


def write_report(
    report: dict[str, Any], path: Any, stamp: str | None = None
) -> dict[str, Any]:
    """Write *report* to *path*, carrying baseline and history forward.

    The one place the prior-report load / :func:`carry_baseline` /
    :func:`append_trajectory` / JSON serialization sequence lives — the
    ``repro-omp bench`` CLI and the ``benchmarks/bench_engine.py`` script
    both route through it, so the two emitters cannot diverge.  Returns
    the (possibly augmented) report.
    """
    import json
    from pathlib import Path

    out = Path(path)
    prior = None
    if out.exists():
        try:
            prior = json.loads(out.read_text())
        except ValueError:
            prior = None
        if isinstance(prior, dict):
            report = carry_baseline(report, prior)
    report = append_trajectory(report, prior, stamp=stamp)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return report
