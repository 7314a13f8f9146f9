"""Event-loop throughput benchmarks (events/second).

Two event loops carry the simulation's discrete events: the general
engine (:mod:`repro.sim.engine`, which drives generator processes such
as the frequency logger) and the work-stealing scheduler's own flat
loop, where every task body, steal probe and backoff of a tasking run is
one wake-up.  This module measures the engine three ways:

* :func:`bench_callback_events` — bare callback events through
  ``schedule_at`` + ``run`` (heap + dispatch overhead, no generators);
* :func:`bench_process_events` — generator processes yielding timeouts
  (the periodic-process shape: trampoline + ``Process.step`` on top of
  the heap);
* :func:`bench_cancel_churn` — schedule/cancel churn exercising the
  cancellation side-set and lazy compaction;

plus one end-to-end probe, :func:`bench_figure8_smoke`, which runs the
work-stealing scheduler on a real Vera run context (frequency plan, OS
noise, taskloop workload — the figure8 configuration) and reports
*simulated events (scheduler wake-ups) per second of wall time*, the
number the ``repro-omp bench`` CLI records into ``BENCH_engine.json`` so
the performance trajectory is tracked across commits.

All benchmarks are deterministic in their simulated results (seeded);
only the wall-clock measurements vary run to run.
"""

from __future__ import annotations

import time
from typing import Any

from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.process import Timeout

__all__ = [
    "append_trajectory",
    "bench_callback_events",
    "bench_process_events",
    "bench_cancel_churn",
    "bench_figure8_smoke",
    "carry_baseline",
    "run_benchmarks",
    "write_report",
]


def bench_callback_events(n_events: int = 200_000) -> float:
    """Events/sec for bare callbacks scheduled up front."""
    eng = Engine()

    def callback() -> None:
        pass

    start = time.perf_counter()
    for i in range(n_events):
        eng.schedule_at(float(i), callback)
    eng.run()
    elapsed = time.perf_counter() - start
    return n_events / elapsed


def bench_process_events(n_procs: int = 32, steps: int = 5_000) -> float:
    """Events/sec for generator processes yielding periodic timeouts."""
    eng = Engine()

    def proc():
        for _ in range(steps):
            yield Timeout(0.001)

    for i in range(n_procs):
        eng.spawn(proc(), name=f"proc-{i}")
    start = time.perf_counter()
    eng.run()
    elapsed = time.perf_counter() - start
    return eng.events_executed / elapsed


def bench_cancel_churn(n_rounds: int = 50_000) -> float:
    """Events/sec under heavy schedule-then-cancel churn.

    Each round schedules two future events and cancels one, so half of all
    queued entries die before execution — the pattern that exercises the
    cancellation side-set and the lazy heap compaction.
    """
    eng = Engine(clock=Clock())
    start = time.perf_counter()
    for i in range(n_rounds):
        t = float(i)
        keep = eng.schedule_at(t, _noop)
        kill = eng.schedule_at(t + 0.5, _noop)
        kill.cancel()
        del keep
    eng.run()
    elapsed = time.perf_counter() - start
    return eng.events_executed / elapsed


def _noop() -> None:
    pass


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
    from repro.bench.taskbench import Taskbench, TaskbenchParams
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import Runner

    params = TaskbenchParams(outer_reps=reps, grainsize=grainsize)
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
    bench = Taskbench(params)
    horizon = bench.horizon_estimate(threads) * 1.5
    ctx = runner.runtime.start_run(0, runner.rng_factory, horizon)

    total_events = 0
    start = time.perf_counter()
    for rep in range(reps):
        fork, stats = bench.run_rep(ctx, rep)
        total_events += stats.events_executed
        # unlike Taskbench.measure, the cursor skips the join: the
        # recorded event counts were measured along this timeline
        ctx.advance(fork + stats.makespan + params.rep_gap)
    elapsed = time.perf_counter() - start
    return {
        "wall_seconds": elapsed,
        "events": float(total_events),
        "events_per_sec": total_events / elapsed,
    }


def run_benchmarks(quick: bool = False) -> dict[str, Any]:
    """Run the full engine benchmark suite; returns the report payload.

    ``quick`` shrinks every workload ~10x for CI smoke runs.
    """
    scale = 0.1 if quick else 1.0
    n_cb = max(10_000, int(200_000 * scale))
    n_procs, steps = 16, max(500, int(5_000 * scale))
    n_cancel = max(5_000, int(50_000 * scale))
    smoke_reps = max(5, int(30 * scale))

    # one warmup pass keeps allocator/JIT-free interpreter noise out of
    # the first measured number
    bench_callback_events(5_000)
    bench_process_events(4, 500)

    callbacks = bench_callback_events(n_cb)
    processes = bench_process_events(n_procs, steps)
    cancels = bench_cancel_churn(n_cancel)
    smoke = bench_figure8_smoke(reps=smoke_reps)
    from repro import __version__

    return {
        "schema": 1,
        "quick": quick,
        "version": __version__,
        "engine": {
            "callback_events_per_sec": round(callbacks),
            "process_events_per_sec": round(processes),
            "cancel_churn_events_per_sec": round(cancels),
        },
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
    baseline from *prior* into *report* and recomputes
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
    speedup: dict[str, float] = {}
    base_engine = baseline.get("engine", {})
    for key, value in report["engine"].items():
        base = base_engine.get(key)
        if base:
            speedup[key] = round(value / base, 2)
    base_smoke = baseline.get("figure8_smoke", {})
    if base_smoke.get("events_per_sec"):
        speedup["figure8_smoke_events_per_sec"] = round(
            report["figure8_smoke"]["events_per_sec"]
            / base_smoke["events_per_sec"],
            2,
        )
    if speedup:
        report["speedup_vs_baseline"] = speedup
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
    appended as one entry ``{stamp?, version?, quick, engine,
    figure8_smoke}`` (plus ``rep_fusion`` where an older report recorded
    one) before the fresh report replaces them
    at top level.  *stamp* is a caller-provided label (``--stamp``, e.g.
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
        if "engine" in snapshot or "figure8_smoke" in snapshot:
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
