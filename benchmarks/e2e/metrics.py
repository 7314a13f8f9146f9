"""Metric catalogue of the end-to-end benchmark and how each is computed.

Timings are host (wall-clock) seconds of the simulator, never simulated
time.  ``BENCHMARK.json`` lists the same names; a test keeps the two in
step.
"""

from __future__ import annotations

import statistics

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),          # wall time of one repetition's commands
    ("setup_s", "s"),         # wall time of one set-up pass
    ("cold_start_s", "s"),    # `import repro.cli` in a fresh interpreter
    ("runs_per_s", "runs/s"), # runs delivered / (wall - import time)
    ("peak_rss_mb", "MB"),    # largest process of a repetition
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
#: ``*_s`` is self time summed over one repetition's invocations.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("harness.study.expand_s", "s"),
    ("harness.study.export_s", "s"),
    ("harness.cache.get_calls", "count"),
    ("harness.cache.get_s", "s"),
    ("harness.cache.hit_ratio", "ratio"),
    ("harness.cache.put_calls", "count"),
    ("harness.cache.put_s", "s"),
    ("harness.cache.bytes_written", "bytes"),
    ("harness.backend.pool_utilization", "ratio"),
    ("harness.backend.queue_wait_s", "s"),
    ("harness.runner.run_one_calls", "count"),
    ("harness.runner.run_one_s", "s"),
    ("sim.fused.run_fused_calls", "count"),
    ("sim.fused.run_fused_s", "s"),
    ("sim.fused.config_share", "ratio"),
    ("omp.runtime.start_run_calls", "count"),
    ("omp.runtime.start_run_s", "s"),
    ("freq.dvfs.plan_s", "s"),
    ("osnoise.model.realize_s", "s"),
    ("sim.intervals.overlap_calls", "count"),
    ("sim.intervals.overlap_s", "s"),
    ("omp.region.execute_calls", "count"),
    ("omp.region.execute_s", "s"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.events_per_s", "1/s"),
    ("omp.tasking.scheduler_s", "s"),
    ("omp.tasking.steals", "count"),
    ("omp.tasking.steal_success_ratio", "ratio"),
    ("stats.calls", "count"),
    ("stats.self_s", "s"),
    ("harness.report.render_s", "s"),
    ("trace.other_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sum_layers(summaries: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer totals over the traced invocations of one repetition."""
    total: dict[str, dict[str, float]] = {}
    for summ in summaries:
        for layer, stats in summ["layers"].items():
            acc = total.setdefault(layer, {})
            for key, value in stats.items():
                acc[key] = acc.get(key, 0.0) + value
    return total


def layer_sum_error(summaries: list[dict]) -> float:
    """|sum of self times + other - traced wall| / traced wall."""
    wall = sum(s["wall_s"] for s in summaries)
    parts = sum(s["other_s"] for s in summaries) + sum(
        stats["self_s"] for stats in sum_layers(summaries).values()
    )
    return abs(parts - wall) / wall


def layer_metrics(
    summaries: list[dict],
    traced_wall: float,
    untraced_wall: float,
    telemetry: dict | None,
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    *summaries* are the ``traced_main`` reports of its invocations;
    *traced_wall* / *untraced_wall* are the repetition's wall times with
    and without tracing; *telemetry* is the untraced run's
    ``--telemetry-out`` export (pooled workloads only).
    """
    layers = sum_layers(summaries)

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0.0)

    gauges = {g["name"]: g["value"] for g in (telemetry or {}).get("gauges", [])}
    waits = [
        h["total"] for h in (telemetry or {}).get("histograms", [])
        if h["name"] == "queue_wait_seconds"
    ]
    fused = get("sim.fused.run_fused", "calls")
    steals = get("omp.tasking.scheduler", "steals")
    out = {
        "cli.import_s": get("cli.import", "self_s"),
        "harness.study.expand_s": get("harness.study.expand", "self_s"),
        "harness.study.export_s": get("harness.study.export", "self_s"),
        "harness.cache.get_calls": get("harness.cache.get", "calls"),
        "harness.cache.get_s": get("harness.cache.get", "self_s"),
        "harness.cache.hit_ratio": _ratio(
            get("harness.cache.get", "hits"), get("harness.cache.get", "calls")
        ),
        "harness.cache.put_calls": get("harness.cache.put", "calls"),
        "harness.cache.put_s": get("harness.cache.put", "self_s"),
        "harness.cache.bytes_written": get("harness.cache.put", "bytes_written"),
        "harness.backend.pool_utilization": gauges.get("pool_utilization", 0.0),
        "harness.backend.queue_wait_s": sum(waits),
        "harness.runner.run_one_calls": get("harness.runner.run_one", "calls"),
        "harness.runner.run_one_s": get("harness.runner.run_one", "self_s"),
        "sim.fused.run_fused_calls": fused,
        "sim.fused.run_fused_s": get("sim.fused.run_fused", "self_s"),
        "sim.fused.config_share": _ratio(
            fused, fused + get("harness.runner.run_one", "first_runs")
        ),
        "omp.runtime.start_run_calls": get("omp.runtime.start_run", "calls"),
        "omp.runtime.start_run_s": get("omp.runtime.start_run", "self_s"),
        "freq.dvfs.plan_s": get("freq.dvfs.plan", "self_s"),
        "osnoise.model.realize_s": get("osnoise.model.realize", "self_s"),
        "sim.intervals.overlap_calls": get("sim.intervals.overlap", "calls"),
        "sim.intervals.overlap_s": get("sim.intervals.overlap", "self_s"),
        "omp.region.execute_calls": get("omp.region.execute", "calls"),
        "omp.region.execute_s": get("omp.region.execute", "self_s"),
        "sim.engine.run_s": get("sim.engine.run", "self_s"),
        "sim.engine.events": get("sim.engine.run", "events"),
        "sim.engine.events_per_s": _ratio(
            get("sim.engine.run", "events"), get("sim.engine.run", "total_s")
        ),
        "omp.tasking.scheduler_s": get("omp.tasking.scheduler", "self_s"),
        "omp.tasking.steals": steals,
        "omp.tasking.steal_success_ratio": _ratio(
            steals, steals + get("omp.tasking.scheduler", "failed_steals")
        ),
        "stats.calls": get("stats", "calls"),
        "stats.self_s": get("stats", "self_s"),
        "harness.report.render_s": get("harness.report.render", "self_s"),
        "trace.other_s": sum(s["other_s"] for s in summaries),
        "trace.wall_s": sum(s["wall_s"] for s in summaries),
        "trace.overhead_pct": 100.0 * _ratio(
            traced_wall - untraced_wall, untraced_wall
        ),
    }
    return out
