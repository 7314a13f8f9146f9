"""Event-loop events/sec microbenchmark (the simulation hot path).

Unlike the other ``bench_*`` files, which regenerate paper artifacts, this
one tracks the *simulator's own* throughput: the engine's microbenchmark
shapes, plus the work-stealing scheduler's event loop, where every task
body, steal probe and backoff is one discrete event, so tasking wall-clock
is events/sec times event count.  The checks assert the properties the
overhaul must keep:

* the engine sustains a sane floor on all three microbenchmark shapes
  (callbacks, generator processes, cancellation churn);
* the figure8-smoke probe executes a *deterministic* number of simulated
  events — wall time may vary, the simulation must not;
* cancellation compaction keeps the queue bounded under churn.

Run ``python benchmarks/bench_engine.py`` (or ``repro-omp bench``) to
print the numbers and write ``BENCH_engine.json``.
"""

from repro.sim.bench import bench_figure8_smoke, run_benchmarks
from repro.sim.engine import Engine


def test_engine_throughput(benchmark, scale):
    # NOT run through conftest.run_once: run_benchmarks is not an
    # experiment driver and takes no jobs=/cache= kwargs (the engine is
    # measured in-process by definition)
    report = benchmark.pedantic(
        run_benchmarks,
        kwargs={"quick": scale["reps"] < 100},
        rounds=1,
        iterations=1,
    )

    eng = report["engine"]
    # floors are deliberately loose (CI machines vary wildly); the point
    # is catching order-of-magnitude regressions, trajectories live in
    # the emitted BENCH_engine.json
    assert eng["callback_events_per_sec"] > 20_000
    assert eng["process_events_per_sec"] > 20_000
    assert eng["cancel_churn_events_per_sec"] > 10_000
    assert report["figure8_smoke"]["events"] > 0

    # the simulated event count is part of the determinism contract:
    # re-running the same smoke configuration (the report records its rep
    # count) must execute the exact same events, whatever the wall-clock
    again = bench_figure8_smoke(reps=report["figure8_smoke"]["reps"])
    assert again["events"] == report["figure8_smoke"]["events"]


def test_cancellation_compaction_bounds_queue():
    """Cancel-heavy churn must not accumulate dead entries in the heap."""
    eng = Engine()
    for i in range(10_000):
        eng.schedule_at(float(i) + 0.5, lambda: None).cancel()
    # lazy compaction keeps cancelled entries at most half the queue
    assert len(eng._queue) <= 2 * max(1, eng.pending)
    assert eng.pending == 0


if __name__ == "__main__":
    import json
    import sys

    from repro.sim.bench import write_report

    report = run_benchmarks(quick="--quick" in sys.argv)
    report = write_report(report, "BENCH_engine.json")
    print(json.dumps(report, indent=1))
    print("report written to BENCH_engine.json", file=sys.stderr)
