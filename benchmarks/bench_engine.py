"""Event-loop events/sec benchmark (the tasking hot path).

Unlike the other ``bench_*`` files, which regenerate paper artifacts, this
one tracks the *simulator's own* throughput: the work-stealing
scheduler's event loop, where every task body, steal probe and backoff
is one discrete event, so tasking wall-clock is events/sec times event
count.  The check asserts what every change must keep: the figure8-smoke
probe executes a *deterministic* number of simulated events — wall time
may vary, the simulation must not.

Run ``python benchmarks/bench_engine.py`` (or ``repro-omp bench``) to
print the numbers and write ``BENCH_engine.json``.
"""

from repro.sim.bench import bench_figure8_smoke, run_benchmarks

#: Simulated events of the figure8 smoke at 5 (``--quick``) and 30
#: repetitions: a changed count means the simulation changed.
SMOKE_EVENTS = {5: 1080, 30: 6463}


def test_engine_throughput(benchmark, scale):
    # NOT run through conftest.run_once: run_benchmarks is not an
    # experiment driver and takes no jobs=/cache= kwargs (the event loop
    # is measured in-process by definition)
    report = benchmark.pedantic(
        run_benchmarks,
        kwargs={"quick": scale["reps"] < 100},
        rounds=1,
        iterations=1,
    )

    smoke = report["figure8_smoke"]
    assert smoke["events"] == SMOKE_EVENTS[smoke["reps"]]

    # the simulated event count is part of the determinism contract:
    # re-running the same smoke configuration (the report records its rep
    # count) must execute the exact same events, whatever the wall-clock
    again = bench_figure8_smoke(reps=smoke["reps"])
    assert again["events"] == smoke["events"]


if __name__ == "__main__":
    import json
    import sys

    from repro.sim.bench import write_report

    report = run_benchmarks(quick="--quick" in sys.argv)
    report = write_report(report, "BENCH_engine.json")
    print(json.dumps(report, indent=1))
    print("report written to BENCH_engine.json", file=sys.stderr)
