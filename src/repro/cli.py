"""Command-line interface.

Examples
--------
List what's available::

    repro-omp list

Regenerate a paper artifact (quick scale)::

    repro-omp experiment table2 --runs 5 --reps 30 --seed 1

Regenerate at full scale on every core, caching results on disk so a
re-invocation replays instead of re-simulating (see docs/parallel.md)::

    repro-omp experiment figure3 --jobs 0 --cache-dir ~/.cache/repro-omp

Run a custom configuration and save the raw result::

    repro-omp run --platform dardel --benchmark syncbench --threads 128 \
        --proc-bind close --runs 10 --out result.json

Run the tasking micro-benchmark (a fib(14) tree, OS noise ablated) and
read the work-stealing metrics next to the variability report::

    repro-omp run --platform vera --benchmark taskbench --threads 16 \
        --noise quiet --param pattern=fib --param fib_n=14

Compare runtime vendors (see docs/runtimes.md), or run one configuration
under LLVM libomp with passive waiters::

    repro-omp experiment runtime_compare --jobs 0
    repro-omp run --platform dardel --benchmark syncbench --threads 128 \
        --runtime llvm --wait-policy passive

Run a declarative parameter sweep without writing any Python (see
docs/study.md): ``--grid`` axes cross-multiply, ``--zip`` axes tie
equal-length value lists together, and ``--out`` exports the tidy
records as CSV or JSON::

    repro-omp sweep --grid num_threads=4,8 --grid runtime=gnu,llvm \
        --runs 5 --reps 20 --out sweep.csv

``run``, ``sweep`` and ``gather`` compile their flags into the job
service's spec schema and build the Study through its ``validate_spec``
→ ``spec_to_study`` (see docs/service.md): flags and a JSON job spec
expand to the same configs, and a flag error names the spec field.
``experiment`` and ``gather --experiment`` build the experiment's own
sweep spec through the same two functions.

Shard one sweep across independent workers (different terminals, or
different hosts sharing one cache directory), then assemble the shards
into a result byte-identical to the unsharded run (see
docs/distributed.md)::

    repro-omp sweep --grid num_threads=4,8,16 --shard 0/2 --cache-dir /shared/cache
    repro-omp sweep --grid num_threads=4,8,16 --shard 1/2 --cache-dir /shared/cache
    repro-omp gather --grid num_threads=4,8,16 --cache-dir /shared/cache \
        --expect-shards 2 --out sweep.csv

Inspect or clean a cache directory::

    repro-omp cache stats --cache-dir /shared/cache
    repro-omp cache gc --cache-dir /shared/cache

Check the tree against the determinism & hot-path contracts (see
docs/static-analysis.md); intentional exceptions live in the committed
``lint-baseline.json``::

    repro-omp lint src
    repro-omp lint src --rule DET001 --format json
    repro-omp lint --list-rules

Run sweeps as a service: one long-lived process executes JSON job specs
over a shared cache and pool, with dedup, SSE progress streams and a
per-client rate limit (see docs/service.md)::

    repro-omp serve --port 8765 --workers 2 --jobs 0 &
    repro-omp sweep --grid num_threads=4,8 --dry-run   # preview, no work
    repro-omp submit spec.json --wait
    repro-omp status j0001-abcdef012345
    repro-omp fetch j0001-abcdef012345 --out records.json

Show a platform description::

    repro-omp platform dardel
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.registry import available_benchmarks
from repro.errors import HarnessError, ReproError
from repro.harness.cache import ResultCache
from repro.harness.experiments import (
    EXPERIMENTS,
    available_experiments,
    get_experiment,
)
from repro.harness.report import (
    render_group_summaries,
    render_shard_summary,
    render_study_overview,
    render_tasking_summary,
    split_tasking_labels,
)
from repro.harness.shard import ShardRunComplete, parse_shard
from repro.harness.study import Study, coerce_token
from repro.omp.vendor import available_runtimes, get_runtime_profile
from repro.platform import available_platforms, get_platform


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """--jobs / --shard / --cache-dir / --no-cache, shared by experiment,
    run and sweep."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the run fan-out (0 = all cores; default "
             "1 = serial in-process, more = a process pool)",
    )
    parser.add_argument(
        "--shard", default=None, metavar="I/N",
        help="execute only shard I of an N-way partition of the configs "
             "(zero-based; requires --cache-dir shared by all shards, then "
             "`repro-omp gather`; see docs/distributed.md)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache results on disk under DIR and replay them on re-invocation",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir: neither read nor write cached results",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """--trace / --telemetry / --telemetry-out, shared by run and sweep."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export a Chrome trace-event JSON of the simulated timeline "
             "(load in https://ui.perfetto.dev; see docs/observability.md)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="print the harness telemetry section (cache, pool, timings)",
    )
    parser.add_argument(
        "--telemetry-out", dest="telemetry_out", default=None, metavar="PATH",
        help="export the harness metrics registry as JSON",
    )


def _make_cache(args: argparse.Namespace) -> ResultCache | None:
    if args.cache_dir is None or args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _existing_cache(args: argparse.Namespace) -> ResultCache:
    """The cache of a read-only command, which never creates its dir."""
    if not Path(args.cache_dir).is_dir():
        raise HarnessError(f"cache dir {args.cache_dir} does not exist")
    return ResultCache(args.cache_dir)


def _finish_obs(args: argparse.Namespace, configs, metrics) -> None:
    """Shared run/sweep epilogue: execution summary, trace, telemetry.

    The one-line execution summary (worker count + cache traffic) always
    prints; the trace annotation pass and telemetry exports only on
    request.  *configs* is the full expanded config list in display order
    — the trace's Perfetto process groups follow it.
    """
    import json

    from repro.harness.parallel import resolve_jobs
    from repro.harness.report import render_telemetry

    cache_summary = "disabled"
    if args.cache_dir is not None and not args.no_cache:
        hits = metrics.counter("cache_hits").value
        misses = metrics.counter("cache_misses").value
        stores = metrics.counter("cache_stores").value
        cache_summary = (
            f"{hits:g} hit(s), {misses:g} miss(es), {stores:g} store(s)"
        )
    print(
        f"\nexecution: {resolve_jobs(args.jobs)} worker(s); "
        f"cache: {cache_summary}"
    )
    if args.trace:
        # lazy: the annotation pass re-simulates serially in-process
        from repro.obs.annotate import write_trace

        n_events = write_trace(configs, args.trace)
        print(
            f"wrote {n_events} trace events to {args.trace} "
            f"(open in https://ui.perfetto.dev)"
        )
    if args.telemetry:
        print()
        print(render_telemetry(metrics))
    if args.telemetry_out:
        Path(args.telemetry_out).write_text(
            json.dumps(metrics.to_dict(), indent=1) + "\n"
        )
        print(f"wrote telemetry JSON to {args.telemetry_out}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Base-configuration flags shared by ``run`` and ``sweep``."""
    parser.add_argument("--platform", choices=available_platforms(), default="vera")
    parser.add_argument("--benchmark", choices=available_benchmarks(),
                        default="syncbench")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--places", default="cores")
    parser.add_argument("--proc-bind", dest="proc_bind", default="close",
                        choices=["false", "true", "close", "spread", "master"])
    parser.add_argument("--schedule", default="static",
                        choices=["static", "dynamic", "guided"])
    parser.add_argument("--chunk", type=int, default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--noise", default="default", choices=["default", "quiet"],
                        help="OS-noise profile (quiet = noise sources ablated)")
    parser.add_argument("--runtime", default="gnu", choices=available_runtimes(),
                        help="OpenMP implementation vendor profile "
                             "(gnu = GCC libgomp, llvm = LLVM libomp)")
    parser.add_argument("--wait-policy", dest="wait_policy", default=None,
                        choices=["active", "passive"],
                        help="OMP_WAIT_POLICY override (default: vendor's policy)")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="extra benchmark parameter (repeatable), e.g. "
                             "--param pattern=fib --param fib_n=14")
    parser.add_argument("--freq-log", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-omp",
        description=(
            "Reproduction of 'Analysis and Characterization of Performance "
            "Variability for OpenMP Runtime' (SC-W 2023) on a simulated node."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list platforms, benchmarks and experiments")

    p_platform = sub.add_parser("platform", help="describe a platform preset")
    p_platform.add_argument("name", choices=available_platforms())

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", choices=available_experiments())
    p_exp.add_argument("--runs", type=int, default=None, help="runs per config")
    p_exp.add_argument("--reps", type=int, default=None,
                       help="outer repetitions / stream iterations")
    p_exp.add_argument("--seed", type=int, default=42)
    _add_execution_flags(p_exp)

    p_run = sub.add_parser("run", help="run one custom configuration")
    _add_config_flags(p_run)
    p_run.add_argument("--out", default=None, help="save result JSON here")
    _add_execution_flags(p_run)
    _add_obs_flags(p_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="declarative parameter sweep (grid/zip axes over a base config)",
    )
    _add_config_flags(p_sweep)
    p_sweep.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="sweep axis whose values cross-multiply with other axes "
             "(repeatable); KEY is a config field or a benchmark parameter",
    )
    p_sweep.add_argument(
        "--zip", action="append", default=[], metavar="KEY=V1,V2,...",
        help="sweep axes tied position-by-position; all --zip lists must "
             "share a length (repeatable)",
    )
    p_sweep.add_argument(
        "--label", default=None, metavar="SERIES",
        help="measurement series to summarize (default: each result's first)",
    )
    p_sweep.add_argument(
        "--group-by", dest="group_by", action="append", default=[],
        metavar="KEY",
        help="axis to aggregate pooled variability over (repeatable; "
             "default: every swept axis)",
    )
    p_sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="export tidy records here (.json exports JSON, anything "
             "else CSV)",
    )
    p_sweep.add_argument(
        "--dry-run", dest="dry_run", action="store_true",
        help="print the expanded config list (with cache keys and "
             "warm/cold status) as JSON and exit without simulating",
    )
    _add_execution_flags(p_sweep)
    _add_obs_flags(p_sweep)

    p_gather = sub.add_parser(
        "gather",
        help="assemble the shards of a --shard i/N run from their shared "
             "cache dir into one verified result (see docs/distributed.md)",
    )
    _add_config_flags(p_gather)
    # the sweep parser defaults --runs to 10; gather defaults it to None
    # so experiment-mode gather leaves each driver's own default alone
    # (sweep-mode normalizes None back to 10 for spec parity with sweep)
    p_gather.set_defaults(runs=None)
    p_gather.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="sweep axis, exactly as passed to the sharded sweep",
    )
    p_gather.add_argument(
        "--zip", action="append", default=[], metavar="KEY=V1,V2,...",
        help="zip axes, exactly as passed to the sharded sweep",
    )
    p_gather.add_argument(
        "--experiment", default=None, choices=available_experiments(),
        metavar="NAME",
        help="gather a sharded `experiment NAME` run instead of a sweep: "
             "verify the manifests cover the experiment, then render the "
             "artifact from cache only (never simulating)",
    )
    p_gather.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the cache directory every shard wrote into",
    )
    p_gather.add_argument(
        "--expect-shards", dest="expect_shards", type=int, default=None,
        metavar="N",
        help="fail unless the manifests form exactly this partition size "
             "(guards against gathering a stale or mixed cache dir)",
    )
    p_gather.add_argument(
        "--label", default=None, metavar="SERIES",
        help="measurement series to summarize (default: each result's first)",
    )
    p_gather.add_argument(
        "--group-by", dest="group_by", action="append", default=[],
        metavar="KEY",
        help="axis to aggregate pooled variability over (repeatable)",
    )
    p_gather.add_argument(
        "--out", default=None, metavar="PATH",
        help="export tidy records here — byte-identical to what the same "
             "sweep flags export unsharded",
    )
    p_gather.add_argument(
        "--telemetry", action="store_true",
        help="print the merged per-shard harness telemetry",
    )
    p_gather.add_argument(
        "--telemetry-out", dest="telemetry_out", default=None, metavar="PATH",
        help="export the merged metrics registry as JSON",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clean a result cache directory",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats",
        help="entry count, bytes, per-version breakdown and hit rate",
    )
    p_cache_stats.add_argument("--cache-dir", required=True, metavar="DIR")
    p_cache_stats.add_argument(
        "--format", dest="fmt", choices=["text", "json"], default="text",
    )
    p_cache_gc = cache_sub.add_parser(
        "gc",
        help="prune entries orphaned by code/schema version bumps "
             "(their keys can never be looked up again)",
    )
    p_cache_gc.add_argument("--cache-dir", required=True, metavar="DIR")

    p_bench = sub.add_parser(
        "bench",
        help="measure engine throughput (events/sec) and record the "
             "numbers to a JSON report",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="~10x smaller workloads (CI smoke)",
    )
    p_bench.add_argument(
        "--out", default="BENCH_engine.json", metavar="PATH",
        help="where to write the JSON report (default: BENCH_engine.json); "
             "the prior report's numbers are preserved in its append-only "
             "trajectory list instead of being clobbered",
    )
    p_bench.add_argument(
        "--stamp", default=None, metavar="LABEL",
        help="label (date, commit id, ...) recorded with this report's "
             "trajectory entry",
    )

    p_lint = sub.add_parser(
        "lint",
        help="static determinism & hot-path contract checks "
             "(see docs/static-analysis.md)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--rule", action="append", default=[], metavar="ID",
        help="run only this rule (repeatable), e.g. --rule DET001",
    )
    p_lint.add_argument(
        "--format", dest="fmt", choices=["text", "json"], default="text",
        help="output format (json is what the CI lint job consumes)",
    )
    p_lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline of intentional exceptions (default: "
             "lint-baseline.json in the current directory, if present)",
    )
    p_lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline: report every finding",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP job service (async sweeps over one shared "
             "pool and cache; see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="jobs progressing concurrently (governor worker threads)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process parallelism of the one shared execution pool "
             "(0 = all cores; default 1 = in-process)",
    )
    p_serve.add_argument(
        "--state-dir", default=".repro-serve", metavar="DIR",
        help="job state, rendered records and (by default) the shared "
             "result cache live here (default: .repro-serve)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="share an existing result cache instead of STATE_DIR/cache",
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a job spec JSON to a running service",
    )
    p_submit.add_argument(
        "spec", metavar="FILE",
        help="job spec JSON file, or '-' to read the spec from stdin",
    )
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default: http://127.0.0.1:8765)",
    )
    p_submit.add_argument(
        "--client-id", dest="client_id", default=None,
        help="stable client name for the per-client rate limit",
    )
    p_submit.add_argument(
        "--dry-run", dest="dry_run", action="store_true",
        help="expand the spec on the service (cache keys + warm/cold "
             "status) without creating a job",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="--wait deadline (default 300)",
    )

    p_status = sub.add_parser(
        "status",
        help="show one job (or every job) on a running service",
    )
    p_status.add_argument("job_id", nargs="?", default=None, metavar="JOB_ID")
    p_status.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default: http://127.0.0.1:8765)",
    )

    p_fetch = sub.add_parser(
        "fetch",
        help="download a finished job's tidy records",
    )
    p_fetch.add_argument("job_id", metavar="JOB_ID")
    p_fetch.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default: http://127.0.0.1:8765)",
    )
    p_fetch.add_argument(
        "--format", dest="fmt", choices=["json", "csv"], default="json",
        help="records format (default json)",
    )
    p_fetch.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the records here byte-identically (default: stdout)",
    )
    return parser


#: Config fields whose legal *string* values collide with the bool tokens
#: (``proc_bind="false"`` means OS placement, not Python ``False``), so
#: axis values for them are taken verbatim.
_VERBATIM_AXIS_KEYS = frozenset({"proc_bind"})


def _parse_param(item: str) -> tuple[str, object]:
    """``KEY=VALUE`` with the value coerced via
    :func:`~repro.harness.study.coerce_token` — ``true``/``false``/``none``
    (case-insensitive) become ``True``/``False``/``None``, so boolean
    benchmark parameters do not arrive as (always-truthy) strings."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ReproError(f"--param needs KEY=VALUE, got {item!r}")
    return key, coerce_token(raw)


def _parse_axis(item: str) -> tuple[str, list]:
    """``KEY=V1,V2,...`` for ``--grid`` / ``--zip``; values coerced like
    ``--param`` values (except for keys whose legal string values look
    like booleans, e.g. ``proc_bind=false,close``)."""
    key, sep, raw = item.partition("=")
    if not sep or not key or not raw:
        raise ReproError(f"--grid/--zip need KEY=V1,V2,..., got {item!r}")
    values = raw.split(",")
    if key in _VERBATIM_AXIS_KEYS:
        return key, values
    return key, [coerce_token(v) for v in values]


def _cmd_list() -> int:
    print("platforms:  ", ", ".join(available_platforms()))
    print("benchmarks: ", ", ".join(available_benchmarks()))
    print("runtimes:   ", ", ".join(
        f"{name} ({get_runtime_profile(name).vendor})"
        for name in available_runtimes()
    ))
    print("experiments:")
    width = max(len(name) for name in EXPERIMENTS)
    for name in available_experiments():
        print(f"  {name:<{width}}  {EXPERIMENTS[name].description}")
    return 0


def _cmd_platform(name: str) -> int:
    print(get_platform(name).describe())
    return 0


def _cmd_experiment(name: str, args: argparse.Namespace) -> int:
    spec = get_experiment(name)
    knobs = spec.knobs(args.runs, args.reps, args.seed)
    # a shard renders no artifact: its run ends in ShardRunComplete
    # (handled in main) once it has written its manifest
    result = spec.build_study(**knobs).run(
        jobs=args.jobs,
        cache=_make_cache(args),
        shard=None if args.shard is None else parse_shard(args.shard),
    )
    print(spec.render(result, **knobs).render())
    return 0


def _job_spec(args: argparse.Namespace) -> dict:
    """The job spec the config flags describe (see docs/service.md).

    Each ``--grid`` is one grid axis, in flag order; all ``--zip`` flags
    together are one zip axis after them.  ``--reps`` maps onto each
    expanded config's repetition knob, which follows the config's
    benchmark (itself possibly an axis); an explicit axis or ``--param``
    value for the knob wins.
    """
    spec: dict = {
        "base": {
            "platform": args.platform,
            "benchmark": args.benchmark,
            "num_threads": args.threads,
            "places": None if args.proc_bind == "false" else args.places,
            "proc_bind": args.proc_bind,
            "schedule": args.schedule,
            "schedule_chunk": args.chunk,
            "runs": args.runs,
            "seed": args.seed,
            "noise": args.noise,
            "runtime": args.runtime,
            "wait_policy": args.wait_policy,
            "benchmark_params": dict(_parse_param(p) for p in args.param),
            "freq_logging": args.freq_log,
        },
        "axes": [
            {"kind": "grid", "axes": dict([_parse_axis(item)])}
            for item in getattr(args, "grid", [])
        ],
    }
    if getattr(args, "zip", []):
        spec["axes"].append(
            {"kind": "zip", "axes": dict(_parse_axis(i) for i in args.zip)}
        )
    if args.reps is not None:
        spec["reps"] = args.reps
    if getattr(args, "shard", None) is not None:
        spec["shard"] = args.shard
    return spec


def _study_from_args(
    args: argparse.Namespace,
) -> tuple[Study, tuple[int, int] | None]:
    """The Study the config flags describe and the shard they select,
    built by the job service's validator and builder: flags and JSON
    specs expand to the same configs, and a user error names the spec
    field, as the service's errors do."""
    from repro.serve.jobspec import spec_shard, spec_to_study, validate_spec

    spec = validate_spec(_job_spec(args))
    return spec_to_study(spec), spec_shard(spec)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry

    study, shard = _study_from_args(args)
    metrics = MetricsRegistry()
    ran = study.run(
        jobs=args.jobs, cache=_make_cache(args), metrics=metrics, shard=shard,
    )
    result = ran[0]
    time_labels, metric_labels = split_tasking_labels(result.labels())
    for label in time_labels:
        print(result.report(label).render())
        print()
        if f"{label}.steals" in metric_labels:
            print(
                render_tasking_summary(
                    label,
                    result.runs_matrix(f"{label}.steals"),
                    result.runs_matrix(f"{label}.failed_steals"),
                    result.runs_matrix(f"{label}.idle_frac"),
                )
            )
            print()
    if args.out:
        result.save(args.out)
        print(f"saved raw result to {args.out}")
    _finish_obs(args, list(ran.configs), metrics)
    return 0


def _render_sweep_report(args: argparse.Namespace, result) -> None:
    """Sweep overview + group summaries + optional export, shared by
    ``sweep`` and ``gather`` (identical flags produce identical exports)."""
    axes = ", ".join(result.axes) if result.axes else "(none)"
    print(f"sweep: {len(result)} configuration(s); swept axes: {axes}")
    print()
    print(
        render_study_overview(
            result, label=args.label,
            title="per-configuration pooled variability",
        )
    )
    for axis in args.group_by or result.axes:
        print()
        print(
            render_group_summaries(
                axis,
                result.group_summaries(axis, label=args.label),
                title=f"pooled variability by {axis}",
            )
        )
    if args.out:
        _export(args, result)


def _export(args: argparse.Namespace, result, file=None) -> None:
    """``--out``: the tidy records of *result*, JSON or CSV by suffix."""
    out = Path(args.out)
    if out.suffix.lower() == ".json":
        n_records = result.to_json(out)
    else:
        n_records = result.to_csv(out)
    print(f"\nexported {n_records} tidy records to {out}", file=file)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.obs.metrics import MetricsRegistry

    study, shard = _study_from_args(args)
    if args.dry_run:
        # same payload POST /jobs?dry_run=1 returns: the expanded config
        # list with cache keys and warm/cold status, nothing simulated
        rows = study.preview(_make_cache(args))
        print(json.dumps({"total": len(rows), "configs": rows}, indent=2))
        return 0
    metrics = MetricsRegistry()
    result = study.run(
        jobs=args.jobs, cache=_make_cache(args), metrics=metrics, shard=shard,
    )
    _render_sweep_report(args, result)
    _finish_obs(args, list(result.configs), metrics)
    return 0


#: The flags ``gather --experiment`` reads: the experiment, its knobs, the
#: shared cache and the exports.  The experiment fixes its own configs.
_EXPERIMENT_GATHER_FLAGS = frozenset({
    "command", "experiment", "runs", "reps", "seed", "cache_dir",
    "expect_shards", "out", "telemetry", "telemetry_out",
})


def _reject_sweep_flags(args: argparse.Namespace) -> None:
    """A sweep or config flag of ``gather --experiment`` set away from its
    default would be ignored, so it is a user error."""
    defaults = vars(_build_parser().parse_args(["gather", "--cache-dir=."]))
    ignored = [
        "--" + key.replace("_", "-") for key, default in defaults.items()
        if key not in _EXPERIMENT_GATHER_FLAGS and getattr(args, key) != default
    ]
    if ignored:
        raise HarnessError(
            f"gather --experiment {args.experiment} builds the experiment's "
            f"own configs; drop {', '.join(ignored)}"
        )


def _cmd_gather(args: argparse.Namespace) -> int:
    import json

    from repro.harness.report import render_gather_summary, render_telemetry
    from repro.obs.metrics import MetricsRegistry

    cache = _existing_cache(args)
    if args.experiment is not None:
        _reject_sweep_flags(args)
        spec = get_experiment(args.experiment)
        knobs = spec.knobs(args.runs, args.reps, args.seed)
        study = spec.build_study(**knobs)
    else:
        if args.runs is None:
            args.runs = 10  # the sweep parser's default: keep spec parity
        study, _ = _study_from_args(args)
    metrics = MetricsRegistry()
    result = study.gather(
        cache, expected_shards=args.expect_shards, metrics=metrics
    )
    summary = render_gather_summary(
        int(metrics.gauge("manifest_shards").value),
        int(metrics.counter("manifest_entries_verified").value),
        metrics.gauge("manifest_total_bytes").value,
        len(result),
    )
    if args.experiment is not None:
        # stdout carries the artifact alone, byte-comparable with
        # `repro-omp experiment`; everything else goes to stderr
        side = sys.stderr
        print(summary, file=side)
        print(spec.render(result, **knobs).render())
        if args.out:
            _export(args, result, file=side)
    else:
        side = sys.stdout
        print(summary)
        print()
        _render_sweep_report(args, result)
    if args.telemetry:
        print(file=side)
        print(render_telemetry(metrics), file=side)
    if args.telemetry_out:
        Path(args.telemetry_out).write_text(
            json.dumps(metrics.to_dict(), indent=1) + "\n"
        )
        print(f"wrote telemetry JSON to {args.telemetry_out}", file=side)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    cache = _existing_cache(args)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.fmt == "json":
            print(json.dumps(stats, indent=1))
            return 0
        print(f"cache: {stats['cache_dir']}")
        print(
            f"entries: {stats['entries']} "
            f"({stats['total_bytes']:,} bytes)"
        )
        if stats["by_version"]:
            breakdown = ", ".join(
                f"{version}: {count}"
                for version, count in stats["by_version"].items()
            )
            print(f"by producing version: {breakdown}")
        rate = (
            "n/a (no lookups by this process)"
            if stats["hit_rate"] is None
            else f"{stats['hit_rate']:.1%}"
        )
        print(
            f"traffic (this process): {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['stores']} store(s); "
            f"hit rate {rate}"
        )
        print(
            f"current key version: code {stats['code_version']}, "
            f"schema {stats['cache_schema']}"
        )
        return 0
    if args.cache_command == "gc":
        counts = cache.gc()
        print(
            f"gc: kept {counts['kept']} entry(ies); removed "
            f"{counts['removed_stale']} stale, "
            f"{counts['removed_corrupt']} corrupt, "
            f"{counts['removed_tmp']} orphaned tmp file(s)"
        )
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_lint(args: argparse.Namespace) -> int:
    # imported lazily: the analysis package is pure stdlib and only
    # needed by this subcommand
    from repro.analysis import (
        DEFAULT_BASELINE_NAME,
        Baseline,
        format_json,
        format_text,
        get_rules,
        lint_paths,
    )

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.id}  {rule.title}")
            print(f"    why:  {rule.rationale}")
            print(f"    fix:  {rule.fix_hint}")
            scope = ", ".join(rule.packages) if rule.packages else "all files"
            print(f"    scope: {scope}")
        return 0

    baseline = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline = Baseline.load(args.baseline)
        elif Path(DEFAULT_BASELINE_NAME).is_file():
            baseline = Baseline.load(DEFAULT_BASELINE_NAME)

    report = lint_paths(
        args.paths,
        rule_ids=args.rule or None,
        baseline=baseline,
    )
    print(format_json(report) if args.fmt == "json" else format_text(report))
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.sim.bench import run_benchmarks, write_report

    report = run_benchmarks(quick=args.quick)
    report = write_report(report, args.out, stamp=args.stamp)
    eng = report["engine"]
    smoke = report["figure8_smoke"]
    print("engine throughput (events/sec):")
    print(f"  callbacks:     {eng['callback_events_per_sec']:>12,}")
    print(f"  processes:     {eng['process_events_per_sec']:>12,}")
    print(f"  cancel churn:  {eng['cancel_churn_events_per_sec']:>12,}")
    print(
        f"figure8 smoke:   {smoke['events_per_sec']:>12,} "
        f"({smoke['events']} simulated events in {smoke['wall_seconds']:.3f}s)"
    )
    for key, factor in report.get("speedup_vs_baseline", {}).items():
        print(f"  {factor:5.2f}x vs recorded baseline: {key}")
    n_prior = len(report.get("trajectory", []))
    print(
        f"report written to {args.out} "
        f"({n_prior} prior measurement(s) kept in its trajectory)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import JobService, create_http_server

    service = JobService(
        args.state_dir,
        workers=args.workers,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    service.start()
    server = create_http_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    # flushed immediately: supervisors (and the CI smoke job) read the
    # bound address from this line before the first request
    print(f"repro-omp job service on http://{host}:{port}", flush=True)
    print(
        f"state: {service.state_dir}  cache: {service.cache.cache_dir}  "
        f"workers: {service.workers}  pool jobs: {service.pool_jobs}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.stop()
    return 0


def _read_spec_file(path: str) -> dict:
    import json

    raw = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ReproError(f"spec file {path!r} is not valid JSON: {exc}")


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServiceClient

    client = ServiceClient(args.url, client_id=args.client_id)
    payload = client.submit(_read_spec_file(args.spec), dry_run=args.dry_run)
    if not args.dry_run and args.wait:
        payload = client.wait(payload["job_id"], timeout=args.timeout)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not args.dry_run and args.wait and payload["state"] != "done":
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServiceClient

    client = ServiceClient(args.url)
    payload = (
        client.job(args.job_id)
        if args.job_id is not None
        else {"jobs": client.jobs()}
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClient

    text = ServiceClient(args.url).records(args.job_id, args.fmt)
    if args.out:
        # write_bytes keeps CSV \r\n terminators intact: CI cmp-s this
        # file against a local `repro-omp sweep --out` export
        Path(args.out).write_bytes(text.encode("utf-8"))
        print(f"wrote records to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "platform":
            return _cmd_platform(args.name)
        if args.command == "experiment":
            return _cmd_experiment(args.name, args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "gather":
            return _cmd_gather(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
    except ShardRunComplete as exc:
        # not a failure: a --shard i/N worker finished its slice and
        # recorded its manifest; the gather step assembles the shards
        print(render_shard_summary(exc.summary))
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
