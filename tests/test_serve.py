"""Tests for the job service (``repro.serve``).

Four layers: the job-spec schema (validation errors naming fields, the
clause whitelist, spec -> Study parity with the sweep CLI, and each
experiment's spec surviving a JSON round trip), job lifecycle plumbing
(ids, persistence, the dedup-aware queue), the governor (token buckets
with an injected clock), and the whole service end-to-end over real HTTP
on an ephemeral port — records byte-identity, SSE progress, dedup
sharing, and rate limiting.
"""

import contextlib
import io
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import available_benchmarks, reps_param
from repro.cli import main
from repro.errors import BenchmarkError, JobSpecError, ServiceError
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.experiments import EXPERIMENTS
from repro.harness.shard import shard_members
from repro.harness.study import Study
from repro.types import PLATFORMS
from repro.serve import (
    Job,
    JobQueue,
    JobService,
    JobStore,
    TokenBucket,
    create_http_server,
    spec_to_study,
    validate_spec,
)
from repro.serve.client import ServiceClient, parse_sse
from repro.serve.jobs import job_id_for
from repro.serve.jobspec import compile_clause, spec_fingerprint


def canonical_configs(study: Study) -> str:
    """Canonical JSON of the expanded config list (byte-comparable)."""
    return json.dumps(
        [cfg.to_dict() for cfg in study.configs()], sort_keys=True
    )


SWEEP_SPEC = {
    "kind": "sweep",
    "base": {"platform": "vera", "benchmark": "syncbench", "runs": 2,
             "seed": 42},
    "axes": [{"kind": "grid", "axes": {"num_threads": [2, 4]}}],
    "reps": 3,
}


# ---------------------------------------------------------------------------
# jobspec: validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_minimal_sweep_spec_normalizes(self):
        out = validate_spec(SWEEP_SPEC)
        assert out["kind"] == "sweep"
        assert out["name"] == "sweep"
        assert out["axes"][0] == {"kind": "grid", "axes": {"num_threads": [2, 4]}}

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ([], "<root>"),
            ({"kind": "banana"}, "'kind'"),
            ({"bogus": 1}, "'bogus'"),
            ({"base": {"bogus_field": 1}}, "base.bogus_field"),
            ({"base": {"benchmark_params": 3}}, "base.benchmark_params"),
            ({"axes": {"num_threads": [2]}}, "'axes'"),
            ({"axes": [{"kind": "diagonal"}]}, "axes[0].kind"),
            ({"axes": [{"kind": "grid"}]}, "axes[0].axes"),
            ({"axes": [{"kind": "grid", "axes": {}}]}, "axes[0].axes"),
            ({"axes": [{"kind": "grid", "axes": {"num_threads": []}}]},
             "axes[0].axes.num_threads"),
            ({"axes": [{"kind": "grid", "axes": {"k": [1]}, "points": []}]},
             "axes[0].points"),
            ({"axes": [{"kind": "zip",
                        "axes": {"a": [1, 2], "b": [1]}}]}, "axes[0].axes"),
            ({"axes": [{"kind": "cases", "points": []}]}, "axes[0].points"),
            ({"axes": [{"kind": "cases", "points": ["x"]}]},
             "axes[0].points[0]"),
            ({"axes": [{"kind": "grid", "axes": {"num_threads": [2]}},
                       {"kind": "cases", "points": [3]}]}, "axes[1].points[0]"),
            ({"reps": 0}, "'reps'"),
            ({"reps": "three"}, "'reps'"),
            ({"backend": "gpu"}, "'backend'"),
            ({"shard": "2"}, "'shard'"),
            ({"derive": {"places": "open("}}, "derive.places"),
            ({"where": "num_threads > 2"}, "'where'"),
            ({"where": ["__import__('os')"]}, "where[0]"),
            ({"kind": "experiment", "experiment": "nope"}, "'experiment'"),
            ({"kind": "experiment", "experiment": "table2", "runs": -1},
             "'runs'"),
            ({"axes": [{"kind": "grid", "axes": {"num_threads": [0, 2]}}]},
             "field 'axes': num_threads=0: num_threads must be positive"),
            ({"base": {"platform": "toy"},
              "axes": [{"kind": "grid", "axes": {"runtime": ["gnu"]}}],
              "derive": {"num_threads": "0"}},
             "field 'derive.num_threads': runtime=gnu: num_threads must be positive"),
        ],
    )
    def test_errors_name_the_offending_field(self, spec, fragment):
        with pytest.raises(JobSpecError, match="job spec") as err:
            validate_spec(spec)
        assert fragment in str(err.value)

    def test_invalid_base_config_value_rejected(self):
        with pytest.raises(JobSpecError, match="proc_bind"):
            validate_spec({"base": {"proc_bind": "sideways"},
                           "axes": [{"kind": "grid",
                                     "axes": {"num_threads": [2]}}]})

    def test_unsatisfiable_where_rejected_at_submit(self):
        with pytest.raises(JobSpecError, match="select"):
            validate_spec({
                "axes": [{"kind": "grid", "axes": {"num_threads": [2]}}],
                "where": ["num_threads > 100"],
            })


# ---------------------------------------------------------------------------
# jobspec: clause expressions
# ---------------------------------------------------------------------------


class TestClauses:
    def test_clause_reads_config_fields(self):
        fn = compile_clause("'big' if num_threads > 4 else 'small'", "derive.x")
        assert fn(ExperimentConfig(num_threads=8)) == "big"
        assert fn(ExperimentConfig(num_threads=2)) == "small"

    def test_clause_resolves_benchmark_params(self):
        fn = compile_clause("outer_reps * 2", "derive.x")
        cfg = ExperimentConfig(benchmark_params={"outer_reps": 21})
        assert fn(cfg) == 42

    def test_membership_and_boolean_logic(self):
        fn = compile_clause(
            "num_threads in (2, 4) and platform == 'vera'", "where[0]"
        )
        assert fn(ExperimentConfig(num_threads=4)) is True
        assert fn(ExperimentConfig(num_threads=8)) is False

    @pytest.mark.parametrize(
        "text", ["open('/etc/passwd')", "config.__class__", "x[0]",
                 "[n for n in (1, 2)]", "lambda: 1", "f'{x}'"]
    )
    def test_disallowed_constructs_rejected(self, text):
        with pytest.raises(JobSpecError, match="whitelist"):
            compile_clause(text, "where[0]")

    def test_syntax_error_names_field(self):
        with pytest.raises(JobSpecError, match="derive.places"):
            compile_clause("1 +", "derive.places")

    def test_unknown_name_raises_at_eval(self):
        fn = compile_clause("warp_factor > 9", "where[0]")
        with pytest.raises(JobSpecError, match="where\\[0\\]"):
            fn(ExperimentConfig())

    def test_derive_and_where_flow_through_study(self):
        spec = validate_spec({
            "base": {"platform": "vera", "benchmark": "syncbench", "runs": 2},
            "axes": [{"kind": "grid", "axes": {"num_threads": [2, 4, 8]}}],
            "derive": {"places": "'threads' if num_threads > 4 else 'cores'"},
            "where": ["num_threads >= 4"],
        })
        configs = spec_to_study(spec).configs()
        assert [c.num_threads for c in configs] == [4, 8]
        assert [c.places for c in configs] == ["cores", "threads"]


# ---------------------------------------------------------------------------
# jobspec: CLI parity and round-trips
# ---------------------------------------------------------------------------


#: Values a sweep spec may give each swept key, all of which survive the
#: CLI's token coercion unchanged.  ``proc_bind`` values are taken
#: verbatim; every other ``none`` token reads as ``None``.
AXIS_VALUES = {
    "platform": st.sampled_from(PLATFORMS),
    "benchmark": st.sampled_from(available_benchmarks()),
    "num_threads": st.integers(1, 64),
    "proc_bind": st.sampled_from(["false", "true", "close", "spread", "master"]),
    "places": st.sampled_from(["cores", "threads", "sockets", None]),
    "schedule": st.sampled_from(["static", "dynamic", "guided"]),
    "runtime": st.sampled_from(["gnu", "llvm"]),
    "wait_policy": st.sampled_from([None, "active", "passive"]),
    "noise": st.sampled_from(["default", "quiet"]),
    "runs": st.integers(1, 5),
    "seed": st.integers(0, 1000),
    "outer_reps": st.integers(1, 50),
    "grainsize": st.integers(1, 64),
    "pattern": st.sampled_from(["fib", "taskloop"]),
    "delay_time": st.sampled_from([0.0, 1e-07, 2.5e-06]),
    "balanced": st.booleans(),
}
PARAM_KEYS = ["outer_reps", "grainsize", "pattern", "delay_time", "balanced"]


def _token(value) -> str:
    if value is None:
        return "none"
    return str(value).lower() if isinstance(value, bool) else str(value)


@st.composite
def cli_sweep_specs(draw):
    """A valid sweep spec that the sweep flags can express: the base
    carries the fields the config flags set (each may be left to its
    default), grid axes of one key come first, then at most one zip."""
    base = draw(st.fixed_dictionaries({}, optional={
        "platform": AXIS_VALUES["platform"],
        "benchmark": AXIS_VALUES["benchmark"],
        "num_threads": AXIS_VALUES["num_threads"],
        "places": st.sampled_from(["cores", "threads", "sockets"]),
        "proc_bind": AXIS_VALUES["proc_bind"],
        "schedule": AXIS_VALUES["schedule"],
        "schedule_chunk": st.integers(1, 8),
        "runs": AXIS_VALUES["runs"],
        "seed": AXIS_VALUES["seed"],
        "noise": AXIS_VALUES["noise"],
        "runtime": AXIS_VALUES["runtime"],
        "wait_policy": st.sampled_from(["active", "passive"]),
        "freq_logging": st.just(True),
        "benchmark_params": st.dictionaries(
            st.sampled_from(PARAM_KEYS), st.integers(1, 9), max_size=2,
        ),
    }))
    if base.get("proc_bind") == "false":
        base["places"] = None  # --proc-bind false leaves placement to the OS
    keys = st.sampled_from(sorted(AXIS_VALUES))
    axes = [
        {"kind": "grid", "axes": {key: draw(st.lists(AXIS_VALUES[key], min_size=1, max_size=3))}}
        for key in draw(st.lists(keys, max_size=2))
    ]
    zipped = draw(st.lists(keys, max_size=3, unique=True))
    if zipped:
        n = draw(st.integers(1, 3))
        axes.append({"kind": "zip", "axes": {
            key: draw(st.lists(AXIS_VALUES[key], min_size=n, max_size=n))
            for key in zipped
        }})
    spec = {"kind": "sweep", "base": base, "axes": axes}
    if draw(st.booleans()):
        spec["reps"] = draw(st.integers(1, 5))
    return spec


def sweep_flags(spec) -> list[str]:
    """The ``repro-omp sweep`` flags that describe *spec*."""
    flag = {
        "num_threads": "--threads", "schedule_chunk": "--chunk",
        "proc_bind": "--proc-bind", "wait_policy": "--wait-policy",
    }
    argv = ["sweep"]
    for key, value in spec["base"].items():
        if key == "benchmark_params":
            for k, v in value.items():
                argv += ["--param", f"{k}={_token(v)}"]
        elif key == "freq_logging":
            argv.append("--freq-log")
        elif value is not None:
            argv += [flag.get(key, "--" + key), str(value)]
    for entry in spec["axes"]:
        for key, values in entry["axes"].items():
            argv += [f"--{entry['kind']}", f"{key}=" + ",".join(map(_token, values))]
    if "reps" in spec:
        argv += ["--reps", str(spec["reps"])]
    return argv


def cli_dry_run(argv) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--dry-run"]) == 0
    return json.loads(out.getvalue())["configs"]


class TestSpecStudyParity:
    @given(spec=cli_sweep_specs())
    @settings(max_examples=40, deadline=None)
    def test_sweep_spec_matches_cli_flags(self, spec):
        """The byte-identity cornerstone: a spec and the sweep flags that
        describe it expand to identical configs, hence cache keys."""
        service = spec_to_study(validate_spec(spec)).preview()
        assert cli_dry_run(sweep_flags(spec)) == service
        # the wire form expands to the same rows
        wire = json.loads(json.dumps(spec))
        assert spec_to_study(validate_spec(wire)).preview() == service

    def test_zip_axes_match_cli(self):
        cli = cli_dry_run([
            "sweep", "--zip", "schedule=static,dynamic", "--zip", "num_threads=2,4",
            "--runs", "2",
        ])
        service = spec_to_study(validate_spec({
            "base": {"platform": "vera", "benchmark": "syncbench", "runs": 2,
                     "seed": 42},
            "axes": [{"kind": "zip", "axes": {"schedule": ["static", "dynamic"],
                                              "num_threads": [2, 4]}}],
        })).preview()
        assert cli == service

    def test_bad_benchmark_param_value_fails_the_run_as_a_repro_error(self):
        study = spec_to_study(validate_spec({
            "base": {"platform": "toy", "benchmark": "syncbench", "runs": 1,
                     "benchmark_params": {"constructs": ["bogus"]}},
        }))
        with pytest.raises(BenchmarkError, match="constructs: bad entry 'bogus'"):
            study.run()

    def test_reps_param_follows_benchmark(self):
        assert reps_param("babelstream") == "num_times"
        assert reps_param("BabelStream") == "num_times"
        assert reps_param("syncbench") == "outer_reps"
        spec = validate_spec({
            "base": {"runs": 2},
            "axes": [{"kind": "grid",
                      "axes": {"benchmark": ["syncbench", "babelstream"]}}],
            "reps": 7,
        })
        configs = spec_to_study(spec).configs()
        assert configs[0].benchmark_params["outer_reps"] == 7
        assert configs[1].benchmark_params["num_times"] == 7

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_round_trips(self, name):
        """Each experiment's builder returns plain data: its spec after a
        JSON round trip validates and previews the cache keys of
        ``build_study()``, and an experiment job at the same knobs has
        the fingerprint of that spec."""
        exp = EXPERIMENTS[name]
        knobs = exp.knobs(runs=2, reps=3, seed=5)
        study = exp.build_study(**knobs)
        wire = json.loads(json.dumps(exp.study_builder(**knobs)))
        rebuilt = spec_to_study(validate_spec(wire))

        def keys(built):
            return [row["cache_key"] for row in built.preview()]

        assert keys(rebuilt) == keys(study)
        job = spec_to_study(validate_spec({
            "kind": "experiment", "experiment": name,
            "runs": 2, "reps": 3, "seed": 5,
        }))
        assert spec_fingerprint(rebuilt) == spec_fingerprint(job)

    def test_experiment_spec_kind(self):
        spec = validate_spec({"kind": "experiment", "experiment": "table2",
                              "runs": 2, "reps": 5, "seed": 1})
        study = spec_to_study(spec)
        direct = EXPERIMENTS["table2"].build_study(runs=2, outer_reps=5, seed=1)
        assert canonical_configs(study) == canonical_configs(direct)


# ---------------------------------------------------------------------------
# jobs: identity, persistence, queue
# ---------------------------------------------------------------------------


class TestJobPlumbing:
    def test_job_id_deterministic(self):
        study = spec_to_study(validate_spec(SWEEP_SPEC))
        fp = spec_fingerprint(study)
        assert job_id_for(3, fp) == f"j0003-{fp[:12]}"
        assert spec_fingerprint(spec_to_study(validate_spec(SWEEP_SPEC))) == fp

    def test_fingerprint_ignores_axis_packaging(self):
        """Same work, different spec shape -> same fingerprint (dedup
        keys on content, not notation)."""
        grid = spec_to_study(validate_spec({
            "base": {"runs": 2}, "axes": [
                {"kind": "grid", "axes": {"num_threads": [2, 4]}}],
        }))
        cases = spec_to_study(validate_spec({
            "base": {"runs": 2}, "axes": [
                {"kind": "cases", "points": [{"num_threads": 2},
                                             {"num_threads": 4}]}],
        }))
        assert spec_fingerprint(grid) == spec_fingerprint(cases)

    def test_store_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(job_id="j0001-abc", seq=1, spec={"kind": "sweep"},
                  fingerprint="abc", total=4)
        job.transition("running")
        job.simulated = 2
        store.save(job)
        loaded = JobStore(tmp_path).load_all()["j0001-abc"]
        # in-flight on restart -> failed (its processes are gone)
        assert loaded.state == "failed"
        assert "restart" in loaded.error
        assert loaded.simulated == 2
        assert JobStore(tmp_path).next_seq({"j0001-abc": loaded}) == 2

    def test_terminal_jobs_survive_restart_unchanged(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(job_id="j0001-abc", seq=1, spec={}, fingerprint="abc")
        job.transition("running")
        job.transition("done")
        store.save(job)
        assert JobStore(tmp_path).load_all()["j0001-abc"].state == "done"

    def test_illegal_transition_raises(self):
        job = Job(job_id="j", seq=1, spec={}, fingerprint="f")
        job.transition("running")
        job.transition("done")
        with pytest.raises(ServiceError, match="illegal transition"):
            job.transition("running")

    def test_queue_holds_follower_until_primary_terminal(self):
        jobs = {
            "p": Job(job_id="p", seq=1, spec={}, fingerprint="f"),
            "f1": Job(job_id="f1", seq=2, spec={}, fingerprint="f",
                      dedup_of="p"),
        }
        queue = JobQueue(jobs)
        queue.put("p")
        queue.put("f1")
        assert queue.get(timeout=0.1) == "p"
        # primary still queued/running: the follower must wait
        assert queue.get(timeout=0.05) is None
        jobs["p"].transition("running")
        jobs["p"].transition("done")
        queue.wake()
        assert queue.get(timeout=0.1) == "f1"

    def test_queue_drops_cancelled_entries(self):
        jobs = {"a": Job(job_id="a", seq=1, spec={}, fingerprint="x")}
        queue = JobQueue(jobs)
        queue.put("a")
        assert queue.remove("a") is True
        jobs["a"].transition("cancelled")
        assert queue.get(timeout=0.05) is None

    def test_events_sequence_monotone(self):
        job = Job(job_id="j", seq=1, spec={}, fingerprint="f")
        job.add_event("queued")
        job.add_event("progress", done=1)
        job.add_event("done")
        events = list(job.events_from(0))
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[-1]["event"] == "done"


# ---------------------------------------------------------------------------
# governor
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(2, 1.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] = 1.0  # one second -> one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        now = [0.0]
        bucket = TokenBucket(3, 10.0, clock=lambda: now[0])
        now[0] = 100.0
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_zero_refill_never_recovers(self):
        now = [0.0]
        bucket = TokenBucket(1, 0.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        now[0] = 1e6
        assert not bucket.try_acquire()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1, -1.0)


# ---------------------------------------------------------------------------
# service end-to-end (in-process engine, no HTTP)
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    svc = JobService(tmp_path / "state", workers=2)
    svc.start()
    yield svc
    svc.stop()


class TestServiceEngine:
    def test_submit_run_records(self, service):
        snap = service.submit(SWEEP_SPEC)
        assert snap["state"] == "queued"
        events = list(service.get_job(snap["job_id"]).events_from(0))
        assert events[-1]["event"] == "done"
        percents = [e["percent"] for e in events if e["event"] == "progress"]
        assert percents == sorted(percents) and percents[-1] == 100.0

        # records byte-identical to a direct Study render of the same spec
        study = spec_to_study(validate_spec(SWEEP_SPEC))
        direct = study.run(cache=ResultCache(service.cache.cache_dir))
        assert service.records_text(snap["job_id"]) == direct.to_json_text()
        assert service.records_text(snap["job_id"], "csv") == direct.to_csv_text()

    def test_dry_run_creates_no_job(self, service):
        out = service.submit(SWEEP_SPEC, dry_run=True)
        assert out["dry_run"] is True
        assert out["total"] == 2
        assert all(not row["cached"] for row in out["configs"])
        assert service.list_jobs() == []

    def test_duplicate_submission_shares_execution(self, service):
        first = service.submit(SWEEP_SPEC, client="a")
        second = service.submit(SWEEP_SPEC, client="b")
        assert second["dedup_of"] == first["job_id"]
        f1 = list(service.get_job(first["job_id"]).events_from(0))
        f2 = list(service.get_job(second["job_id"]).events_from(0))
        assert f1[-1]["event"] == "done" and f2[-1]["event"] == "done"
        primary = service.get_job(first["job_id"])
        follower = service.get_job(second["job_id"])
        assert primary.simulated == 2 and primary.cached == 0
        # the follower replays entirely from the shared cache: stores do
        # not double
        assert follower.simulated == 0 and follower.cached == 2
        assert service.cache.stores == 2

    def test_different_shards_are_not_duplicates(self, tmp_path):
        """Each shard of one study is its own work: only a resubmitted
        shard spec dedups against it."""
        spec = {
            "base": {"platform": "toy", "benchmark": "syncbench", "runs": 1},
            "axes": [{"kind": "grid",
                      "axes": {"num_threads": [1, 2, 3, 4, 6, 8]}}],
            "reps": 2,
        }
        svc = JobService(tmp_path / "state", workers=2)
        # submitted before the workers start, so all three are in flight
        one = svc.submit({**spec, "shard": "1/3"})
        two = svc.submit({**spec, "shard": "2/3"})
        again = svc.submit({**spec, "shard": "2/3"})
        svc.start()
        try:
            jobs = [svc.get_job(s["job_id"]) for s in (one, two, again)]
            for job in jobs:
                list(job.events_from(0))
                assert job.state == "done"
        finally:
            svc.stop()
        assert one["fingerprint"] != two["fingerprint"]
        assert one["dedup_of"] is None and two["dedup_of"] is None
        assert again["fingerprint"] == two["fingerprint"]
        assert again["dedup_of"] == two["job_id"]
        assert svc.metrics.counter("service_jobs_deduped").value == 1
        # each shard simulated the configs it owns; the follower replayed
        # its primary's from the shared cache
        configs = spec_to_study(validate_spec(spec)).configs()
        owned = [len(shard_members(configs, (i, 3))) for i in (1, 2)]
        assert [jobs[0].simulated, jobs[1].simulated] == owned
        assert jobs[2].simulated == 0 and jobs[2].cached == owned[1]

    def test_records_unavailable_before_done(self, tmp_path):
        svc = JobService(tmp_path / "state")  # governor never started
        snap = svc.submit(SWEEP_SPEC)
        with pytest.raises(ServiceError, match="no records"):
            svc.records_text(snap["job_id"])
        with pytest.raises(ServiceError, match="unknown job"):
            svc.get_job("j9999-nope")
        with pytest.raises(ServiceError, match="format"):
            svc.records_text(snap["job_id"], "parquet")

    def test_cancel_queued_job(self, tmp_path):
        svc = JobService(tmp_path / "state")  # governor never started
        snap = svc.submit(SWEEP_SPEC)
        out = svc.cancel(snap["job_id"])
        assert out["state"] == "cancelled"
        with pytest.raises(ServiceError, match="cannot be cancelled"):
            svc.cancel(snap["job_id"])

    @pytest.mark.parametrize("terminal", ["done", "failed", "cancelled"])
    def test_terminal_event_arrives_with_terminal_state(
        self, tmp_path, monkeypatch, terminal
    ):
        """A subscriber that checks in right after the terminal transition,
        here from inside the save that follows it, still gets the event."""
        svc = JobService(tmp_path / "state", workers=1)
        seen = {}
        save = svc.store.save

        def subscribing_save(job):
            if job.terminal:
                seen[job.state] = [e["event"] for e in job.events_from(0)]
            save(job)

        monkeypatch.setattr(svc.store, "save", subscribing_save)
        spec = SWEEP_SPEC
        if terminal == "failed":  # validates, then fails when it runs
            spec = {**SWEEP_SPEC, "base": {
                **SWEEP_SPEC["base"], "benchmark_params": {"outer_reps": 2.5},
            }}
        snap = svc.submit(spec)
        if terminal == "cancelled":
            svc.cancel(snap["job_id"])
        else:
            svc.start()
        try:
            list(svc.get_job(snap["job_id"]).events_from(0))
        finally:
            svc.stop()
        assert list(seen) == [terminal]
        assert seen[terminal][-1] == terminal

    def test_restart_recovers_history(self, tmp_path):
        svc = JobService(tmp_path / "state", workers=1)
        svc.start()
        snap = svc.submit(SWEEP_SPEC)
        list(svc.get_job(snap["job_id"]).events_from(0))
        svc.stop()
        reborn = JobService(tmp_path / "state")
        assert reborn.get_job(snap["job_id"]).state == "done"
        # next submission continues the ordinal sequence
        again = reborn.submit(SWEEP_SPEC)
        assert again["seq"] == snap["seq"] + 1


# ---------------------------------------------------------------------------
# service end-to-end over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_service(tmp_path):
    svc = JobService(
        tmp_path / "state", workers=2,
        rate_capacity=50.0, rate_refill_per_sec=50.0,
    )
    svc.start()
    server = create_http_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield svc, ServiceClient(url, client_id="pytest")
    server.shutdown()
    server.server_close()
    svc.stop()


class TestHTTP:
    def test_full_job_cycle(self, http_service):
        svc, client = http_service
        assert client.healthz()["ok"] is True
        snap = client.submit(SWEEP_SPEC)
        final = client.wait(snap["job_id"], timeout=120)
        assert final["state"] == "done"
        assert final["progress"]["simulated"] == 2

        study = spec_to_study(validate_spec(SWEEP_SPEC))
        direct = study.run(cache=ResultCache(svc.cache.cache_dir))
        assert client.records(snap["job_id"]) == direct.to_json_text()
        assert client.records(snap["job_id"], "csv") == direct.to_csv_text()

        listed = client.jobs()
        assert [j["job_id"] for j in listed] == [snap["job_id"]]
        metrics = client.metrics()
        assert metrics["jobs_by_state"] == {"done": 1}

    def test_sse_stream_monotone_with_terminal_event(self, http_service):
        _svc, client = http_service
        snap = client.submit(SWEEP_SPEC)
        events = list(client.events(snap["job_id"]))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        seqs = [e["data"]["seq"] for e in events]
        assert seqs == sorted(seqs)
        percents = [e["data"]["percent"] for e in events
                    if e["event"] == "progress"]
        assert percents == sorted(percents)
        assert all("telemetry" in e["data"] for e in events
                   if e["event"] == "progress")

    def test_bad_spec_rejected_with_field(self, http_service):
        _svc, client = http_service
        with pytest.raises(ServiceError, match="axes\\[0\\].kind"):
            client.submit({"axes": [{"kind": "banana"}]})

    def test_unknown_routes_and_jobs(self, http_service):
        _svc, client = http_service
        with pytest.raises(ServiceError, match="404"):
            client.job("j9999-nope")
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/bogus")

    def test_dry_run_over_http(self, http_service):
        _svc, client = http_service
        out = client.submit(SWEEP_SPEC, dry_run=True)
        assert out["dry_run"] is True
        assert [row["cache_key"] for row in out["configs"]] == [
            cache_key(cfg)
            for cfg in spec_to_study(validate_spec(SWEEP_SPEC)).configs()
        ]

    def test_rate_limit_429(self, tmp_path):
        svc = JobService(
            tmp_path / "state", workers=1,
            rate_capacity=2.0, rate_refill_per_sec=0.0,
        )
        svc.start()
        server = create_http_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            client_id="greedy",
        )
        try:
            client.submit(SWEEP_SPEC, dry_run=True)
            client.submit(SWEEP_SPEC, dry_run=True)
            with pytest.raises(ServiceError, match="429"):
                client.submit(SWEEP_SPEC, dry_run=True)
        finally:
            server.shutdown()
            server.server_close()
            svc.stop()


class TestSSEParser:
    def test_parse_frames(self):
        raw = (b"event: progress\n"
               b"data: {\"done\": 1}\n"
               b"\n"
               b": a comment\n"
               b"event: done\n"
               b"data: {\"done\": 2}\n"
               b"\n")
        events = list(parse_sse(iter(raw.splitlines(keepends=True))))
        assert events == [
            {"event": "progress", "data": {"done": 1}},
            {"event": "done", "data": {"done": 2}},
        ]
