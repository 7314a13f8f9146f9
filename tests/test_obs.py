"""Tests for the observability layer: tracing, metrics, OBS001, telemetry.

The contract under test (docs/observability.md):

* tracing off → results byte-identical to a tracer-free build, at one
  boolean test of overhead per episode;
* tracing on → the trace is a pure function of (config, seed): identical
  bytes whether the real execution was serial, pooled, or cache-replayed;
* harness metrics never leak into result artifacts.
"""

import hashlib
import json
import textwrap

import numpy as np
import pytest

from repro.analysis import lint_source
from repro.errors import ReproError
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import Sweep
from repro.harness.report import render_telemetry
from repro.harness.results import RunRecord
from repro.harness.runner import Runner
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    SpanTracer,
    Tracer,
    validate_chrome,
)
from repro.obs.annotate import build_trace, write_trace

QUICK = {"outer_reps": 4}


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="syncbench", num_threads=4,
        runs=2, seed=17, benchmark_params=QUICK,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _task_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="taskbench", num_threads=4,
        runs=2, seed=7, benchmark_params={"outer_reps": 3},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestNullTracer:
    def test_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        # every emission is a no-op
        NULL_TRACER.begin_process(1, "x")
        NULL_TRACER.begin_run(0)
        NULL_TRACER.thread_name(0, "t0")
        NULL_TRACER.span(0, "s", 0.0, 1.0)
        NULL_TRACER.instant(0, "i", 0.0)
        NULL_TRACER.counter("c", 0.0, 1.0)

    def test_satisfies_protocol(self):
        assert isinstance(NULL_TRACER, Tracer)
        assert isinstance(SpanTracer(), Tracer)

    def test_stateless_singleton(self):
        assert not hasattr(NullTracer(), "__dict__")


class TestSpanTracer:
    def test_records_and_counts(self):
        tr = SpanTracer()
        tr.begin_process(0, "cfg")
        tr.span(1, "work", 0.0, 1e-6, cat="sim", args={"k": 1})
        tr.instant(0, "mark", 2e-6)
        tr.counter("depth", 3e-6, 4)
        assert tr.n_events == 3
        assert tr.span_names() == {"work"}

    def test_negative_span_rejected(self):
        tr = SpanTracer()
        with pytest.raises(ReproError):
            tr.span(0, "bad", 2.0, 1.0)

    def test_begin_run_lays_runs_back_to_back(self):
        tr = SpanTracer()
        tr.begin_process(0, "cfg")
        tr.begin_run(0)
        tr.span(0, "a", 0.0, 1e-6)
        tr.begin_run(1)
        tr.span(0, "a", 0.0, 1e-6)
        events = tr.to_chrome()["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        # run 1's span starts strictly after run 0's span ends
        assert spans[1]["ts"] > spans[0]["ts"] + spans[0]["dur"]

    def test_thread_names_first_writer_wins(self):
        tr = SpanTracer()
        tr.begin_process(0, "cfg")
        tr.thread_name(1, "thread 1 (cpu 0)")
        tr.thread_name(1, "thread 1 (cpu 5)")
        meta = [
            e for e in tr.to_chrome()["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert meta[0]["args"]["name"] == "thread 1 (cpu 0)"

    def test_write_is_deterministic_bytes(self, tmp_path):
        def build():
            tr = SpanTracer()
            tr.begin_process(0, "cfg")
            tr.span(2, "b", 0.0, 2e-6)
            tr.span(1, "a", 0.0, 1e-6, args={"x": 1})
            tr.counter("c", 1e-6, 2)
            return tr

        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build().write(p1)
        build().write(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_chrome_payload_validates(self):
        tr = SpanTracer()
        tr.begin_process(0, "cfg")
        tr.thread_name(0, "t0")
        tr.span(0, "s", 0.0, 1e-6)
        tr.instant(0, "i", 0.0, args={"k": "v"})
        tr.counter("c", 0.0, 1.0)
        n = validate_chrome(tr.to_chrome())
        assert n == tr.n_events + 2  # + process_name and thread_name metadata


class TestValidateChrome:
    def test_rejects_empty(self):
        with pytest.raises(ReproError):
            validate_chrome({})
        with pytest.raises(ReproError):
            validate_chrome({"traceEvents": []})

    def test_rejects_missing_keys(self):
        with pytest.raises(ReproError, match="lacks"):
            validate_chrome({"traceEvents": [{"ph": "X", "name": "x"}]})

    def test_rejects_bad_phase_and_dur(self):
        ok = {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0, "dur": 1}
        assert validate_chrome({"traceEvents": [ok]}) == 1
        with pytest.raises(ReproError, match="phase"):
            validate_chrome({"traceEvents": [{**ok, "ph": "Z"}]})
        with pytest.raises(ReproError, match="dur"):
            validate_chrome({"traceEvents": [{**ok, "dur": -1}]})

    def test_rejects_valueless_counter(self):
        bad = {"ph": "C", "name": "c", "pid": 0, "tid": 0, "ts": 0}
        with pytest.raises(ReproError, match="value"):
            validate_chrome({"traceEvents": [bad]})


# ---------------------------------------------------------------------------
# Zero-overhead / determinism contract
# ---------------------------------------------------------------------------


class TestTracingDeterminism:
    def test_traced_results_equal_untraced(self):
        for cfg in (_cfg(), _task_cfg()):
            tr = SpanTracer()
            tr.begin_process(0, cfg.display_label)
            traced = Runner(cfg, tracer=tr).run()
            plain = Runner(cfg).run()
            assert tr.n_events > 0
            for a, b in zip(plain.records, traced.records):
                assert a.labels() == b.labels()
                for k in a.series:
                    assert np.array_equal(a.series[k], b.series[k]), k

    def test_annotation_pass_is_reproducible(self, tmp_path):
        cfgs = [_cfg(runs=1)]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        n1 = write_trace(cfgs, p1)
        n2 = write_trace(cfgs, p2)
        assert n1 == n2 > 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_noise_trace_bytes_are_pinned(self, tmp_path):
        """The trace of an unbound Vera BabelStream run, with tick, irq and
        daemon spans, keeps its bytes: the file that ``repro-omp run
        --platform vera --benchmark babelstream --threads 32 --proc-bind
        false --runs 1 --param num_times=20 --seed 3 --trace PATH``
        writes."""
        cfg = ExperimentConfig(
            platform="vera", benchmark="babelstream", num_threads=32, places=None,
            proc_bind="false", runs=1, seed=3, benchmark_params={"num_times": 20},
        )
        path = tmp_path / "trace.json"
        write_trace([cfg], path)
        noise = {ev["name"] for ev in json.loads(path.read_text())["traceEvents"]
                 if ev.get("cat") == "osnoise"}
        assert noise == {"tick", "irq", "daemon"}
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cf967a367e626b50aa5988b1cc84dfa87513227d10ed6a44d1ff44650d004964"
        )

    def test_trace_mode_independence(self, tmp_path):
        """Serial, pooled, and cache-replayed executions annotate to the
        identical trace bytes (the --trace contract)."""
        from repro.harness.cache import ResultCache

        cfgs = [_cfg(runs=2), _cfg(runs=2, num_threads=2)]
        cache = ResultCache(tmp_path / "cache")

        Sweep(jobs=1).run(cfgs)
        p_serial = tmp_path / "serial.json"
        write_trace(cfgs, p_serial)

        Sweep(jobs=2, cache=cache).run(cfgs)
        p_pool = tmp_path / "pool.json"
        write_trace(cfgs, p_pool)

        Sweep(jobs=1, cache=cache).run(cfgs)  # pure replay
        assert cache.hits == len(cfgs)
        p_cached = tmp_path / "cached.json"
        write_trace(cfgs, p_cached)

        assert p_serial.read_bytes() == p_pool.read_bytes() == p_cached.read_bytes()

    def test_trace_covers_the_span_taxonomy(self):
        tracer = build_trace([_task_cfg(runs=1)])
        names = tracer.span_names()
        assert "parallel.fork" in names       # region fork
        assert "parallel.join" in names       # join barrier (top span)
        assert "barrier.gather" in names      # per-round decomposition
        assert "engine.run" in names          # scheduler episode span
        kinds = {"task.body", "deque.pop", "steal", "idle.backoff"}
        assert kinds & names                  # scheduler internals
        # OS-noise tracks exist (tick spans on CPU_TRACK_BASE + cpu tids)
        from repro.obs.tracer import CPU_TRACK_BASE

        events = tracer.to_chrome()["traceEvents"]
        assert any(
            e["ph"] == "X" and e["tid"] >= CPU_TRACK_BASE for e in events
        )

    def test_processes_follow_config_order(self):
        cfgs = [_cfg(runs=1), _cfg(runs=1, num_threads=2)]
        events = build_trace(cfgs).to_chrome()["traceEvents"]
        procs = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {
            0: cfgs[0].display_label, 1: cfgs[1].display_label,
        }


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(2)
        assert reg.counter("hits").value == 3
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(4)
        h = reg.histogram("wall")
        h.observe(1.0)
        h.observe(3.0)
        assert reg.gauge("workers").value == 4.0
        assert (h.count, h.total, h.minimum, h.maximum, h.mean) == (2, 4.0, 1.0, 3.0, 2.0)

    def test_labels_separate_instruments(self):
        reg = MetricsRegistry()
        reg.counter("n", axis="threads").inc()
        reg.counter("n", axis="runtime").inc(5)
        assert reg.counter("n", axis="threads").value == 1
        assert reg.counter("n", axis="runtime").value == 5
        assert len(reg) == 2

    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("hits", cache="disk").inc(7)
        reg.gauge("workers").set(3)
        reg.histogram("wall", phase="run").observe(0.5)
        reg.histogram("empty")  # created but never observed
        data = json.loads(json.dumps(reg.to_dict()))
        back = MetricsRegistry.from_dict(data)
        assert back.to_dict() == reg.to_dict()
        assert back.counter("hits", cache="disk").value == 7
        h = back.histogram("wall", phase="run")
        assert (h.count, h.total) == (1, 0.5)

    def test_empty_histogram_serializes_null_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        entry = reg.to_dict()["histograms"][0]
        assert entry["min"] is None and entry["max"] is None


# ---------------------------------------------------------------------------
# Harness wiring: worker stamping, sweep metrics, telemetry rendering
# ---------------------------------------------------------------------------


class TestWorkerStamping:
    def test_serial_sweep_stamps_main(self):
        res = Sweep(jobs=1).run([_cfg(runs=2)])[0]
        for rec in res.records:
            assert rec.worker_id == "main"
            assert rec.wall_seconds is not None and rec.wall_seconds >= 0

    def test_pool_sweep_stamps_worker_pids(self):
        res = Sweep(jobs=2).run([_cfg(runs=2)])[0]
        for rec in res.records:
            assert rec.worker_id is not None and rec.worker_id.startswith("pid")
            assert rec.wall_seconds is not None and rec.wall_seconds >= 0

    def test_stamps_excluded_from_dict(self):
        from repro.harness.results import ExperimentResult

        cfg = _cfg(runs=1)
        plain = ExperimentResult(
            config=cfg,
            records=(RunRecord(run_index=0, series={"a": np.arange(3.0)}),),
        )
        stamped = ExperimentResult(
            config=cfg,
            records=(
                RunRecord(
                    run_index=0, series={"a": np.arange(3.0)},
                    worker_id="pid42", wall_seconds=1.5,
                ),
            ),
        )
        assert plain.to_dict() == stamped.to_dict()
        res_plain = Sweep(jobs=1).run([_cfg(runs=1)])[0]
        direct = Runner(_cfg(runs=1)).run()
        assert res_plain.records[0].worker_id == "main"
        assert direct.records[0].worker_id is None
        assert res_plain.to_dict() == direct.to_dict()
        assert "worker_id" not in json.dumps(res_plain.to_dict())


class TestSweepMetrics:
    def test_counts_and_walls(self, tmp_path):
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        metrics = MetricsRegistry()
        cfgs = [_cfg(runs=2), _cfg(runs=2, num_threads=2)]
        Sweep(jobs=1, cache=cache, metrics=metrics).run(cfgs)
        assert metrics.counter("configs_total").value == 2
        assert metrics.counter("configs_simulated").value == 2
        assert metrics.counter("cache_misses").value == 2
        assert metrics.counter("cache_stores").value == 2
        assert metrics.histogram("run_wall_seconds").count == 4
        assert metrics.histogram("config_wall_seconds").count == 2
        assert metrics.gauge("pool_workers").value == 1

        replay = MetricsRegistry()
        Sweep(jobs=1, cache=cache, metrics=replay).run(cfgs)
        assert replay.counter("cache_hits").value == 2
        assert replay.counter("configs_cached").value == 2
        assert replay.counter("configs_simulated").value == 0

    def test_pool_utilization_recorded(self):
        metrics = MetricsRegistry()
        # one pool task per run batch: the bound config's two runs share
        # one batch, the unbound config's run one per batch
        Sweep(jobs=2, metrics=metrics).run(
            [_cfg(runs=2), _cfg(runs=2, proc_bind="false", places=None)]
        )
        assert 0.0 <= metrics.gauge("pool_utilization").value <= 1.0
        assert metrics.gauge("pool_workers_used").value >= 1
        assert metrics.histogram("queue_wait_seconds").count == 3

    def test_study_axis_walls(self):
        from repro.harness.study import Study

        metrics = MetricsRegistry()
        study = Study(_cfg(runs=1)).grid(num_threads=[2, 4])
        study.run(jobs=1, metrics=metrics)
        h2 = metrics.histogram("axis_wall_seconds", axis="num_threads", value=2)
        h4 = metrics.histogram("axis_wall_seconds", axis="num_threads", value=4)
        assert h2.count == 1 and h4.count == 1

    def test_metrics_do_not_change_results(self):
        cfgs = [_cfg(runs=2)]
        with_metrics = Sweep(jobs=1, metrics=MetricsRegistry()).run(cfgs)[0]
        without = Sweep(jobs=1).run(cfgs)[0]
        assert with_metrics.to_dict() == without.to_dict()


class TestRenderTelemetry:
    def test_renders_sections(self):
        reg = MetricsRegistry()
        reg.counter("cache_hits").inc(3)
        reg.gauge("pool_workers").set(4)
        reg.histogram("run_wall_seconds", worker="main").observe(0.25)
        text = render_telemetry(reg)
        assert "harness telemetry" in text
        assert "cache_hits" in text
        assert "run_wall_seconds{worker=main}" in text

    def test_empty_registry(self):
        assert "no metrics" in render_telemetry(MetricsRegistry())


# ---------------------------------------------------------------------------
# Bench trajectory (append-only history)
# ---------------------------------------------------------------------------


class TestBenchTrajectory:
    REPORT1 = {
        "schema": 1, "quick": True,
        "figure8_smoke": {"events": 1080, "events_per_sec": 100},
    }
    REPORT2 = {
        "schema": 1, "quick": True,
        "figure8_smoke": {"events": 1080, "events_per_sec": 120},
    }

    def test_history_is_append_only(self, tmp_path):
        from repro.sim.bench import write_report

        out = tmp_path / "BENCH.json"
        write_report(dict(self.REPORT1), out, stamp="r1")
        write_report(dict(self.REPORT2), out, stamp="r2")
        report3 = write_report(dict(self.REPORT1), out)

        data = json.loads(out.read_text())
        assert data == report3
        traj = data["trajectory"]
        assert [e.get("stamp") for e in traj] == ["r1", "r2"]
        assert traj[0]["figure8_smoke"]["events_per_sec"] == 100
        assert traj[1]["figure8_smoke"]["events_per_sec"] == 120
        # the headline numbers are the fresh run's
        assert data["figure8_smoke"]["events_per_sec"] == 100

    def test_baseline_still_carried(self, tmp_path):
        from repro.sim.bench import write_report

        out = tmp_path / "BENCH.json"
        prior = dict(
            self.REPORT1,
            baseline_pre_overhaul={
                "quick": True, "figure8_smoke": {"events_per_sec": 50},
            },
        )
        out.write_text(json.dumps(prior))
        report = write_report(dict(self.REPORT2), out)
        assert report["baseline_pre_overhaul"]["figure8_smoke"][
            "events_per_sec"] == 50
        assert report["speedup_vs_baseline"] == {
            "figure8_smoke_events_per_sec": 2.4,
        }
        assert len(report["trajectory"]) == 1

    def test_entries_without_rep_fusion_append(self, tmp_path):
        from repro.sim.bench import write_report

        out = tmp_path / "BENCH.json"
        # a report recorded when the bench still measured rep fusion and
        # the deleted event engine's microbenchmarks
        engine = {"callback_events_per_sec": 370096}
        out.write_text(json.dumps(
            dict(self.REPORT1, rep_fusion={"speedup": 2.9}, engine=engine)
        ))
        write_report(dict(self.REPORT2), out, stamp="r2")
        report = write_report(dict(self.REPORT1), out)
        first, second = report["trajectory"]
        assert first["rep_fusion"] == {"speedup": 2.9}
        assert first["engine"] == engine
        assert second["stamp"] == "r2"
        assert "rep_fusion" not in second and "engine" not in second
        assert "rep_fusion" not in report and "engine" not in report


# ---------------------------------------------------------------------------
# OBS001 — guarded trace emission
# ---------------------------------------------------------------------------

SIM = ("repro", "sim", "fake")
HARNESS = ("repro", "harness", "fake")


def obs_findings(source, module_parts=SIM):
    return lint_source(
        textwrap.dedent(source), rule_ids=["OBS001"], module_parts=module_parts
    )


class TestOBS001:
    def test_unguarded_emission_flagged(self):
        out = obs_findings(
            """
            def step(self, tracer, t):
                tracer.span(0, "work", t, t + 1.0)
            """
        )
        assert len(out) == 1
        assert out[0].rule == "OBS001"
        assert "span" in out[0].message

    def test_unguarded_counter_on_attribute_flagged(self):
        out = obs_findings(
            """
            def step(self, t):
                self.tracer.counter("depth", t, 3)
            """
        )
        assert len(out) == 1

    def test_hoisted_bool_guard_accepted(self):
        out = obs_findings(
            """
            def run(self, tracer):
                tracing = tracer.enabled
                for t in range(10):
                    if tracing:
                        tracer.span(0, "ev", t, t + 1)
            """
        )
        assert out == []

    def test_direct_enabled_guard_accepted(self):
        out = obs_findings(
            """
            def run(self):
                if self.tracer.enabled and self.pending:
                    self.tracer.instant(0, "mark", 0.0)
            """
        )
        assert out == []

    def test_guard_return_helper_accepted(self):
        out = obs_findings(
            '''
            def trace_fork(tracer, outcome, t0):
                """Docstrings don't hide the guard."""
                if not tracer.enabled:
                    return 0
                tracer.span(1, "wakeup", t0, t0 + 1.0)
                return 1
            '''
        )
        assert out == []

    def test_non_tracer_receiver_ignored(self):
        out = obs_findings(
            """
            def f(page):
                page.span(0, "css", 0, 1)
            """
        )
        assert out == []

    def test_harness_package_out_of_scope(self):
        out = obs_findings(
            """
            def f(tracer):
                tracer.begin_run(0)
            """,
            module_parts=HARNESS,
        )
        assert out == []

    def test_registered_in_catalog(self):
        from repro.analysis import available_rules

        assert "OBS001" in available_rules()

    def test_instrumented_tree_is_clean(self):
        from repro.analysis import lint_paths

        report = lint_paths(
            [str(__import__("pathlib").Path(__file__).parent.parent / "src")],
            rule_ids=["OBS001"],
        )
        assert report.findings == ()
