"""Batch invariance: how runs are grouped never changes what they compute.

The runner groups a config's runs into execution batches from the config
alone (:func:`repro.harness.runner.run_batches`): every run of a bound,
untraced region benchmark shares one batch on the region executor's rep
axis, while unbound, traced and taskbench runs execute one run per
batch.  The contract under test (docs/performance.md): any grouping
gives **byte-identical** records — the whole-config batch equals the
per-run batches of one, the process pool and traced execution.  The lock
is enforced at three levels:

* primitives — :class:`~repro.rng.RepStreams` rows are bit-equal to the
  per-run streams, and :class:`~repro.sim.intervals.IntervalBatch` rows
  equal per-set overlap and an exact integer oracle in any grouping;
* whole runs — batched vs per-run execution across benchmark shapes,
  plus the registered-experiment golden files rendered with one run per
  batch;
* plumbing — the batch-unit rule, backend provenance, the retired
  ``fused`` knob and job-spec field, and the job-spec ``backend`` field,
  accepted and ignored for one version.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_kwargs import GOLDEN_KWARGS
from repro.cli import main
from repro.errors import ConfigurationError, JobSpecError
from repro.harness import ExperimentConfig, Study, Sweep
from repro.harness.backend import ProcessPoolBackend, SerialBackend
from repro.harness.experiments import EXPERIMENTS
from repro.harness.results import ExperimentResult
from repro.harness.runner import Runner, run_batches
from repro.obs.tracer import SpanTracer
from repro.rng import RepStreams, RngFactory
from repro.sched.model import SchedulerModel
from repro.serve import JobService
from repro.serve.jobspec import spec_fingerprint, spec_to_study, validate_spec
from repro.sim.intervals import IntervalBatch, IntervalSet
from repro.units import to_sim_ns

#: Benchmarks that execute on the region executor.
REGION_BENCHMARKS = ("babelstream", "schedbench", "syncbench")


def per_run(cfg: ExperimentConfig) -> ExperimentResult:
    """*cfg* executed as batches of one run each."""
    runner = Runner(cfg)
    records = tuple(runner.run_one(run) for run in range(cfg.runs))
    return ExperimentResult(config=cfg, records=records)


class PerRunBackend(SerialBackend):
    """In-process backend that executes every run as its own batch."""

    def execute(self, pending, metrics=None):
        return [(per_run(cfg), 0.0) for cfg, _key in pending]


def rep_streams(factory: RngFactory, n_reps: int, *path) -> RepStreams:
    """Run ``r``'s stream for *path* in row ``r``, as the benchmarks build
    their rep-axis streams."""
    return RepStreams(
        tuple(factory.child("run", r).stream(*path) for r in range(n_reps))
    )


class TestRepStreams:
    """Rep-axis RNG fan-out: row r == the run-r stream."""

    def test_rows_bit_equal_scalar_run_streams(self):
        reps = rep_streams(RngFactory(42), 5, "noise", "cpu", 3)
        batched = reps.random(8)
        assert batched.shape == (5, 8)
        for r in range(5):
            scalar = RngFactory(42).stream("run", r, "noise", "cpu", 3)
            # bit-equality, not closeness: same generator, same draw order
            assert np.array_equal(batched[r], scalar.random(8))

    @pytest.mark.parametrize(
        "method, kwargs",
        [
            ("random", {}),
            ("uniform", dict(low=0.25, high=4.0)),
            ("lognormal", dict(mean=-1.0, sigma=0.5)),
            ("normal", dict(loc=2.0, scale=0.125)),
        ],
    )
    def test_every_distribution_preserves_draw_order(self, method, kwargs):
        reps = rep_streams(RngFactory(7), 3, "span")
        batched = getattr(reps, method)(size=4, **kwargs)
        for r in range(3):
            g = RngFactory(7).stream("run", r, "span")
            assert np.array_equal(batched[r], getattr(g, method)(size=4, **kwargs))

    def test_consuming_a_draw_advances_every_row_in_lockstep(self):
        reps = rep_streams(RngFactory(9), 2, "x")
        reps.random(3)  # discarded, but each row advanced by 3 variates
        second = reps.random(2)
        for r in range(2):
            g = RngFactory(9).stream("run", r, "x")
            g.random(3)
            assert np.array_equal(second[r], g.random(2))


def oracle_ns(s: IntervalSet, a: float, b: float) -> int:
    """Brute-force overlap: every interval's clamped contribution, summed
    exactly in integer nanoseconds."""
    lo, hi = to_sim_ns(a), to_sim_ns(b)
    return sum(
        max(0, min(end, hi) - max(start, lo))
        for start, end in zip(s.starts.tolist(), s.ends.tolist())
    )


#: Noise-like rows: up to 8 events in a 1 ms window, empty rows included.
event_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e-3),
        st.floats(min_value=0.0, max_value=5e-5),
    ),
    max_size=8,
).map(lambda evs: IntervalSet.from_pairs((s, s + d) for s, d in evs))
#: Window ends reach before the first and past the last interval.
window_ends = st.floats(min_value=-1e-4, max_value=1.2e-3)


def plane(sets) -> IntervalBatch:
    """The batch holding each of *sets* as one row, in order."""
    sets = list(sets)
    rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    starts = np.concatenate([s.starts for s in sets])
    ends = np.concatenate([s.ends for s in sets])
    return IntervalBatch(len(sets), rows, starts, ends)


class TestIntervalBatch:
    """Prefix-sum overlap of the flat plane against an exact integer oracle."""

    def _sets(self):
        rng = np.random.default_rng(11)
        sets = [IntervalSet.empty()]
        for n in (1, 2, 7, 7, 40):  # mixed lengths
            starts = np.sort(rng.random(n) * 100.0)
            sets.append(IntervalSet(starts, starts + rng.random(n) * 0.5))
        return sets

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, 100.0), (13.0, 13.5), (50.0, 50.0), (60.0, 40.0), (-5.0, 0.0)],
    )
    def test_overlap_fused_bitwise_equals_scalar(self, a, b):
        sets = self._sets()
        batch = plane(sets)
        fused = batch.overlap_fused(
            np.full(len(sets), a), np.full(len(sets), b)
        )
        for k, s in enumerate(sets):
            assert fused[k] == s.overlap(a, b)  # exact, not approx
            assert fused[k] == oracle_ns(s, a, b) / 1e9

    def test_per_row_windows(self):
        sets = self._sets()
        batch = plane(sets)
        a = np.linspace(0.0, 90.0, len(sets))
        b = a + np.linspace(0.5, 30.0, len(sets))
        fused = batch.overlap_fused(a, b)
        for k, s in enumerate(sets):
            assert fused[k] == s.overlap(float(a[k]), float(b[k]))

    def test_len(self):
        assert len(plane(self._sets())) == 6

    @given(data=st.data(), rows=st.lists(event_rows, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_scalar_and_any_grouping(self, data, rows):
        a = np.asarray(data.draw(st.lists(window_ends, min_size=len(rows), max_size=len(rows))))
        b = np.asarray(data.draw(st.lists(window_ends, min_size=len(rows), max_size=len(rows))))
        fused = plane(rows).overlap_fused(a, b)
        for k, s in enumerate(rows):
            assert fused[k] == oracle_ns(s, a[k], b[k]) / 1e9
            assert fused[k] == s.overlap(float(a[k]), float(b[k]))
        # any subset of the rows, in any order, answers each row alike
        pick = data.draw(st.permutations(range(len(rows))))
        pick = pick[: data.draw(st.integers(min_value=1, max_value=len(rows)))]
        again = plane(rows[k] for k in pick).overlap_fused(a[pick], b[pick])
        assert again.tolist() == fused[pick].tolist()

    def test_events_merged_by_quantization_count_once(self):
        # disjoint as floats; the first end rounds up and the second start
        # rounds down onto the same nanosecond, so the two merge
        first = (1e-6, 1.0106e-6)
        second = (1.0114e-6, 1.0164e-6)
        assert first[1] < second[0]
        assert first[1] * 1e9 < to_sim_ns(first[1]) == to_sim_ns(second[0]) < second[0] * 1e9
        s = IntervalSet.from_pairs([first, second])
        assert list(zip(s.starts.tolist(), s.ends.tolist())) == [(1000, 1016)]
        assert s.overlap(0.0, 1.0) == oracle_ns(s, 0.0, 1.0) / 1e9 == 16e-9
        assert s.overlap(1.011e-6, 1.012e-6) == 1e-9
        fused = plane([s, IntervalSet.empty()]).overlap_fused(
            np.array([0.0, 0.0]), np.array([1.0, 1.0])
        )
        assert fused.tolist() == [16e-9, 0.0]


class TestEligibility:
    """The batch-unit rule: which runs share a batch, from the config alone."""

    def test_taskbench_is_rep_coupled(self):
        cfg = ExperimentConfig(benchmark="taskbench", runs=3)
        assert run_batches(cfg) == [(0,), (1,), (2,)]

    def test_unknown_benchmark_has_no_formulation(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            ExperimentConfig(benchmark="mystery")

    def test_unbound_teams_are_ineligible(self):
        cfg = ExperimentConfig(proc_bind="false", places=None, runs=2)
        assert run_batches(cfg) == [(0,), (1,)]

    @pytest.mark.parametrize("name", REGION_BENCHMARKS)
    def test_bound_fused_benchmarks_are_eligible(self, name):
        cfg = ExperimentConfig(benchmark=name, runs=3)
        assert run_batches(cfg) == [(0, 1, 2)]
        assert Runner(cfg).batches() == [(0, 1, 2)]

    def test_run_fused_refuses_enabled_tracer(self):
        runner = Runner(ExperimentConfig(runs=2), tracer=SpanTracer())
        assert runner.batches() == [(0,), (1,)]
        with pytest.raises(ConfigurationError, match="one run per batch"):
            runner.run_batch((0, 1))

    def test_run_fused_refuses_ineligible_config(self):
        runner = Runner(ExperimentConfig(benchmark="taskbench", runs=2))
        with pytest.raises(ConfigurationError, match="one run per batch"):
            runner.run_batch((0, 1))


#: Invariance shapes: one per region benchmark, plus the wrinkles that
#: exercise distinct code paths (freq logging, llvm/passive wait spinning,
#: SMT sibling pressure, non-static schedules, unbound re-placement,
#: BabelStream migrations, the tasking engine).
IDENTITY_SHAPES = {
    "syncbench": dict(
        benchmark="syncbench", platform="vera", num_threads=4, runs=3,
        benchmark_params={"outer_reps": 4},
    ),
    "syncbench-llvm-passive": dict(
        benchmark="syncbench", platform="vera", num_threads=4, runs=3,
        runtime="llvm", wait_policy="passive",
        benchmark_params={"outer_reps": 3},
    ),
    "syncbench-freqlog": dict(
        benchmark="syncbench", platform="vera", num_threads=2, runs=2,
        freq_logging=True, benchmark_params={"outer_reps": 3},
    ),
    "schedbench-dynamic": dict(
        benchmark="schedbench", platform="vera", num_threads=4, runs=3,
        schedule="dynamic", schedule_chunk=1,
        benchmark_params={"outer_reps": 3},
    ),
    "babelstream-smt": dict(
        benchmark="babelstream", platform="dardel", num_threads=16, runs=2,
        places="threads", benchmark_params={"num_times": 4},
    ),
    "syncbench-unbound": dict(
        benchmark="syncbench", platform="vera", num_threads=8, runs=2,
        proc_bind="false", places=None,
        benchmark_params={"outer_reps": 4, "constructs": ["parallel", "critical"]},
    ),
    "babelstream-unbound": dict(
        benchmark="babelstream", platform="vera", num_threads=16, runs=2,
        proc_bind="false", places=None, benchmark_params={"num_times": 30},
    ),
    "taskbench": dict(
        benchmark="taskbench", platform="vera", num_threads=4, runs=2,
        benchmark_params={"outer_reps": 3},
    ),
}


class TestRunFusedByteIdentity:
    @pytest.mark.parametrize("shape", sorted(IDENTITY_SHAPES))
    def test_fused_equals_scalar(self, shape):
        cfg = ExperimentConfig(**IDENTITY_SHAPES[shape])
        assert Runner(cfg).run().to_dict() == per_run(cfg).to_dict()

    @pytest.mark.parametrize("shape", sorted(IDENTITY_SHAPES))
    def test_traced_execution_matches(self, shape):
        cfg = ExperimentConfig(**IDENTITY_SHAPES[shape])
        traced = Runner(cfg, tracer=SpanTracer()).run()
        assert traced.to_dict() == Runner(cfg).run().to_dict()

    def test_pool_matches_serial(self):
        configs = [ExperimentConfig(**kw) for _, kw in sorted(IDENTITY_SHAPES.items())]
        pooled = Sweep(backend=ProcessPoolBackend(2)).run(configs)
        assert [r.to_dict() for r in pooled] == [
            Runner(cfg).run().to_dict() for cfg in configs
        ]

    def test_unbound_babelstream_shape_migrates(self, monkeypatch):
        sampled = []
        original = SchedulerModel.sample_migrations

        def spy(self, *args, **kwargs):
            events = original(self, *args, **kwargs)
            sampled.append(len(events))
            return events

        monkeypatch.setattr(SchedulerModel, "sample_migrations", spy)
        Runner(ExperimentConfig(**IDENTITY_SHAPES["babelstream-unbound"])).run()
        assert len(sampled) == 2 and min(sampled) > 0


class TestBackends:
    BASE = ExperimentConfig(
        platform="vera", num_threads=2, runs=2,
        benchmark_params={"outer_reps": 3},
    )

    def test_fused_backend_matches_serial_and_stamps_provenance(self):
        study = Study(self.BASE).grid(num_threads=[2, 4])
        serial = study.run()
        assert [r.to_dict() for r in serial.results] == [
            per_run(cfg).to_dict() for cfg in study.configs()
        ]
        records = [rec for res in serial.results for rec in res.records]
        assert {rec.worker_id for rec in records} == {"main"}
        assert all(rec.wall_seconds is not None for rec in records)

    def test_ineligible_configs_fall_back_to_scalar(self):
        cfg = ExperimentConfig(benchmark="taskbench", runs=2)
        result = Study(cfg).run()[0]
        assert result.to_dict() == per_run(cfg).to_dict()
        assert {rec.worker_id for rec in result.records} == {"main"}

    def test_auto_mode_skips_single_run_configs(self):
        cfg = ExperimentConfig(runs=1, benchmark_params={"outer_reps": 2})
        assert run_batches(cfg) == [(0,)]
        assert Study(cfg).run()[0].to_dict() == per_run(cfg).to_dict()

    def test_study_run_fused_knob(self, capsys):
        """The ``fused`` knob is gone end to end: batching is automatic."""
        study = Study(self.BASE)
        with pytest.raises(TypeError):
            study.run(fused="on")
        with pytest.raises(TypeError):
            Sweep(fused="on")
        with pytest.raises(TypeError):
            ProcessPoolBackend(2, fused="on")
        with pytest.raises(SystemExit):
            main(["run", "--platform", "vera", "--fused", "on"])
        assert "--fused" in capsys.readouterr().err


class TestGoldenLockFused:
    """Every registered experiment, rendered with one run per batch,
    reproduces the committed golden files byte-for-byte — the same lock
    the default whole-config batches answer to in test_study.py."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_KWARGS))
    def test_driver_matches_golden_under_fused_backend(self, name):
        golden = (Path(__file__).parent / "golden" / f"{name}.txt").read_text()
        spec, kwargs = EXPERIMENTS[name], GOLDEN_KWARGS[name]
        result = spec.build_study(**kwargs).run(backend=PerRunBackend())
        assert spec.render(result, **kwargs).render() + "\n" == golden

    def test_lock_covers_every_registered_driver(self):
        assert set(GOLDEN_KWARGS) == set(EXPERIMENTS)


def _job_spec(**extra) -> dict:
    return {
        "base": {"platform": "vera", "runs": 2, "seed": 5},
        "axes": [{"kind": "grid", "axes": {"num_threads": [2, 4]}}],
        "reps": 3,
        **extra,
    }


class TestJobSpecFused:
    """The retired ``fused`` job-spec field is an unknown key; job files
    that still carry it keep loading."""

    def test_bogus_fused_mode_is_rejected(self):
        # every mode is bogus now, including the ones it used to accept
        for mode in ("auto", "on", "off", "sometimes"):
            with pytest.raises(JobSpecError, match="'fused': unknown key"):
                validate_spec(_job_spec(fused=mode))

    def test_persisted_job_with_fused_field_recovers(self, tmp_path):
        state = tmp_path / "state"
        svc = JobService(state, workers=1)
        svc.start()
        snap = svc.submit(_job_spec())
        list(svc.get_job(snap["job_id"]).events_from(0))
        records = svc.records_text(snap["job_id"])
        svc.stop()
        # the job file as a service that still honoured the field stored it
        path = state / "jobs" / f"{snap['job_id']}.json"
        data = json.loads(path.read_text())
        data["spec"]["fused"] = "on"
        path.write_text(json.dumps(data))

        reborn = JobService(state, workers=1)
        reborn.start()
        try:
            job = reborn.get_job(snap["job_id"])
            assert job.state == "done" and job.spec["fused"] == "on"
            assert reborn.records_text(snap["job_id"]) == records
        finally:
            reborn.stop()


class TestJobSpecBackend:
    """The retired ``backend`` job-spec field is an unknown key; job files
    that still carry it keep loading."""

    def test_bogus_backend_is_rejected(self):
        # every value is bogus now, including the ones it used to accept
        for backend in ("auto", "serial", "process", "mpi"):
            with pytest.raises(JobSpecError, match="'backend': unknown key"):
                validate_spec(_job_spec(backend=backend))
            with pytest.raises(JobSpecError, match="'backend': unknown key"):
                validate_spec({"kind": "experiment", "experiment": "table2",
                               "backend": backend})

    def test_persisted_job_with_backend_field_recovers(self, tmp_path):
        state = tmp_path / "state"
        svc = JobService(state, workers=1)
        svc.start()
        snap = svc.submit(_job_spec())
        list(svc.get_job(snap["job_id"]).events_from(0))
        records = svc.records_text(snap["job_id"])
        svc.stop()
        # the job file as a service that still accepted the field stored it
        path = state / "jobs" / f"{snap['job_id']}.json"
        data = json.loads(path.read_text())
        data["spec"]["backend"] = "serial"
        path.write_text(json.dumps(data))

        reborn = JobService(state, workers=1)
        reborn.start()
        try:
            job = reborn.get_job(snap["job_id"])
            assert job.state == "done" and job.spec["backend"] == "serial"
            assert reborn.records_text(snap["job_id"]) == records
        finally:
            reborn.stop()
