"""Tests for the experiment harness (config, runner, results, logger)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, HarnessError
from repro.harness import (
    ExperimentConfig,
    ExperimentResult,
    FrequencyLogger,
    Runner,
)
from repro.harness.report import render_series, render_table, sparkline
from repro.freq.dvfs import FrequencyModel
from repro.freq.governor import PerformanceGovernor
from repro.platform import toy
from repro.rng import RngFactory


QUICK = {"outer_reps": 6}


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.display_label

    def test_omp_environment(self):
        cfg = ExperimentConfig(platform="toy", num_threads=4, proc_bind="close")
        env = cfg.omp_environment()
        assert env.num_threads == 4
        assert env.bound

    def test_unbound(self):
        cfg = ExperimentConfig(proc_bind="false", places=None)
        assert not cfg.omp_environment().bound
        assert "unbound" in cfg.display_label

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_threads=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(proc_bind="sideways")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(schedule="chaotic")

    def test_dict_roundtrip(self):
        cfg = ExperimentConfig(platform="toy", benchmark="schedbench",
                               schedule="dynamic", schedule_chunk=1,
                               benchmark_params={"outer_reps": 3})
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_with_overrides(self):
        cfg = ExperimentConfig().with_overrides(runs=3)
        assert cfg.runs == 3


class TestRunner:
    def test_syncbench_runs(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=3, seed=11, benchmark_params=QUICK,
        )
        result = Runner(cfg).run()
        assert result.n_runs == 3
        assert set(result.labels()) == {"reduction", "reduction.overhead"}
        matrix = result.runs_matrix("reduction")
        assert matrix.shape == (3, 6)
        assert np.all(matrix > 0)

    def test_schedbench_runs(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="schedbench", num_threads=4,
            schedule="dynamic", schedule_chunk=1, runs=2, seed=11,
            benchmark_params={"outer_reps": 3, "itersperthr": 128},
        )
        result = Runner(cfg).run()
        assert result.labels() == ("dynamic_1",)
        assert result.runs_matrix("dynamic_1").shape == (2, 3)

    def test_babelstream_runs(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="babelstream", num_threads=4,
            runs=2, seed=11, benchmark_params={"num_times": 4},
        )
        result = Runner(cfg).run()
        assert set(result.labels()) == {"copy", "mul", "add", "triad", "dot"}

    def test_determinism_across_runners(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=2, seed=99, benchmark_params=QUICK,
        )
        a = Runner(cfg).run().runs_matrix("reduction")
        b = Runner(cfg).run().runs_matrix("reduction")
        np.testing.assert_array_equal(a, b)

    def test_runs_differ_from_each_other(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=2, seed=99, benchmark_params=QUICK,
        )
        matrix = Runner(cfg).run().runs_matrix("reduction")
        assert not np.array_equal(matrix[0], matrix[1])

    def test_seed_changes_results(self):
        base = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=1, seed=1, benchmark_params=QUICK,
        )
        a = Runner(base).run().runs_matrix("reduction")
        b = Runner(base.with_overrides(seed=2)).run().runs_matrix("reduction")
        assert not np.array_equal(a, b)

    def test_freq_logging(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=1, seed=5, benchmark_params=QUICK,
            freq_logging=True, logger_cpu=7,
        )
        result = Runner(cfg).run()
        log = result.records[0].freq_log
        assert log is not None
        assert log.logger_cpu == 7
        assert log.n_samples >= 1
        assert log.freqs_khz.shape[1] == 16  # toy machine cpus

    def test_unknown_benchmark(self):
        cfg = ExperimentConfig(platform="toy", benchmark="syncbench")
        runner = Runner(cfg)
        object.__setattr__(runner.config, "benchmark", "bogus")
        with pytest.raises(HarnessError):
            runner._make_benchmark()

    def test_logger_on_spare_cpu_ok(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=1, seed=5, benchmark_params=QUICK,
            freq_logging=True, logger_cpu=14,
        )
        assert Runner(cfg).run().records[0].freq_log.logger_cpu == 14

    def test_logger_collision_with_bound_team(self):
        # 4 threads bound close on cores occupy CPUs 0-3; CPU 2 collides
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=1, seed=5, benchmark_params=QUICK,
            freq_logging=True, logger_cpu=2,
        )
        with pytest.raises(HarnessError, match=r"collides.*logger_cpu=15"):
            Runner(cfg).run()

    def test_logger_cpu_off_the_machine_fails_at_construction(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=1, seed=5, benchmark_params=QUICK,
            freq_logging=True, logger_cpu=16,
        )
        with pytest.raises(HarnessError, match=r"logger CPU 16 .* \(CPUs 0-15\)"):
            Runner(cfg)

    def test_logger_default_collision_on_saturated_machine(self):
        # 16 threads on the 16-CPU toy machine leave no spare core, so the
        # default last-CPU placement must be rejected rather than silently
        # perturbing the benchmark team
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=16,
            places="threads", runs=1, seed=5, benchmark_params=QUICK,
            freq_logging=True,
        )
        with pytest.raises(HarnessError, match="no CPU is free"):
            Runner(cfg).run()

    def test_planned_cpus_unbound(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            places=None, proc_bind="false", runs=1, seed=5,
            benchmark_params=QUICK,
        )
        assert Runner(cfg).planned_cpus() == ()
        saturated = Runner(cfg.with_overrides(num_threads=16))
        assert saturated.planned_cpus() == tuple(range(16))


class TestExperimentResult:
    def _result(self):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=2, seed=7, benchmark_params=QUICK,
        )
        return Runner(cfg).run()

    def test_report(self):
        rep = self._result().report("reduction")
        assert rep.n_runs == 2
        assert "reduction" in rep.label

    def test_reports_all_labels(self):
        result = self._result()
        assert set(result.reports()) == set(result.labels())

    def test_unknown_label(self):
        with pytest.raises(HarnessError):
            self._result().runs_matrix("nonexistent")

    def test_labels_reject_divergent_records(self):
        import numpy as np
        from repro.harness import RunRecord

        a = RunRecord(run_index=0, series={"x": np.ones(3)})
        b = RunRecord(run_index=1, series={"y": np.ones(3)})
        result = ExperimentResult(
            config=ExperimentConfig(platform="toy", runs=2), records=(a, b)
        )
        with pytest.raises(HarnessError, match="run 1"):
            result.labels()

    def test_json_roundtrip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        result.save(path)
        loaded = ExperimentResult.load(path)
        assert loaded.config == result.config
        np.testing.assert_array_equal(
            loaded.runs_matrix("reduction"), result.runs_matrix("reduction")
        )

    def test_json_roundtrip_with_freqlog(self, tmp_path):
        cfg = ExperimentConfig(
            platform="toy", benchmark="syncbench", num_threads=4,
            runs=1, seed=7, benchmark_params=QUICK, freq_logging=True,
        )
        result = Runner(cfg).run()
        path = tmp_path / "result.json"
        result.save(path)
        loaded = ExperimentResult.load(path)
        assert loaded.records[0].freq_log is not None
        np.testing.assert_array_equal(
            loaded.records[0].freq_log.freqs_khz,
            result.records[0].freq_log.freqs_khz,
        )


class TestFrequencyLogger:
    def test_capture(self):
        plat = toy()
        model = FrequencyModel(plat.machine, plat.freq_spec)
        plan = model.plan(0.0, 1.0, [0, 1], PerformanceGovernor(),
                          RngFactory(1).stream("f"))
        logger = FrequencyLogger(logger_cpu=15, interval=0.05)
        log = logger.capture(plat.freq_spec, plan, "performance", 0.0, 0.5)
        assert log.n_samples == 11  # t=0, 0.05, ..., 0.5
        assert log.freqs_khz.shape == (11, 16)
        assert log.max_freq_ghz() <= 3.0 + 1e-9

    def test_band_occupancy(self):
        plat = toy()
        model = FrequencyModel(plat.machine, plat.freq_spec)
        plan = model.plan(0.0, 1.0, [0, 1], PerformanceGovernor(),
                          RngFactory(1).stream("f"))
        log = FrequencyLogger(15, 0.1).capture(
            plat.freq_spec, plan, "performance", 0.0, 1.0
        )
        assert log.band_occupancy(10.0) == 1.0  # everything below 10 GHz
        assert log.band_occupancy(0.1) == 0.0

    def test_validation(self):
        with pytest.raises(HarnessError):
            FrequencyLogger(0, interval=0.0)
        plat = toy()
        model = FrequencyModel(plat.machine, plat.freq_spec)
        plan = model.plan(0.0, 1.0, [0], PerformanceGovernor(),
                          RngFactory(1).stream("f"))
        with pytest.raises(HarnessError):
            FrequencyLogger(0, 0.01).capture(plat.freq_spec, plan, "x", 1.0, 1.0)


class TestReportHelpers:
    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 2], [30, 40]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "30" in lines[-1]

    def test_sparkline(self):
        assert sparkline([1, 2, 3]) == "▁▅█"
        assert sparkline([]) == ""
        assert sparkline([2, 2]) == "▁▁"

    def test_render_series(self):
        text = render_series("lbl", [1, 2], [3.0, 4.0], unit="us")
        assert "lbl" in text and "us" in text and "1:3" in text
