"""Tests for the command-line interface."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import JobSpecError
from repro.harness.experiments import get_experiment
from repro.serve.jobspec import validate_spec

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_cli_experiment_never_imports_scipy():
    """Cold start: a CLI experiment in a fresh interpreter leaves scipy
    unloaded (only the significance tests import it)."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['experiment', 'table2', '--runs', '2', '--reps', '3', "
        "'--no-cache']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "vera@30" in proc.stdout


def test_local_commands_leave_the_http_stack_unloaded():
    """``list`` loads no ``repro.serve`` module; ``experiment`` and
    ``sweep`` load the job-spec layer without the HTTP server."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['list']) == 0\n"
        "assert not [m for m in sys.modules if m.startswith('repro.serve')]\n"
        "assert main(['experiment', 'table2', '--runs', '1', '--reps', '2']) == 0\n"
        "assert 'repro.serve.jobspec' in sys.modules\n"
        "assert 'http.server' not in sys.modules, 'http.server was imported'\n"
        "assert 'repro.serve.server' not in sys.modules\n"
        "assert main(['sweep', '--grid', 'num_threads=2,4', '--dry-run']) == 0\n"
        "assert 'http.server' not in sys.modules, 'http.server was imported'\n"
        "assert 'repro.serve.server' not in sys.modules\n"
        "from repro.serve import JobService\n"
        "assert 'repro.serve.server' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_no_event_engine():
    """Neither importing the CLI nor a run with the frequency logger
    loads the retired engine's modules: the logger samples a plain grid."""
    code = (
        "import sys\n"
        "import repro.cli\n"
        "retired = ('repro.sim.engine', 'repro.sim.clock', 'repro.sim.process')\n"
        "assert not [m for m in retired if m in sys.modules]\n"
        "from repro.harness import ExperimentConfig, Runner\n"
        "result = Runner(ExperimentConfig(platform='toy', num_threads=4, runs=1, "
        "freq_logging=True, benchmark_params={'outer_reps': 2})).run()\n"
        "assert result.records[0].freq_log.n_samples > 0\n"
        "assert not [m for m in retired if m in sys.modules]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


#: Simulation-side modules (and the process pool) that a command whose
#: every config hits the cache never needs.
SIMULATION_MODULES = frozenset({
    "repro.platform",
    "repro.harness.runner",
    "repro.bench.epcc.syncbench",
    "repro.bench.babelstream",
    "repro.bench.taskbench",
    "repro.omp.region",
    "repro.omp.runtime",
    "repro.omp.tasking.scheduler",
    "repro.osnoise",
    "repro.sched",
    "repro.topology",
    "repro.freq.dvfs",
    "concurrent.futures.process",
})

#: ``repro-omp ARGV`` in a fresh interpreter; the last stderr line lists
#: every module loaded by the time ``main`` returned.
_CLI_PROBE = (
    "import json, sys\n"
    "import repro.cli\n"
    "code = repro.cli.main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _cli_in_fresh_interpreter(*argv: str) -> tuple[str, set[str]]:
    """(stdout, loaded modules) of ``repro-omp ARGV`` in a new process."""
    proc = _fresh_python("-c", _CLI_PROBE, *argv)
    return proc.stdout, set(json.loads(proc.stderr.splitlines()[-1]))


def _cache_listing(cache_dir: Path) -> dict[str, tuple[bytes, int]]:
    return {
        path.name: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(cache_dir.iterdir())
    }


#: Experiment knobs of the warm-cache tests: small enough to simulate in
#: about a second.
_KNOBS = ("--runs", "1", "--reps", "2")


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """Cold serial figure3 and figure8 runs into one cache: the cache dir,
    and each experiment's (stdout, loaded modules)."""
    cache_dir = tmp_path_factory.mktemp("warm") / "cache"
    cold = {
        name: _cli_in_fresh_interpreter(
            "experiment", name, *_KNOBS, "--cache-dir", str(cache_dir)
        )
        for name in ("figure3", "figure8")
    }
    return cache_dir, cold


def test_cli_import_loads_only_the_result_side():
    """``import repro.cli`` loads NumPy and the result side: no simulation
    module and no process pool, and at most 30 ``repro`` modules."""
    proc = _fresh_python(
        "-c", "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
    )
    loaded = set(json.loads(proc.stdout))
    assert not loaded & SIMULATION_MODULES, sorted(loaded & SIMULATION_MODULES)
    ours = [m for m in loaded if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= 30, sorted(ours)


def test_serial_region_experiment_loads_no_pool_and_no_tasking(warm_cache):
    """A serial figure3 simulates region benchmarks only: it loads the
    runner, but not the process pool, taskbench or the tasking scheduler."""
    _cache_dir, cold = warm_cache
    _stdout, loaded = cold["figure3"]
    assert "repro.harness.runner" in loaded
    assert not loaded & {
        "concurrent.futures.process",
        "repro.bench.taskbench",
        "repro.omp.tasking.scheduler",
    }


@pytest.mark.parametrize("name", ["figure3", "figure8"])
def test_warm_replay_loads_no_simulation_module(warm_cache, name):
    """A fully cached experiment prints the cold run's bytes without
    loading the simulation side, and writes nothing to the cache."""
    cache_dir, cold = warm_cache
    before = _cache_listing(cache_dir)
    stdout, loaded = _cli_in_fresh_interpreter(
        "experiment", name, *_KNOBS, "--cache-dir", str(cache_dir)
    )
    assert stdout == cold[name][0]
    assert not loaded & SIMULATION_MODULES, sorted(loaded & SIMULATION_MODULES)
    assert _cache_listing(cache_dir) == before


def test_one_cache_miss_simulates_only_that_config(warm_cache, tmp_path):
    """With one figure3 entry deleted, the replay loads the runner,
    re-simulates that config alone (the other entries stay untouched, the
    deleted one comes back byte-identical) and prints the same bytes."""
    import shutil

    from repro.harness.cache import ResultCache

    source, cold = warm_cache
    cache_dir = tmp_path / "cache"
    shutil.copytree(source, cache_dir)
    spec = get_experiment("figure3")
    config = spec.build_study(**spec.knobs(1, 2, 42)).configs()[0]
    victim = ResultCache(cache_dir).path_for(config)
    before = _cache_listing(cache_dir)
    victim.unlink()
    stdout, loaded = _cli_in_fresh_interpreter(
        "experiment", "figure3", *_KNOBS, "--cache-dir", str(cache_dir)
    )
    assert stdout == cold["figure3"][0]
    assert "repro.harness.runner" in loaded
    assert "repro.bench.taskbench" not in loaded
    after = _cache_listing(cache_dir)
    assert after.keys() == before.keys()
    for entry, (data, mtime) in after.items():
        assert data == before[entry][0]
        assert (mtime == before[entry][1]) == (entry != victim.name)


def test_lazy_packages_resolve_every_public_name():
    """Importing a package loads none of its modules; every name in its
    ``__all__`` is listed by ``dir()`` and resolves on first access."""
    src = REPO_ROOT / "src"
    packages = sorted(
        ".".join(init.parent.relative_to(src).parts)
        for init in src.glob("repro/**/__init__.py")
    )
    code = (
        "import importlib, json, sys\n"
        f"names = {packages!r}\n"
        "packages = [importlib.import_module(n) for n in names]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.')\n"
        "                and m not in names and m != 'repro._lazy')\n"
        "assert not loaded, loaded\n"
        "for pkg in packages:\n"
        "    assert pkg.__all__, pkg.__name__\n"
        "    missing = set(pkg.__all__) - set(dir(pkg))\n"
        "    assert not missing, (pkg.__name__, missing)\n"
        "    for attr in pkg.__all__:\n"
        "        getattr(pkg, attr)\n"
        "print(len(packages))\n"
    )
    assert int(_fresh_python("-c", code).stdout) == len(packages) >= 16


def test_cli_name_tables_match_what_the_simulation_accepts():
    """The CLI's ``--platform`` / ``--benchmark`` choices are the name
    tables, and the tables name exactly the presets ``get_platform``
    resolves and the benchmarks the runner builds."""
    import repro.platform as platform_module
    from repro.bench.registry import available_benchmarks
    from repro.cli import _build_parser
    from repro.errors import ConfigurationError, HarnessError
    from repro.harness import ExperimentConfig, Runner
    from repro.types import PLATFORMS

    def choices(command: str, dest: str) -> tuple:
        sub = _build_parser()._subparsers._group_actions[0].choices[command]
        (action,) = [a for a in sub._actions if a.dest == dest]
        return tuple(action.choices)

    assert choices("run", "platform") == PLATFORMS
    assert choices("platform", "name") == PLATFORMS
    assert choices("sweep", "benchmark") == available_benchmarks()
    for name in PLATFORMS:
        assert platform_module.get_platform(name).name == name
    with pytest.raises(ConfigurationError):
        platform_module.get_platform("summit")
    for name in available_benchmarks():
        runner = Runner(ExperimentConfig(platform="toy", benchmark=name, runs=1))
        assert runner._bench[0] == name
    with pytest.raises(HarnessError):
        Runner(ExperimentConfig(platform="toy", benchmark="linpack", runs=1))


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dardel" in out and "vera" in out
        assert "syncbench" in out and "taskbench" in out
        assert "table2" in out and "figure7" in out and "figure8" in out
        # the registry's one-line description is shown next to each name
        assert "work-stealing" in out


class TestPlatform:
    def test_describe_dardel(self, capsys):
        assert main(["platform", "dardel"]) == 0
        out = capsys.readouterr().out
        assert "256 hardware threads" in out

    def test_unknown_platform_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["platform", "cray-1"])


class TestExperiment:
    def test_table2_quick(self, capsys):
        assert main(["experiment", "table2", "--runs", "2", "--reps", "5",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "dardel@4" in out
        assert "vera@30" in out

    def test_figure6_quick(self, capsys):
        assert main(["experiment", "figure6", "--runs", "2", "--reps", "6"]) == 0
        out = capsys.readouterr().out
        assert "one-numa" in out and "two-numa" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])

    def test_user_error_names_the_spec_field(self, capsys):
        """An experiment builds its spec like ``run`` and ``sweep`` do,
        so its errors name the spec field too."""
        assert main(["experiment", "table2", "--runs", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: job spec field 'base': runs must be positive\n"
        )


class TestRun:
    def test_run_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        rc = main([
            "run", "--platform", "toy", "--benchmark", "syncbench",
            "--threads", "4", "--runs", "2", "--reps", "5",
            "--out", str(out_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        data = json.loads(out_file.read_text())
        assert data["config"]["platform"] == "toy"
        assert len(data["records"]) == 2

    def test_run_babelstream(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "babelstream",
            "--threads", "4", "--runs", "1", "--reps", "3",
        ])
        assert rc == 0
        assert "triad" in capsys.readouterr().out

    def test_run_unbound(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "schedbench",
            "--threads", "4", "--proc-bind", "false", "--schedule", "dynamic",
            "--chunk", "1", "--runs", "1", "--reps", "3",
        ])
        assert rc == 0
        assert "dynamic_1" in capsys.readouterr().out

    def test_error_path_returns_one(self, capsys):
        # more threads than the toy machine's 16 cpus
        rc = main([
            "run", "--platform", "toy", "--benchmark", "syncbench",
            "--threads", "999", "--runs", "1",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bench_name, param", [
        ("taskbench", "iter_work=nan"),
        ("taskbench", "iter_work=inf"),
        ("syncbench", "delay_time=nan"),
        ("schedbench", "delay_time=nan"),
        ("babelstream", "kernel_gap=nan"),
    ])
    def test_non_finite_param_is_a_user_error(self, capsys, bench_name, param):
        rc = main([
            "run", "--platform", "vera", "--benchmark", bench_name,
            "--threads", "4", "--runs", "1", "--reps", "2", "--param", param,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, name, value", [
        (["run", "--benchmark", "syncbench", "--param", "outer_reps=1e3"],
         "outer_reps", "1000.0"),
        (["run", "--benchmark", "schedbench", "--param", "itersperthr=2.5"],
         "itersperthr", "2.5"),
        (["run", "--benchmark", "taskbench", "--param", "total_iters=64.0"],
         "total_iters", "64.0"),
        (["run", "--benchmark", "syncbench", "--param", "outer_reps=true"],
         "outer_reps", "True"),
        (["run", "--benchmark", "babelstream", "--param", "array_size=1e6"],
         "array_size", "1000000.0"),
        (["sweep", "--benchmark", "syncbench", "--grid", "outer_reps=2.0,3"],
         "outer_reps", "2.0"),
    ])
    def test_non_integer_count_param_is_a_user_error(self, capsys, argv, name, value):
        rc = main(argv + [
            "--platform", "toy", "--threads", "4", "--runs", "1", "--reps", "2",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be an integer, got {value}")
        assert "Traceback" not in err

    def test_run_taskbench_with_params(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "taskbench",
            "--threads", "4", "--runs", "2", "--reps", "3",
            "--noise", "quiet",
            "--param", "grainsize=4", "--param", "total_iters=64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "taskloop_g4" in out
        assert "work-stealing scheduler metrics" in out
        assert "fail rate" in out

    def test_bad_param_returns_one(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "taskbench",
            "--threads", "2", "--runs", "1", "--param", "grainsize",
        ])
        assert rc == 1
        assert "KEY=VALUE" in capsys.readouterr().err


class TestParamCoercion:
    """--param / --grid values coerce numbers, booleans and None."""

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("7", 7),
            ("2.5", 2.5),
            ("true", True),
            ("True", True),
            ("FALSE", False),
            ("none", None),
            ("None", None),
            ("fib", "fib"),
        ],
    )
    def test_coercions(self, raw, expected):
        from repro.cli import _parse_param

        key, value = _parse_param(f"k={raw}")
        assert key == "k"
        assert value == expected and type(value) is type(expected)


class TestSweep:
    def test_grid_sweep_report_and_csv_export(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--platform", "toy", "--runs", "2", "--reps", "4",
            "--grid", "num_threads=2,4", "--grid", "runtime=gnu,llvm",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "4 configuration(s)" in text
        assert "swept axes: num_threads, runtime" in text
        assert "pooled variability by num_threads" in text
        assert "pooled variability by runtime" in text
        lines = out.read_text().splitlines()
        assert lines[0].startswith("platform,benchmark,num_threads,runtime,label")
        assert len(lines) > 1  # non-empty tidy export

    def test_zip_sweep_and_json_export(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--zip", "num_threads=2,4", "--zip", "schedule=static,dynamic",
            "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["axes"] == ["platform", "benchmark", "num_threads", "schedule"]
        assert data["records"]
        swept = {(r["num_threads"], r["schedule"]) for r in data["records"]}
        assert swept == {(2, "static"), (4, "dynamic")}

    def test_group_by_and_label_selection(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4",
            "--group-by", "num_threads", "--label", "reduction.overhead",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "reduction.overhead" in text
        assert "pooled variability by num_threads" in text

    def test_benchmark_param_axis_falls_through(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--benchmark", "taskbench",
            "--threads", "2", "--runs", "1", "--reps", "2",
            "--param", "total_iters=32", "--grid", "grainsize=1,4",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "taskloop_g1" in text and "taskloop_g4" in text

    def test_reps_follows_swept_benchmark_axis(self, capsys):
        # --reps must map to num_times for babelstream configs and to
        # outer_reps for the others, even when benchmark is a swept axis
        rc = main([
            "sweep", "--platform", "toy", "--threads", "2", "--runs", "1",
            "--reps", "3", "--grid", "benchmark=syncbench,babelstream",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 configuration(s)" in text
        assert "reduction" in text and "copy" in text

    def test_proc_bind_axis_keeps_false_as_string(self, capsys):
        # proc_bind="false" is a legal string value (OS placement), not a
        # boolean — the figure-4-style pinning sweep must work from the CLI
        rc = main([
            "sweep", "--platform", "toy", "--threads", "2", "--runs", "1",
            "--reps", "3",
            "--zip", "proc_bind=false,close", "--zip", "places=none,cores",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 configuration(s)" in text
        assert "pooled variability by proc_bind" in text

    def test_mismatched_zip_returns_one(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1",
            "--zip", "num_threads=2,4", "--zip", "schedule=static",
        ])
        assert rc == 1
        assert "share a length" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--zip", "num_threads=2,4", "--zip", "schedule=static"],
         "axes[0].axes"),
        (["sweep", "--grid", "noise=quiet", "--zip", "num_threads=2,4",
          "--zip", "schedule=static"], "axes[1].axes"),
        (["run", "--threads", "0"], "base"),
        (["sweep", "--reps", "0"], "reps"),
        (["run", "--shard", "0/0"], "shard"),
        (["sweep", "--grid", "num_threads=0,2", "--reps", "2"], "axes"),
    ])
    def test_user_error_names_the_spec_field(self, capsys, argv, field):
        assert main([*argv, "--platform", "toy", "--runs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: job spec field '{field}': ")
        assert err.count("\n") == 1

    def test_user_error_is_the_services_message(self, capsys):
        argv = ["sweep", "--platform", "toy", "--runs", "1",
                "--zip", "num_threads=2,4", "--zip", "schedule=static"]
        assert main(argv) == 1
        with pytest.raises(JobSpecError) as service:
            validate_spec({
                "base": {"platform": "toy", "runs": 1},
                "axes": [{"kind": "zip", "axes": {"num_threads": [2, 4],
                                                  "schedule": ["static"]}}],
            })
        assert capsys.readouterr().err == f"error: {service.value}\n"

    def test_bad_axis_returns_one(self, capsys):
        rc = main(["sweep", "--platform", "toy", "--grid", "num_threads"])
        assert rc == 1
        assert "KEY=V1,V2" in capsys.readouterr().err

    @pytest.mark.parametrize("cpu", [-1, 32])
    def test_logger_cpu_off_the_machine_returns_one(self, capsys, cpu):
        """Rejected up front under the logger's name, not deep inside the
        noise model or the placer once the run has started."""
        rc = main([
            "sweep", "--platform", "vera", "--benchmark", "syncbench",
            "--threads", "4", "--freq-log", "--grid", f"logger_cpu={cpu}",
            "--runs", "1", "--reps", "2",
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: frequency logger CPU {cpu} is not a CPU of vera (CPUs 0-31)"
        ]

    def test_unknown_benchmark_param_axis_returns_one(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "bogus_param=1,2",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "bogus_param" in err


class TestSweepDryRun:
    def test_prints_configs_with_cache_keys(self, capsys, tmp_path):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4", "--dry-run",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 2
        assert [row["index"] for row in data["configs"]] == [0, 1]
        for row in data["configs"]:
            assert set(row) == {"index", "label", "config", "cache_key",
                                "cached"}
            assert len(row["cache_key"]) == 64
            assert row["cached"] is False
        assert [r["config"]["num_threads"] for r in data["configs"]] == [2, 4]

    def test_dry_run_simulates_nothing_and_reports_warm_entries(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4", "--cache-dir", cache,
        ]
        assert main([*argv, "--dry-run"]) == 0
        capsys.readouterr()
        assert main(argv) == 0  # real run warms the cache
        capsys.readouterr()
        assert main([*argv, "--dry-run"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(row["cached"] for row in data["configs"])

    def test_dry_run_without_cache_marks_all_cold(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4", "--dry-run",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["cached"] for row in data["configs"]] == [False, False]


class TestShard:
    """The ``--shard`` surface: user errors, and an experiment sharded
    into one cache dir gathering to the unsharded artifact."""

    SWEEP = ["sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
             "--grid", "num_threads=2,4"]
    TABLE2 = ["table2", "--runs", "2", "--reps", "5"]

    def test_shard_without_cache_dir_is_a_user_error(self, capsys):
        assert main([*self.SWEEP, "--shard", "0/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--cache-dir" in err

    def test_shard_index_out_of_range_is_a_user_error(self, capsys, tmp_path):
        rc = main([*self.SWEEP, "--shard", "2/2",
                   "--cache-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of range" in err

    def test_experiment_shards_gather_to_the_unsharded_artifact(
        self, capsys, tmp_path
    ):
        assert main(["experiment", *self.TABLE2]) == 0
        serial = capsys.readouterr().out
        cache = ["--cache-dir", str(tmp_path)]
        for shard in ("0/2", "1/2"):
            assert main(["experiment", *self.TABLE2, *cache,
                         "--shard", shard]) == 0
            assert f"shard {shard}" in capsys.readouterr().out
        assert main(["gather", "--experiment", *self.TABLE2, *cache,
                     "--expect-shards", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_experiment_gather_refuses_another_studys_manifests(
        self, capsys, tmp_path
    ):
        """The manifests must cover the experiment itself: an unsharded
        table2 run leaves its entries but no manifest, and a sharded
        sweep's manifest covers only that sweep."""
        cache = ["--cache-dir", str(tmp_path)]
        table2 = ["table2", "--runs", "1", "--reps", "2"]
        assert main(["experiment", *table2, *cache]) == 0
        assert main(["sweep", "--platform", "vera", "--grid", "num_threads=2,4",
                     "--runs", "1", "--reps", "2", *cache, "--shard", "0/1"]) == 0
        capsys.readouterr()
        assert main(["gather", "--experiment", *table2, *cache,
                     "--expect-shards", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: config 'schedbench@dardel n=4 close seed=42' "
        )
        assert "is not in any shard manifest" in captured.err
        assert "re-run --shard 0/1" in captured.err

    @pytest.fixture(scope="class")
    def table2_shards(self, tmp_path_factory):
        """table2 sharded 2 ways into one cache dir, and its serial stdout."""
        cache = tmp_path_factory.mktemp("table2-shards")
        with contextlib.redirect_stdout(io.StringIO()) as serial:
            assert main(["experiment", *self.TABLE2]) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            for shard in ("0/2", "1/2"):
                assert main(["experiment", *self.TABLE2, "--cache-dir", str(cache),
                             "--shard", shard]) == 0
        return cache, serial.getvalue()

    def _gather_table2(self, cache, *flags):
        return main(["gather", "--experiment", *self.TABLE2, "--cache-dir", str(cache),
                     "--expect-shards", "2", *flags])

    @pytest.mark.parametrize("name", ["table2.csv", "table2.json"])
    def test_experiment_gather_exports_tidy_records(
        self, capsys, tmp_path, table2_shards, name
    ):
        """``--out`` exports what the experiment's study exports run
        unsharded; stdout still carries the artifact alone."""
        cache, serial = table2_shards
        out, reference = tmp_path / name, tmp_path / f"reference-{name}"
        assert self._gather_table2(cache, "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert f"exported 8 tidy records to {out}" in captured.err
        spec = get_experiment("table2")
        ran = spec.build_study(**spec.knobs(2, 5, 42)).run()
        ran.to_json(reference) if name.endswith(".json") else ran.to_csv(reference)
        assert out.read_bytes() == reference.read_bytes()

    def test_experiment_gather_reports_telemetry(self, capsys, tmp_path, table2_shards):
        cache, serial = table2_shards
        telemetry = tmp_path / "telemetry.json"
        assert self._gather_table2(
            cache, "--telemetry", "--telemetry-out", str(telemetry)) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "harness telemetry" in captured.err
        assert f"wrote telemetry JSON to {telemetry}" in captured.err
        counters = {c["name"]: c["value"] for c in json.loads(telemetry.read_text())["counters"]}
        assert counters["manifest_entries_verified"] == 4

    @pytest.mark.parametrize("flags", [
        ["--grid", "num_threads=2"],
        ["--zip", "num_threads=2,4"],
        ["--label", "dynamic_1"],
        ["--group-by", "num_threads"],
        ["--param", "outer_reps=3"],
    ])
    def test_experiment_gather_rejects_sweep_flags(self, capsys, table2_shards, flags):
        assert self._gather_table2(table2_shards[0], *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith(f"drop {flags[0]}\n")

    @pytest.mark.parametrize("flags", [
        ["--threads", "999"],
        ["--platform", "toy"],
        ["--proc-bind", "false"],
        ["--noise", "quiet"],
        ["--freq-log"],
        ["--threads", "999", "--platform", "toy"],
    ])
    def test_experiment_gather_rejects_config_flags(self, capsys, table2_shards, flags):
        assert self._gather_table2(table2_shards[0], *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        for flag in flags:
            assert not flag.startswith("--") or flag in captured.err

    def test_backend_flag_is_gone(self, capsys):
        """``--jobs`` alone picks the backend."""
        with pytest.raises(SystemExit):
            main([*self.SWEEP, "--backend", "serial"])
        assert "--backend" in capsys.readouterr().err


class TestCacheDirCreation:
    """Read-only cache commands refuse a missing ``--cache-dir`` and leave
    nothing behind; commands that write results create it."""

    @staticmethod
    def _cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    @pytest.mark.parametrize("argv", [
        ["gather", "--grid", "num_threads=2"],
        ["cache", "stats"],
        ["cache", "gc"],
    ])
    def test_read_only_command_creates_nothing(self, tmp_path, argv):
        missing = tmp_path / "mistyped"
        proc = self._cli(*argv, "--cache-dir", str(missing))
        assert proc.returncode == 1
        assert proc.stderr == f"error: cache dir {missing} does not exist\n"
        assert not missing.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--platform", "toy", "--threads", "2"],
        ["sweep", "--platform", "toy", "--grid", "num_threads=2"],
        ["experiment", "table2"],
    ])
    def test_writing_command_creates_the_cache_dir(self, tmp_path, argv):
        fresh = tmp_path / "fresh"
        proc = self._cli(*argv, "--runs", "1", "--reps", "2", "--cache-dir", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert list(fresh.glob("*.json"))


class TestBenchReport:
    """The bench report writer: baseline carry rules shared by the CLI
    and benchmarks/bench_engine.py."""

    def _report(self, quick=False):
        return {
            "schema": 1,
            "quick": quick,
            "figure8_smoke": {"reps": 30, "events": 10, "events_per_sec": 200},
        }

    def _baseline_file(self, tmp_path, quick=False):
        import json

        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "baseline_pre_overhaul": {
                "quick": quick,
                "engine": {"callback_events_per_sec": 100},
                "figure8_smoke": {"events_per_sec": 100},
            },
        }))
        return path

    def test_baseline_carried_and_speedups_recomputed(self, tmp_path):
        """The recorded baseline is kept whole (its engine block too);
        only the figure8 smoke, which the bench still measures, gets a
        speedup."""
        import json

        from repro.sim.bench import write_report

        path = self._baseline_file(tmp_path, quick=False)
        report = write_report(self._report(quick=False), path)
        assert "baseline_pre_overhaul" in report
        assert report["speedup_vs_baseline"] == {
            "figure8_smoke_events_per_sec": 2.0,
        }
        on_disk = json.loads(path.read_text())
        assert on_disk["baseline_pre_overhaul"]["engine"][
            "callback_events_per_sec"
        ] == 100

    def test_quick_run_skips_speedups_vs_full_baseline(self, tmp_path):
        """--quick numbers divided by a full-workload baseline would be
        apples-to-oranges; the baseline is kept, the ratios are not."""
        from repro.sim.bench import write_report

        path = self._baseline_file(tmp_path, quick=False)
        report = write_report(self._report(quick=True), path)
        assert "baseline_pre_overhaul" in report
        assert "speedup_vs_baseline" not in report

    def test_missing_or_corrupt_prior_is_fine(self, tmp_path):
        from repro.sim.bench import write_report

        fresh = tmp_path / "fresh.json"
        report = write_report(self._report(), fresh)
        assert "baseline_pre_overhaul" not in report
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        report = write_report(self._report(), corrupt)
        assert "baseline_pre_overhaul" not in report

    def test_cli_bench_command(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("figure8 smoke: ")
        assert "engine" not in captured
        report = json.loads(out.read_text())
        assert "engine" not in report
        # the deterministic event count of 5 smoke repetitions
        assert report["figure8_smoke"]["events"] == 1080