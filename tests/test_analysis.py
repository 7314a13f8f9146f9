"""Tests for the static-analysis framework (``repro.analysis``).

Each rule family gets positive fixtures (the violation is caught) and
negative fixtures (the sanctioned idiom passes).  Fixture snippets are
fed through :func:`repro.analysis.lint_source` — the exact production
pipeline — with ``module_parts`` positioning them inside the package
tree so package-scoped rules apply.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
    available_rules,
    format_json,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.cli import main
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parent.parent

SIM = ("repro", "sim", "fake")
TASKING = ("repro", "omp", "tasking", "fake")
HARNESS = ("repro", "harness", "fake")


def findings(source, rule, module_parts=SIM):
    """Lint *source* with one rule and return the findings."""
    return lint_source(
        textwrap.dedent(source), rule_ids=[rule], module_parts=module_parts
    )


# ---------------------------------------------------------------------------
# DET001 — ambient nondeterminism
# ---------------------------------------------------------------------------


class TestDET001:
    def test_stdlib_random_flagged(self):
        out = findings(
            """
            import random

            def draw():
                return random.random()
            """,
            "DET001",
        )
        assert len(out) == 1
        assert out[0].rule == "DET001"
        assert "random.random" in out[0].message

    def test_random_import_alias_resolved(self):
        out = findings(
            """
            import random as rnd

            def draw():
                return rnd.gauss(0, 1)
            """,
            "DET001",
        )
        assert len(out) == 1

    def test_unseeded_default_rng_flagged(self):
        out = findings(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            "DET001",
        )
        assert len(out) == 1
        assert "entropy" in out[0].message

    def test_seeded_default_rng_allowed(self):
        out = findings(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
            "DET001",
        )
        assert out == []

    def test_numpy_global_state_flagged(self):
        out = findings(
            """
            import numpy as np

            def jitter(n):
                np.random.seed(0)
                return np.random.normal(size=n)
            """,
            "DET001",
        )
        assert len(out) == 2
        assert all("global RandomState" in f.message for f in out)

    def test_wall_clock_flagged(self):
        out = findings(
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
            "DET001",
        )
        assert len(out) == 1
        assert "wall-clock" in out[0].message

    def test_id_keyed_data_flagged(self):
        out = findings(
            """
            def key_for(obj):
                return id(obj)
            """,
            "DET001",
        )
        assert len(out) == 1
        assert "memory address" in out[0].message

    def test_named_stream_draws_allowed(self):
        out = findings(
            """
            def body(rng):
                return rng.normal(0.0, 1.0)
            """,
            "DET001",
        )
        assert out == []

    def test_out_of_scope_package_not_checked(self):
        out = lint_source(
            "import random\nx = random.random()\n",
            rule_ids=["DET001"],
            module_parts=("repro", "plotting", "fake"),
        )
        assert out == []


# ---------------------------------------------------------------------------
# DET002 — set iteration
# ---------------------------------------------------------------------------


class TestDET002:
    def test_for_over_set_literal_flagged(self):
        out = findings(
            """
            def run():
                for x in {1, 2, 3}:
                    print(x)
            """,
            "DET002",
        )
        assert len(out) == 1
        assert "replay-unstable" in out[0].message

    def test_for_over_set_variable_flagged(self):
        out = findings(
            """
            def run(items):
                pending = set(items)
                for x in pending:
                    print(x)
            """,
            "DET002",
        )
        assert len(out) == 1

    def test_comprehension_over_set_flagged(self):
        out = findings(
            """
            def run(items):
                s = frozenset(items)
                return [x + 1 for x in s]
            """,
            "DET002",
        )
        assert len(out) == 1

    def test_set_algebra_flagged(self):
        out = findings(
            """
            def run(a, b):
                sa = set(a)
                for x in sa - set(b):
                    print(x)
            """,
            "DET002",
        )
        assert len(out) == 1

    def test_sorted_set_allowed(self):
        out = findings(
            """
            def run(items):
                pending = set(items)
                for x in sorted(pending):
                    print(x)
            """,
            "DET002",
        )
        assert out == []

    def test_list_iteration_allowed(self):
        out = findings(
            """
            def run(items):
                seq = list(items)
                for x in seq:
                    print(x)
            """,
            "DET002",
        )
        assert out == []

    def test_name_reassigned_to_list_not_flagged(self):
        out = findings(
            """
            def run(items):
                xs = set(items)
                xs = sorted(xs)
                for x in xs:
                    print(x)
            """,
            "DET002",
        )
        assert out == []


# ---------------------------------------------------------------------------
# DET003 — cache-key purity
# ---------------------------------------------------------------------------

# indented to match the fixture bodies so the concatenation dedents cleanly
_DET003_PREAMBLE = """
            from dataclasses import dataclass
"""


class TestDET003:
    def test_unstable_field_type_flagged(self):
        out = findings(
            _DET003_PREAMBLE
            + """
            @dataclass(frozen=True)
            class Config:
                name: str
                payload: dict

                def to_dict(self):
                    return {"name": self.name, "payload": self.payload}
            """,
            "DET003",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "payload" in out[0].message
        assert "field path" in out[0].message

    def test_field_missing_from_to_dict_flagged(self):
        out = findings(
            _DET003_PREAMBLE
            + """
            @dataclass(frozen=True)
            class Config:
                name: str
                reps: int

                def to_dict(self):
                    return {"name": self.name}
            """,
            "DET003",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "reps" in out[0].message
        assert "NOT invalidate" in out[0].message

    def test_stable_fields_pass(self):
        out = findings(
            _DET003_PREAMBLE
            + """
            @dataclass(frozen=True)
            class Config:
                name: str
                reps: int
                scale: float | None

                def to_dict(self):
                    return {
                        "name": self.name,
                        "reps": self.reps,
                        "scale": self.scale,
                    }
            """,
            "DET003",
            module_parts=HARNESS,
        )
        assert out == []

    def test_jsonify_wrapped_field_passes(self):
        out = findings(
            _DET003_PREAMBLE
            + """
            def _jsonify(v):
                return v

            @dataclass(frozen=True)
            class Config:
                params: dict

                def to_dict(self):
                    return {"params": _jsonify(dict(self.params))}
            """,
            "DET003",
            module_parts=HARNESS,
        )
        assert out == []

    def test_non_frozen_dataclass_not_checked(self):
        out = findings(
            _DET003_PREAMBLE
            + """
            @dataclass
            class Mutable:
                payload: dict

                def to_dict(self):
                    return {"payload": self.payload}
            """,
            "DET003",
            module_parts=HARNESS,
        )
        assert out == []


# ---------------------------------------------------------------------------
# DET004 — shard/manifest identity purity
# ---------------------------------------------------------------------------


class TestDET004:
    def test_pid_in_shard_scope_flagged(self):
        out = findings(
            """
            import os

            def shard_index_of(key, n):
                return (int(key[:16], 16) + os.getpid()) % n
            """,
            "DET004",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "os.getpid" in out[0].message
        assert "pure functions of config content" in out[0].message

    def test_wall_clock_in_manifest_scope_flagged(self):
        out = findings(
            """
            import time

            def write_shard_manifest(cache, entries):
                return {"written_at": time.time(), "entries": entries}
            """,
            "DET004",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "time.time" in out[0].message

    def test_hostname_in_sharded_class_flagged(self):
        out = findings(
            """
            import socket

            class ShardedSweep:
                def run(self, configs):
                    return socket.gethostname()
            """,
            "DET004",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "socket.gethostname" in out[0].message

    def test_random_in_shard_scope_flagged(self):
        out = findings(
            """
            import random

            def pick_shard(keys, n):
                return random.choice(range(n))
            """,
            "DET004",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "different" in out[0].message
        assert "partitions" in out[0].message

    def test_pure_shard_assignment_passes(self):
        out = findings(
            """
            def shard_index_of(key, shard_count):
                return int(key[:16], 16) % shard_count
            """,
            "DET004",
            module_parts=HARNESS,
        )
        assert out == []

    def test_pid_outside_shard_scopes_passes(self):
        """Helpers outside shard/manifest scopes may use pids (tmp-file
        suffixes in _atomic_write_json are the sanctioned pattern)."""
        out = findings(
            """
            import os

            def _atomic_write_json(path, payload):
                tmp = path.with_suffix(f".tmp.{os.getpid()}")
                return tmp
            """,
            "DET004",
            module_parts=HARNESS,
        )
        assert out == []

    def test_only_applies_to_harness_package(self):
        out = findings(
            """
            import os

            def shard_helper():
                return os.getpid()
            """,
            "DET004",
            module_parts=("repro", "obs", "fake"),
        )
        assert out == []


# ---------------------------------------------------------------------------
# DET005 — job-service identity purity
# ---------------------------------------------------------------------------

SERVE = ("repro", "serve", "fake")


class TestDET005:
    def test_wall_clock_anywhere_in_serve_flagged(self):
        out = findings(
            """
            import time

            def handle_submit(spec):
                return {"received_at": time.time(), "spec": spec}
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert len(out) == 1
        assert "time.time" in out[0].message

    def test_uuid4_job_id_flagged(self):
        out = findings(
            """
            import uuid

            def job_id_for(seq, fingerprint):
                return str(uuid.uuid4())
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert len(out) == 1
        assert "uuid.uuid4" in out[0].message
        assert "dedup" in out[0].message

    def test_random_in_serve_flagged(self):
        out = findings(
            """
            import random

            def pick_worker(workers):
                return random.choice(workers)
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert len(out) == 1
        assert "random.choice" in out[0].message

    def test_monotonic_outside_clock_scope_flagged(self):
        out = findings(
            """
            import time

            def submit(spec):
                started = time.monotonic()
                return started
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert len(out) == 1
        assert "monotonic_clock" in out[0].message

    def test_monotonic_in_clock_helper_passes(self):
        out = findings(
            """
            import time

            def monotonic_clock():
                return time.monotonic()
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert out == []

    def test_monotonic_in_telemetry_scope_passes(self):
        out = findings(
            """
            import time

            def telemetry_snapshot(metrics):
                return {"at": time.perf_counter()}
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert out == []

    def test_identity_scope_bans_even_monotonic(self):
        """A clock-named helper does not excuse identity scopes: a
        fingerprint function may never read any clock."""
        out = findings(
            """
            import time

            class SpecFingerprint:
                def clock_salt(self):
                    return time.monotonic()
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert len(out) == 1

    def test_pure_fingerprint_passes(self):
        out = findings(
            """
            import hashlib
            import json

            def spec_fingerprint(keys):
                blob = json.dumps(sorted(keys))
                return hashlib.sha256(blob.encode()).hexdigest()
            """,
            "DET005",
            module_parts=SERVE,
        )
        assert out == []

    def test_only_applies_to_serve_package(self):
        out = findings(
            """
            import time

            def handle_submit(spec):
                return time.time()
            """,
            "DET005",
            module_parts=HARNESS,
        )
        assert out == []


# ---------------------------------------------------------------------------
# PERF001 — __slots__ discipline
# ---------------------------------------------------------------------------


class TestPERF001:
    def test_plain_class_without_slots_flagged(self):
        out = findings(
            """
            class Hot:
                def __init__(self):
                    self.x = 0
            """,
            "PERF001",
        )
        assert len(out) == 1
        assert "__slots__" in out[0].message

    def test_dataclass_without_slots_flagged(self):
        out = findings(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Hot:
                x: int
            """,
            "PERF001",
        )
        assert len(out) == 1
        assert "slots=True" in out[0].message

    def test_slotted_class_passes(self):
        out = findings(
            """
            class Hot:
                __slots__ = ("x",)

                def __init__(self):
                    self.x = 0
            """,
            "PERF001",
        )
        assert out == []

    def test_slots_dataclass_passes(self):
        out = findings(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Hot:
                x: int
            """,
            "PERF001",
        )
        assert out == []

    def test_exception_subclass_exempt(self):
        out = findings(
            """
            class HotError(Exception):
                pass

            class WorseError(HotError):
                pass
            """,
            "PERF001",
        )
        assert out == []

    def test_tasking_package_in_scope(self):
        out = findings(
            "class Hot:\n    pass\n", "PERF001", module_parts=TASKING
        )
        assert len(out) == 1

    def test_cold_package_not_checked(self):
        out = lint_source(
            "class Cold:\n    pass\n",
            rule_ids=["PERF001"],
            module_parts=("repro", "osnoise", "fake"),
        )
        assert out == []


# ---------------------------------------------------------------------------
# PERF002 — closure allocation in loops
# ---------------------------------------------------------------------------


class TestPERF002:
    def test_lambda_in_loop_flagged(self):
        out = findings(
            """
            def run(engine, events):
                for ev in events:
                    engine.schedule_at(ev.t, lambda: ev.fire())
            """,
            "PERF002",
        )
        assert len(out) == 1
        assert "lambda" in out[0].message

    def test_def_in_while_loop_flagged(self):
        out = findings(
            """
            def run(queue):
                while queue:
                    def step():
                        queue.pop()
                    step()
            """,
            "PERF002",
        )
        assert len(out) == 1
        assert "step" in out[0].message

    def test_function_level_def_allowed(self):
        out = findings(
            """
            def run(engine, events):
                def fire(ev):
                    ev.fire()
                for ev in events:
                    engine.schedule_at(ev.t, fire)
            """,
            "PERF002",
        )
        assert out == []

    def test_module_level_lambda_allowed(self):
        out = findings("key = lambda ev: ev.t\n", "PERF002")
        assert out == []


# ---------------------------------------------------------------------------
# PERF003 — per-run loops in rep-axis scopes
# ---------------------------------------------------------------------------

REGION = ("repro", "omp", "region")


class TestPERF003:
    def test_run_loop_in_region_module_flagged(self):
        out = findings(
            """
            def rows(ex, p):
                for r in range(p.runs):
                    ex.execute(r)
            """,
            "PERF003",
            module_parts=REGION,
        )
        assert len(out) == 1
        assert "range(runs)" in out[0].message
        assert "repro.omp.region" in out[0].message

    def test_run_loop_in_driver_module_flagged(self):
        out = findings(
            """
            def run(ex, n_runs):
                for r in range(n_runs):
                    ex.execute(r)
            """,
            "PERF003",
            module_parts=("repro", "bench", "babelstream"),
        )
        assert len(out) == 1
        assert "range(n_runs)" in out[0].message

    def test_rep_loop_in_fused_function_flagged_anywhere(self):
        out = findings(
            """
            def fork_bound_fused(streams, runs):
                for r in range(runs):
                    streams.draw(r)
            """,
            "PERF003",
            module_parts=("repro", "sched", "model"),
        )
        assert len(out) == 1
        assert "fork_bound_fused" in out[0].message

    def test_arithmetic_and_attribute_args_flagged(self):
        out = findings(
            """
            def rows(batch, config):
                for r in range(config.n_reps - 1):
                    batch.execute(r)
            """,
            "PERF003",
            module_parts=REGION,
        )
        assert len(out) == 1
        assert "range(n_reps)" in out[0].message

    def test_step_loop_over_array_shape_allowed(self):
        out = findings(
            """
            def rows(batch, rep_times):
                for step in range(rep_times.shape[1]):
                    batch.execute(rep_times[:, step])
            """,
            "PERF003",
            module_parts=REGION,
        )
        assert out == []

    def test_non_range_iteration_allowed(self):
        out = findings(
            """
            def rows(batch, groups, rows):
                for idx in groups:
                    batch.execute(idx)
                for i, row in enumerate(rows):
                    row.finish(i)
            """,
            "PERF003",
            module_parts=REGION,
        )
        assert out == []

    def test_scalar_engine_rep_loop_allowed(self):
        # benchmark repetitions are time steps: a driver walks them in
        # order, with every run's state an array over the rep axis
        out = findings(
            """
            def measure(ex, p):
                for rep in range(p.outer_reps):
                    ex.advance(1.0)
                for step in range(p.num_times * 5):
                    ex.advance(1.0)
            """,
            "PERF003",
            module_parts=("repro", "bench", "epcc", "syncbench"),
        )
        assert out == []

    def test_run_loop_outside_rep_axis_modules_allowed(self):
        out = findings(
            """
            def run(runner, config):
                for run in range(config.runs):
                    runner.run_one(run)
            """,
            "PERF003",
            module_parts=("repro", "harness", "runner"),
        )
        assert out == []


# ---------------------------------------------------------------------------
# API001 — driver registration
# ---------------------------------------------------------------------------


class TestAPI001:
    def test_unregistered_driver_flagged(self):
        out = findings(
            """
            def figure99(platform) -> ExperimentArtifact:
                return ExperimentArtifact()
            """,
            "API001",
            module_parts=HARNESS,
        )
        assert len(out) == 1
        assert "figure99" in out[0].message
        assert "@experiment" in out[0].message

    def test_registered_driver_passes(self):
        out = findings(
            """
            from repro.harness.experiments import experiment

            @experiment("the missing figure")
            def figure99(platform) -> ExperimentArtifact:
                return ExperimentArtifact()
            """,
            "API001",
            module_parts=HARNESS,
        )
        assert out == []

    def test_private_helper_exempt(self):
        out = findings(
            """
            def _assemble(platform) -> ExperimentArtifact:
                return ExperimentArtifact()
            """,
            "API001",
            module_parts=HARNESS,
        )
        assert out == []

    def test_non_driver_function_ignored(self):
        out = findings(
            """
            def summarize(records) -> dict:
                return {}
            """,
            "API001",
            module_parts=HARNESS,
        )
        assert out == []


# ---------------------------------------------------------------------------
# framework: registry, baseline, output formats
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_rule_families_registered(self):
        assert {
            "DET001", "DET002", "DET003", "DET004", "DET005", "PERF001",
            "PERF002", "API001",
        } <= set(available_rules())

    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="NOPE999"):
            get_rules(["NOPE999"])

    def test_every_rule_documents_itself(self):
        for rule in get_rules():
            assert rule.title
            assert rule.rationale
            assert rule.fix_hint


class TestBaseline:
    def _finding(self, snippet="x = time.time()"):
        return Finding(
            rule="DET001",
            path="src/repro/sim/fake.py",
            line=3,
            col=4,
            message="wall clock",
            snippet=snippet,
        )

    def test_round_trip(self, tmp_path):
        entry = BaselineEntry.from_finding(self._finding(), reason="measured")
        path = tmp_path / "baseline.json"
        Baseline([entry]).save(path)
        loaded = Baseline.load(path)
        assert loaded.match(self._finding()) is not None

    def test_match_is_line_number_free(self):
        entry = BaselineEntry.from_finding(self._finding(), reason="measured")
        moved = Finding(
            rule="DET001",
            path="src/repro/sim/fake.py",
            line=300,
            col=8,
            message="wall clock",
            snippet="x   =  time.time()",  # same code, different whitespace
        )
        assert Baseline([entry]).match(moved) is not None

    def test_stale_entries_reported(self):
        entry = BaselineEntry.from_finding(self._finding(), reason="measured")
        bl = Baseline([entry])
        assert bl.stale_entries() == [entry]
        bl.match(self._finding())
        assert bl.stale_entries() == []

    def test_reason_is_mandatory(self):
        with pytest.raises(AnalysisError, match="reason"):
            BaselineEntry("DET001", "src/repro/sim/fake.py", "x = 1", "  ")

    def test_bad_file_raises(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("[]")
        with pytest.raises(AnalysisError, match="entries"):
            Baseline.load(p)


class TestJsonOutput:
    def test_schema(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        report = lint_paths([tmp_path])
        payload = json.loads(format_json(report))
        assert set(payload) == {
            "version", "ok", "files_checked", "rules", "findings",
            "suppressed", "stale_baseline",
        }
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        (f,) = payload["findings"]
        assert f["rule"] == "DET001"
        assert f["line"] == 2
        assert f["severity"] == "error"
        assert f["fix_hint"]

    def test_suppressed_findings_carry_reason(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        first = lint_paths([tmp_path])
        baseline = Baseline(
            [
                BaselineEntry.from_finding(f, reason="fixture exception")
                for f in first.findings
            ]
        )
        report = lint_paths([tmp_path], baseline=baseline)
        assert report.ok
        payload = json.loads(format_json(report))
        assert payload["findings"] == []
        (s,) = payload["suppressed"]
        assert s["reason"] == "fixture exception"


# ---------------------------------------------------------------------------
# the repo lints clean against its own committed baseline
# ---------------------------------------------------------------------------


class TestSelfLint:
    def test_src_is_clean_under_committed_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        report = lint_paths([REPO_ROOT / "src"], baseline=baseline)
        assert report.findings == (), "\n".join(
            f.render() for f in report.findings
        )
        assert report.stale_entries == (), (
            "baseline entries matched nothing — fixed? remove them"
        )

    def test_committed_baseline_entries_all_have_reasons(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.entries, "committed baseline should not be empty"
        for entry in baseline.entries:
            assert entry.reason.strip()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_clean_tree_exits_zero(self):
        rc = main(
            [
                "lint",
                str(REPO_ROOT / "src"),
                "--baseline",
                str(REPO_ROOT / "lint-baseline.json"),
            ]
        )
        assert rc == 0

    def test_synthetic_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        rc = main(["lint", str(bad), "--no-baseline"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\nx = random.random()\n\n"
            "class Hot:\n    pass\n"
        )
        rc = main(["lint", str(bad), "--rule", "PERF001", "--no-baseline"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "PERF001" in out
        assert "DET001" not in out

    def test_json_format_parses(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        rc = main(["lint", str(bad), "--format", "json", "--no-baseline"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"]

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "DET004", "DET005", "PERF001",
            "PERF002", "API001",
        ):
            assert rule_id in out

    def test_module_invocation_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "DET001" in proc.stdout
