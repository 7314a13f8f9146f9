"""BENCHMARK.json names exactly what run.py emits."""

import json
from pathlib import Path

import metrics
import workloads as wl

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_keys_and_command():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200


def test_metric_names_and_units_match_what_run_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)


def test_bounds():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    assert by_name["setup_s"]["better"] == "lower"
    assert by_name["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
