"""Span self-time arithmetic and the per-layer metric derivation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import traced_main


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = traced_main.SpanRecorder(clock)

    def leaf():
        clock.t += 2.0

    wrapped_leaf = rec.wrap("leaf", leaf, record=False)

    def outer():
        clock.t += 1.0
        wrapped_leaf()
        clock.t += 3.0
        wrapped_leaf()

    rec.wrap("outer", outer)()
    clock.t += 0.5
    summary = rec.finish()
    layers = summary["layers"]
    assert layers["outer"]["self_s"] == pytest.approx(4.0)
    assert layers["outer"]["total_s"] == pytest.approx(8.0)
    assert layers["leaf"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert summary["wall_s"] == pytest.approx(8.5)
    assert summary["other_s"] == pytest.approx(0.5)
    # only recorded layers become spans; the root closes last
    names = [span[2] for span in rec.spans]
    assert names == ["outer", "invocation"]
    assert metrics.layer_sum_error([summary]) == pytest.approx(0.0)


def test_exception_still_closes_the_frame():
    clock = FakeClock()
    rec = traced_main.SpanRecorder(clock)

    def boom():
        clock.t += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.finish()["layers"]["boom"]["self_s"] == pytest.approx(1.0)


def test_hooks_see_arguments_and_result():
    rec = traced_main.SpanRecorder()
    wrapped = rec.wrap(
        "f", lambda x: x * 2,
        before=lambda args, kwargs: args[0],
        after=lambda stats, args, kwargs, result, token: stats.add("out", result + token),
    )
    assert wrapped(5) == 10
    assert rec.layers["f"].extra == {"out": 15}


def test_missing_target_is_absent_not_fatal():
    assert traced_main._resolve("repro_missing_module:f") is None
    assert traced_main._resolve("json:NoSuchThing.method") is None
    owner, attr, fn = traced_main._resolve("json:dumps")
    assert attr == "dumps" and fn is owner.dumps


def test_chrome_events_are_complete_events():
    clock = FakeClock()
    rec = traced_main.SpanRecorder(clock)
    clock.t = 1.0
    rec.wrap("a.b", lambda: None)()
    rec.finish()
    events = traced_main.chrome_events(rec.spans, invocation=3, epoch=0.5)
    assert {e["ph"] for e in events} == {"X"}
    assert events[0]["name"] == "a.b" and events[0]["pid"] == 3
    assert events[0]["ts"] == pytest.approx(0.5e6)
    assert events[0]["args"]["parent"] == 0


def _summary(layers, wall, other):
    return {"wall_s": wall, "other_s": other, "layers": layers}


def test_layer_metrics_emit_every_per_layer_name():
    layers = {
        "cli.import": {"calls": 1, "self_s": 0.8, "total_s": 0.8},
        "harness.cache.get": {"calls": 4, "self_s": 0.1, "total_s": 0.1, "hits": 3},
        "sim.fused.run_fused": {"calls": 1, "self_s": 0.5, "total_s": 0.5},
        "harness.runner.run_one": {"calls": 3, "self_s": 0.3, "total_s": 0.3,
                                   "first_runs": 1},
        "omp.tasking.scheduler": {"calls": 1, "self_s": 0.1, "total_s": 0.1,
                                  "steals": 1, "failed_steals": 3},
    }
    out = metrics.layer_metrics(
        [_summary(layers, 2.0, 0.2)], traced_wall=2.2, untraced_wall=2.0,
        telemetry={"gauges": [{"name": "pool_utilization", "value": 0.9}],
                   "histograms": [{"name": "queue_wait_seconds", "total": 1.5}]},
    )
    assert list(out) == [name for name, _ in metrics.PER_LAYER]
    assert out["harness.cache.hit_ratio"] == pytest.approx(0.75)
    assert out["sim.fused.config_share"] == pytest.approx(0.5)
    assert out["omp.tasking.steal_success_ratio"] == pytest.approx(0.25)
    assert out["harness.backend.pool_utilization"] == 0.9
    assert out["harness.backend.queue_wait_s"] == 1.5
    assert out["trace.overhead_pct"] == pytest.approx(10.0)
    assert out["sim.engine.events_per_s"] == 0.0


def test_layer_sum_error_detects_a_gap():
    layers = {"x": {"calls": 1, "self_s": 1.0, "total_s": 1.0}}
    assert metrics.layer_sum_error([_summary(layers, 2.0, 1.0)]) == 0.0
    assert metrics.layer_sum_error([_summary(layers, 2.0, 0.5)]) == pytest.approx(0.25)


def test_traced_cli_finds_every_target(tmp_path):
    """One real traced invocation: every wrapped target exists in the
    program, and the layers add up to the traced wall time."""
    here = Path(traced_main.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(here.parents[1] / "src"))
    report = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, str(here / "traced_main.py"), str(report), "0", "0",
         "--", "experiment", "table2", "--runs", "1", "--reps", "2"],
        env=env, check=True, capture_output=True, timeout=120,
    )
    summary = json.loads(report.read_text())
    assert summary["absent"] == []
    assert summary["layers"]["omp.runtime.start_run"]["calls"] == 4
    assert summary["layers"]["harness.report.render"]["calls"] > 0
    assert metrics.layer_sum_error([summary]) < 1e-6
