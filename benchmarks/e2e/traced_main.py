"""Traced CLI invocation: per-layer host time from outside the program.

``traced_main.py REPORT INVOCATION EPOCH -- ARGV...`` imports
``repro.cli`` inside a ``cli.import`` span, wraps the public functions
listed in :data:`LAYERS` at class or module attribute level, runs
``repro.cli.main(ARGV)``, and at exit writes REPORT: the per-layer call
counts and self times, plus the recorded spans as Chrome trace events
(timestamps in microseconds since EPOCH, a ``time.perf_counter`` value
of the parent).

A layer's self time is the time its calls spent minus the time covered
by calls of other wrapped functions made inside them; the invocation's
root span gets the rest (``trace.other_s``).  Self times therefore sum
to the root span's duration.  Hot targets (called ~10^5 times) are
counted and timed but not recorded as individual spans.

A target that no longer exists is reported in ``absent`` and its layer
reads zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


class SpanRecorder:
    """Frame stack + per-layer totals + recorded spans, all in memory.

    A frame is ``[child_seconds, span_id]``; the root frame is opened at
    construction and closed by :meth:`finish`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = 0
        self._t_root = clock()
        self._stack: list[list] = [[0.0, 0]]

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: bool = True,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """*fn* timed into layer *name*.  ``before(args, kwargs)`` returns a
        token handed to ``after(stats, args, kwargs, result, token)``."""
        stats = self.layer(name)
        stack = self._stack
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._new_id() if record else parent[1]]
            token = before(args, kwargs) if before is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats.calls += 1
                stats.self_s += dur - frame[0]
                stats.total_s += dur
                if record:
                    spans.append((frame[1], parent[1], name, t0, t1))
            if after is not None:
                after(stats, args, kwargs, result, token)
            return result

        return wrapper

    def finish(self) -> dict:
        """Close the root frame; the invocation's summary."""
        t_end = self.clock()
        root = self._stack[0]
        wall = t_end - self._t_root
        self.spans.append((0, -1, "invocation", self._t_root, t_end))
        return {
            "wall_s": wall,
            "other_s": wall - root[0],
            "layers": {
                name: {
                    "calls": s.calls, "self_s": s.self_s,
                    "total_s": s.total_s, **s.extra,
                }
                for name, s in self.layers.items()
            },
        }


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _first_run(stats, args, kwargs, result, token):
    run_index = args[1] if len(args) > 1 else kwargs.get("run_index")
    if run_index == 0:
        stats.add("first_runs", 1)


def _cache_get(stats, args, kwargs, result, token):
    if result is not None:
        stats.add("hits", 1)


def _cache_put(stats, args, kwargs, result, token):
    stats.add("bytes_written", os.path.getsize(result))


def _events_before(args, kwargs):
    return args[0].events_executed


def _engine_events(stats, args, kwargs, result, before):
    stats.add("events", args[0].events_executed - before)


def _steals(stats, args, kwargs, result, token):
    stats.add("steals", result.total_steals)
    stats.add("failed_steals", result.total_failed_steals)


#: (layer, "module:attribute path", record spans?, before, after).  Layer
#: names follow the package layout of ``src/repro``.
LAYERS: tuple = (
    ("harness.study.expand", "repro.harness.study:Study.configs", True, None, None),
    ("harness.study.export", "repro.harness.study:StudyResult.to_csv", True, None, None),
    ("harness.study.export", "repro.harness.study:StudyResult.to_json", True, None, None),
    ("harness.cache.get", "repro.harness.cache:ResultCache.get", True, None, _cache_get),
    ("harness.cache.put", "repro.harness.cache:ResultCache.put", True, None, _cache_put),
    ("harness.runner.run_one", "repro.harness.runner:Runner.run_one", True, None, _first_run),
    ("sim.fused.run_fused", "repro.sim.fused:run_fused", True, None, None),
    ("omp.runtime.start_run", "repro.omp.runtime:OpenMPRuntime.start_run", True, None, None),
    ("freq.dvfs.plan", "repro.freq.dvfs:FrequencyModel.plan", True, None, None),
    ("osnoise.model.realize", "repro.osnoise.model:NoiseModel.realize", True, None, None),
    ("sim.intervals.overlap", "repro.sim.intervals:IntervalSet.overlap", False, None, None),
    ("sim.intervals.overlap", "repro.sim.intervals:IntervalBatch.overlap_fused", False, None, None),
    ("omp.region.execute", "repro.omp.region:RegionExecutor.execute", False, None, None),
    ("omp.region.execute", "repro.sim.fused:_RegionBatch.execute", False, None, None),
    ("sim.engine.run", "repro.sim.engine:Engine.run", True, _events_before, _engine_events),
    ("omp.tasking.scheduler", "repro.omp.tasking.scheduler:WorkStealingScheduler.run", True, None, _steals),
    ("omp.tasking.scheduler", "repro.omp.tasking.scheduler:WorkStealingScheduler._scan_victims", False, None, None),
    ("harness.report.render", "repro.harness.experiments:ExperimentArtifact.render", True, None, None),
)

#: Modules whose every public function belongs to one layer.
MODULE_LAYERS: tuple = (
    ("harness.report.render", "repro.harness.report", "render"),
    ("stats", "repro.stats", ""),
)


def _resolve(target: str) -> tuple[Any, str, Callable] | None:
    """(owner, attribute, function) for ``module:Qual.name``, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if not inspect.isfunction(fn):
        return None
    return owner, attr, fn


def _module_functions(package: str, prefix: str) -> list[tuple[Any, str, Callable]]:
    """Every public function defined in *package* (and its submodules)
    whose name starts with *prefix*."""
    root = importlib.import_module(package)
    modules = [root]
    if hasattr(root, "__path__"):
        modules += [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
    found = []
    for mod in modules:
        for name, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not name.startswith("_")
                and name.startswith(prefix)
            ):
                found.append((mod, name, fn))
    return found


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target; returns the targets that were not found.

    A module-level function is replaced in its module and in every
    loaded ``repro`` module that imported it by name, so callers that
    did ``from module import fn`` see the wrapper too.
    """
    absent: list[str] = []
    plan: list[tuple[str, Any, str, Callable, bool, Any, Any]] = []
    for layer, target, record, before, after in LAYERS:
        found = _resolve(target)
        if found is None:
            absent.append(target)
            recorder.layer(layer)
            continue
        plan.append((layer, *found, record, before, after))
    for layer, package, prefix in MODULE_LAYERS:
        recorder.layer(layer)
        try:
            functions = _module_functions(package, prefix)
        except ImportError:
            absent.append(f"{package}:{prefix}*")
            continue
        plan += [(layer, *found, False, None, None) for found in functions]

    replaced: dict[int, Callable] = {}
    for layer, owner, attr, fn, record, before, after in plan:
        wrapper = recorder.wrap(layer, fn, record, before, after)
        setattr(owner, attr, wrapper)
        if not inspect.isclass(owner):
            replaced[id(fn)] = wrapper
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                setattr(mod, attr, wrapper)
    return absent


def chrome_events(spans, invocation: int, epoch: float) -> list[dict]:
    """Spans as Chrome trace "complete" events (Perfetto-loadable)."""
    return [
        {
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (t0 - epoch) * 1e6, "dur": (t1 - t0) * 1e6,
            "pid": invocation, "tid": 0,
            "args": {"id": span_id, "parent": parent, "invocation": invocation},
        }
        for span_id, parent, name, t0, t1 in spans
    ]


def main(report: str, invocation: int, epoch: float, argv: list[str]) -> int:
    recorder = SpanRecorder()

    def import_cli():
        import repro.cli

        return repro.cli

    cli = recorder.wrap("cli.import", import_cli)()
    absent = install(recorder)
    try:
        code = cli.main(argv)
    finally:
        summary = recorder.finish()
        summary["absent"] = absent
        summary["events"] = chrome_events(recorder.spans, invocation, epoch)
        with open(report, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[5:]))
