"""Benchmark registry: name-based lookup for the CLI and harness.

The table names each benchmark's class without importing it, so the
CLI's ``--benchmark`` choices load no simulation module.
"""

from __future__ import annotations

import importlib

from repro.errors import BenchmarkError

#: Benchmark name -> ``"module:Class"``, imported on lookup.
_BENCHMARKS = {
    "babelstream": "repro.bench.babelstream:BabelStream",
    "schedbench": "repro.bench.epcc.schedbench:Schedbench",
    "syncbench": "repro.bench.epcc.syncbench:Syncbench",
    "taskbench": "repro.bench.taskbench:Taskbench",
}


def get_benchmark(name: str):
    """Instantiate a benchmark driver by name (default parameters).

    >>> type(get_benchmark("syncbench")).__name__
    'Syncbench'
    """
    try:
        module, _, cls = _BENCHMARKS[name.lower()].partition(":")
    except KeyError:
        raise BenchmarkError(
            f"unknown benchmark {name!r}; choose from {sorted(_BENCHMARKS)}"
        ) from None
    return getattr(importlib.import_module(module), cls)()


def available_benchmarks() -> tuple[str, ...]:
    return tuple(sorted(_BENCHMARKS))
