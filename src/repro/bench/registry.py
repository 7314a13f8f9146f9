"""Benchmark registry: the one table that names a benchmark.

Every benchmark follows one protocol.  Its class has

* ``params_type``, the frozen parameter dataclass whose fields are the
  ``benchmark_params`` keys it accepts, validated in ``__post_init__``;
* ``horizon(n_threads)``, the simulated extent of one run, which sizes
  the run's noise and frequency realization;
* ``series(runs)``, which executes the benchmark on a batch of realized
  run contexts and returns one ``{label: array}`` dict per run.

Each row below names the class by module path, the parameter a spec's
``reps`` maps onto, and whether the runs of a bound, untraced config may
execute as one batch.  All three are read without importing the module,
so the CLI's ``--benchmark`` choices, a job spec's ``reps`` and the
backends' batching load no simulation module.  Adding a benchmark is
one row here plus one class following the protocol.
"""

from __future__ import annotations

import importlib
from typing import Any, Mapping, NamedTuple

from repro.errors import ConfigurationError


class BenchmarkRow(NamedTuple):
    """One registered benchmark."""

    #: ``"module:Class"``, imported on the first construction.
    path: str
    #: The repetition parameter a spec's ``reps`` sets.
    reps_param: str
    #: Whether several runs may share one batch.  Taskbench's
    #: work-stealing order couples a run's repetitions to its history,
    #: so its runs execute one per batch.
    runs_share_batches: bool


_BENCHMARKS = {
    "babelstream": BenchmarkRow(
        "repro.bench.babelstream:BabelStream", "num_times", True
    ),
    "schedbench": BenchmarkRow(
        "repro.bench.epcc.schedbench:Schedbench", "outer_reps", True
    ),
    "syncbench": BenchmarkRow(
        "repro.bench.epcc.syncbench:Syncbench", "outer_reps", True
    ),
    "taskbench": BenchmarkRow(
        "repro.bench.taskbench:Taskbench", "outer_reps", False
    ),
}


def benchmark_row(name: str) -> BenchmarkRow:
    """The registry row of *name* (case-insensitive).

    >>> benchmark_row("BabelStream").reps_param
    'num_times'
    """
    row = _BENCHMARKS.get(name.lower()) if isinstance(name, str) else None
    if row is None:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; choose from {sorted(_BENCHMARKS)}"
        )
    return row


def reps_param(name: str) -> str:
    """The repetition parameter of *name* (a spec's ``reps`` sets it)."""
    return benchmark_row(name).reps_param


def runs_share_batches(name: str) -> bool:
    """Whether runs of *name* may execute together as one batch."""
    return benchmark_row(name).runs_share_batches


def get_benchmark(name: str, params: Mapping[str, Any] | None = None):
    """Construct benchmark *name* with parameter overrides *params*.

    >>> type(get_benchmark("syncbench")).__name__
    'Syncbench'
    """
    module, _, cls_name = benchmark_row(name).path.partition(":")
    cls = getattr(importlib.import_module(module), cls_name)
    try:
        return cls(cls.params_type(**(params or {})))
    except TypeError as exc:
        # a mistyped/unknown parameter (e.g. --param bogus=1, or a sweep
        # axis that matches no knob of this benchmark) fails the params
        # dataclass with TypeError; surface it as a configuration error
        raise ConfigurationError(
            f"bad parameters for benchmark {name.lower()!r}: {exc}"
        ) from exc


def available_benchmarks() -> tuple[str, ...]:
    return tuple(sorted(_BENCHMARKS))
