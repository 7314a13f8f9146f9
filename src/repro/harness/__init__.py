"""Experiment harness.

Turns configurations into results:

* :class:`~repro.harness.config.ExperimentConfig` — one benchmark launch
  configuration (platform, threads, binding, repetitions, seed);
* :class:`~repro.harness.runner.Runner` — executes N independent runs,
  optionally with the frequency logger on a spare core;
* :class:`~repro.harness.parallel.Sweep` — the one execution path for
  many configs: cache lookups, one backend call over the misses,
  write-back and telemetry, for a whole study or one shard of it,
  bit-identical to serial execution;
* :mod:`repro.harness.backend` — the execution backends ``--jobs``
  picks between (serial in-process, a process pool);
* :mod:`repro.harness.shard` — content-addressed shard assignment,
  shard manifests and the gather step that assembles a sharded run into
  one study result;
* :class:`~repro.harness.study.Study` /
  :class:`~repro.harness.study.StudyResult` — declarative sweep specs
  (grid/zip/cases axes, derived fields, filters) executed through one
  ``Sweep``, with tidy long-form records and CSV/JSON export;
* :class:`~repro.harness.cache.ResultCache` — on-disk result cache keyed
  by config + seed + code version;
* :mod:`repro.harness.results` — result containers with JSON round-trip;
* :mod:`repro.harness.freqlogger` — the simulated background frequency
  logger (a :mod:`repro.sim` process sampling the simulated sysfs);
* :mod:`repro.harness.report` — ASCII tables and series renderers;
* :mod:`repro.harness.experiments` — one driver per paper table/figure.
"""

from repro.harness.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.freqlogger import FrequencyLog, FrequencyLogger
from repro.harness.parallel import Sweep
from repro.harness.results import ExperimentResult, RunRecord
from repro.harness.runner import Runner
from repro.harness.shard import (
    ReplayCache,
    ShardRunComplete,
    ShardSummary,
    parse_shard,
    shard_index_of,
)
from repro.harness.study import Study, StudyResult
from repro.harness import experiments
from repro.harness import report

__all__ = [
    "ExperimentConfig",
    "Runner",
    "Sweep",
    "Study",
    "StudyResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardRunComplete",
    "ShardSummary",
    "ReplayCache",
    "parse_shard",
    "shard_index_of",
    "ResultCache",
    "cache_key",
    "RunRecord",
    "ExperimentResult",
    "FrequencyLogger",
    "FrequencyLog",
    "experiments",
    "report",
]
