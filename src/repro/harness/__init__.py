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
  logger (it samples the run's frequency plan, in kHz, on a fixed grid of
  sample times);
* :mod:`repro.harness.report` — ASCII tables and series renderers;
* :mod:`repro.harness.experiments` — one driver per paper table/figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.harness.config": ["ExperimentConfig"],
    "repro.harness.runner": ["Runner"],
    "repro.harness.parallel": ["Sweep"],
    "repro.harness.study": ["Study", "StudyResult"],
    "repro.harness.backend": [
        "ExecutionBackend", "SerialBackend", "ProcessPoolBackend",
    ],
    "repro.harness.shard": [
        "ShardRunComplete", "ShardSummary", "ReplayCache", "parse_shard",
        "shard_index_of",
    ],
    "repro.harness.cache": ["ResultCache", "cache_key"],
    "repro.harness.results": ["RunRecord", "ExperimentResult"],
    "repro.harness.freqlogger": ["FrequencyLogger", "FrequencyLog"],
    "repro.harness.experiments": ["experiments"],
    "repro.harness.report": ["report"],
})
