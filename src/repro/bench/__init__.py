"""Benchmark implementations.

Faithful re-implementations of the paper's three benchmarks against the
simulated node:

* :mod:`repro.bench.epcc` — the EPCC OpenMP micro-benchmark machinery
  (``syncbench`` and ``schedbench`` with the paper's Table 1 parameters);
* :mod:`repro.bench.babelstream` — BabelStream's five vector kernels at
  the paper's array size of 2^25 doubles;
* :mod:`repro.bench.registry` — name-based lookup used by the CLI and the
  experiment harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.epcc.common": ["EpccStats", "epcc_stats", "target_innerreps"],
    "repro.bench.epcc.syncbench": [
        "Syncbench", "SyncbenchParams", "ConstructMeasurement",
    ],
    "repro.bench.epcc.schedbench": [
        "Schedbench", "SchedbenchParams", "ScheduleMeasurement",
    ],
    "repro.bench.babelstream": [
        "BabelStream", "BabelStreamParams", "StreamMeasurement",
        "KERNEL_BYTE_FACTORS",
    ],
    "repro.bench.registry": ["available_benchmarks", "get_benchmark"],
})
