"""EPCC OpenMP micro-benchmark suite (modelled).

Re-implements the measurement methodology of Bull's EPCC micro-benchmarks:
a reference (serial) timing of the delay loop, inner-repetition targeting
so each test lasts ~``targettesttime``, ``outer_repetitions`` timed tests,
and the 3-sigma outlier statistics the suite prints.

Paper parameters (Table 1): both benchmarks use 100 outer repetitions and
a 1000 us target test time; ``schedbench`` uses a 15 us delay and
``itersperthr = 8192``; ``syncbench`` uses a 0.1 us delay.
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
})
