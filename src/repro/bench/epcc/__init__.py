"""EPCC OpenMP micro-benchmark suite (modelled).

Re-implements the measurement methodology of Bull's EPCC micro-benchmarks:
a reference (serial) timing of the delay loop, inner-repetition targeting
so each test lasts ~``targettesttime`` and ``outer_repetitions`` timed
tests.  The statistics the suite prints over those tests (mean, sd, min,
max, 3-sigma outliers) come from :func:`repro.stats.summarize` and
:func:`repro.stats.sigma_outliers`.

Paper parameters (Table 1): both benchmarks use 100 outer repetitions and
a 1000 us target test time; ``schedbench`` uses a 15 us delay and
``itersperthr = 8192``; ``syncbench`` uses a 0.1 us delay.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.epcc.common": ["target_innerreps"],
    "repro.bench.epcc.syncbench": ["Syncbench", "SyncbenchParams"],
    "repro.bench.epcc.schedbench": ["Schedbench", "SchedbenchParams"],
})
