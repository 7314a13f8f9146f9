"""Benchmark implementations.

Faithful re-implementations of the paper's three benchmarks against the
simulated node, plus a tasking micro-benchmark:

* :mod:`repro.bench.epcc` — the EPCC OpenMP micro-benchmark machinery
  (``syncbench`` and ``schedbench`` with the paper's Table 1 parameters);
* :mod:`repro.bench.babelstream` — BabelStream's five vector kernels at
  the paper's array size of 2^25 doubles;
* :mod:`repro.bench.taskbench` — an EPCC-taskbench-style tasking
  micro-benchmark on the work-stealing scheduler;
* :mod:`repro.bench.registry` — the one name table, which states the
  protocol every benchmark follows (``params_type``, ``horizon``,
  ``series``) and constructs them for the CLI and the experiment harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.epcc.common": ["target_innerreps"],
    "repro.bench.epcc.syncbench": ["Syncbench", "SyncbenchParams"],
    "repro.bench.epcc.schedbench": ["Schedbench", "SchedbenchParams"],
    "repro.bench.babelstream": [
        "BabelStream", "BabelStreamParams", "KERNEL_BYTE_FACTORS",
    ],
    "repro.bench.registry": ["available_benchmarks", "get_benchmark"],
})
