"""repro — reproduction of "Analysis and Characterization of Performance
Variability for OpenMP Runtime" (SC-W 2023, arXiv:2311.05267).

The library simulates a multicore NUMA node (topology, DVFS, OS noise,
scheduler, memory system), models an OpenMP runtime on top of it, re-implements
the paper's benchmarks (EPCC syncbench/schedbench, BabelStream), and provides
a statistics + harness layer that regenerates every table and figure of the
paper's evaluation.

Quickstart
----------
>>> from repro import experiments
>>> result = experiments.figure1(runs=3, outer_reps=10, seed=1)
>>> print(result.render())                                    # doctest: +SKIP

Declare a custom sweep without writing a driver (see docs/study.md)::

>>> from repro import ExperimentConfig, Study
>>> res = (Study(ExperimentConfig(benchmark="syncbench", runs=3))
...        .grid(num_threads=[4, 8], runtime=["gnu", "llvm"])
...        .run(jobs=0))                                      # doctest: +SKIP
>>> res.group_summaries("num_threads")                        # doctest: +SKIP
"""

#: Bumped to 1.2.0 by the runtime-vendor subsystem: `ExperimentConfig` grew
#: ``runtime`` / ``wait_policy`` fields (part of the cache key), so every
#: pre-1.2 cache entry is invalidated rather than replayed against the new
#: semantics.  Bumped to 1.3.0 when noise intervals moved to integer
#: simulated nanoseconds: cache entries hold full-precision results of the
#: old float-sum overlap semantics and must not replay.
__version__ = "1.3.0"

# Public names resolve on first access (PEP 562), so `import repro` stays
# cheap and subpackages load on demand.
from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.topology": [
        "Machine", "CpuSet", "TopologyBuilder", "dardel_topology",
        "vera_topology",
    ],
    "repro.platform": ["Platform", "dardel", "vera", "get_platform"],
    "repro.rng": ["RngFactory"],
    "repro.omp": [
        "OMPEnvironment", "OpenMPRuntime", "RuntimeProfile", "WaitPolicy",
        "get_runtime_profile", "available_runtimes",
    ],
    "repro.omp.tasking": ["Task", "TaskCostParams", "WorkStealingScheduler"],
    "repro.harness": [
        "ExperimentConfig", "Runner", "Sweep", "Study", "StudyResult",
        "ResultCache", "experiments",
    ],
    "repro.types": [
        "ProcBind", "ScheduleKind", "SyncConstruct", "StreamKernel",
    ],
})
__all__ = ["__version__", *__all__]
