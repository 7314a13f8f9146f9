"""Modelled OpenMP runtime.

Implements the runtime mechanisms the paper's benchmarks exercise:

* :mod:`repro.omp.env` / :mod:`repro.omp.places` /
  :mod:`repro.omp.proc_bind` — the ``OMP_NUM_THREADS`` / ``OMP_PLACES`` /
  ``OMP_PROC_BIND`` machinery (parsing, place construction, the
  close/spread/master binding algorithms);
* :mod:`repro.omp.team` — thread teams and their CPU assignments;
* :mod:`repro.omp.schedule` — worksharing-loop schedules
  (static/dynamic/guided with chunk sizes) including the central-queue
  contention model behind schedbench's ``dynamic_1`` numbers;
* :mod:`repro.omp.vendor` — runtime-vendor profiles (GCC libgomp vs LLVM
  libomp): barrier algorithms, wait policies, per-vendor constant scales;
* :mod:`repro.omp.constructs` — cost models for every synchronization
  construct syncbench measures, parameterized by the vendor profile;
* :mod:`repro.omp.region` — the parallel-region executor combining work,
  frequency traces, OS noise, SMT sharing and scheduler behaviour;
* :mod:`repro.omp.tasking` — the explicit-tasking runtime: per-thread
  deques, the work-stealing scheduler, ``taskloop``/recursive workload
  generators and their cost model;
* :mod:`repro.omp.runtime` — the user-facing facade.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.omp.env": ["OMPEnvironment"],
    "repro.omp.places": ["Place", "parse_places"],
    "repro.omp.vendor": [
        "BarrierAlgorithm", "RuntimeProfile", "WaitPolicy",
        "available_runtimes", "default_profile", "get_runtime_profile",
    ],
    "repro.omp.proc_bind": ["bind_threads", "assign_cpus"],
    "repro.omp.team": ["Team"],
    "repro.omp.schedule": ["LoopPlan", "ScheduleCostParams", "plan_loop"],
    "repro.omp.constructs": [
        "SyncCostModel", "SyncCostParams", "ConstructProfile",
    ],
    "repro.omp.region": [
        "NoiseMode", "RegionExecutor", "RegionParams", "RegionResult",
    ],
    "repro.omp.tasking": [
        "Task", "TaskCostModel", "TaskCostParams", "TaskRunStats",
        "WorkStealingScheduler",
    ],
    "repro.omp.runtime": ["OpenMPRuntime"],
})
