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

from repro.omp.env import OMPEnvironment
from repro.omp.places import Place, parse_places
from repro.omp.vendor import (
    BarrierAlgorithm,
    RuntimeProfile,
    WaitPolicy,
    available_runtimes,
    default_profile,
    get_runtime_profile,
)
from repro.omp.proc_bind import assign_cpus, bind_threads
from repro.omp.team import Team
from repro.omp.schedule import LoopPlan, ScheduleCostParams, plan_loop
from repro.omp.constructs import ConstructProfile, SyncCostModel, SyncCostParams
from repro.omp.region import NoiseMode, RegionExecutor, RegionParams, RegionResult
from repro.omp.tasking import (
    Task,
    TaskCostModel,
    TaskCostParams,
    TaskRunStats,
    WorkStealingScheduler,
)
from repro.omp.runtime import OpenMPRuntime

__all__ = [
    "OMPEnvironment",
    "Place",
    "parse_places",
    "BarrierAlgorithm",
    "RuntimeProfile",
    "WaitPolicy",
    "available_runtimes",
    "default_profile",
    "get_runtime_profile",
    "bind_threads",
    "assign_cpus",
    "Team",
    "LoopPlan",
    "ScheduleCostParams",
    "plan_loop",
    "SyncCostModel",
    "SyncCostParams",
    "ConstructProfile",
    "NoiseMode",
    "RegionExecutor",
    "RegionParams",
    "RegionResult",
    "Task",
    "TaskCostModel",
    "TaskCostParams",
    "TaskRunStats",
    "WorkStealingScheduler",
    "OpenMPRuntime",
]
