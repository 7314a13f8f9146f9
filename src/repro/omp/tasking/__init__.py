"""Explicit-tasking runtime: work-stealing scheduler, workloads.

The subsystem models the *other half* of an OpenMP runtime — explicit
tasks (``task`` / ``taskloop``) executed by a per-thread-deque
work-stealing scheduler — on the same simulated substrate (frequency
traces, OS noise, topology-priced operations) the worksharing models use:

* :mod:`repro.omp.tasking.params` — :class:`TaskCostParams` /
  :class:`TaskCostModel`, the tasking analogue of the sync-construct cost
  model;
* :mod:`repro.omp.tasking.task` — task-graph descriptors;
* :mod:`repro.omp.tasking.workloads` — ``taskloop`` chunking
  (grainsize / num_tasks), recursive fib-style trees, EPCC-taskbench-style
  flat bags;
* :mod:`repro.omp.tasking.scheduler` — the discrete-event work-stealing
  scheduler over per-thread owner-LIFO / thief-FIFO deques, with seeded
  random victim selection.
"""

from repro.omp.tasking.params import TaskCostModel, TaskCostParams
from repro.omp.tasking.scheduler import TaskRunStats, WorkStealingScheduler
from repro.omp.tasking.task import Task
from repro.omp.tasking.workloads import fib_tasks, taskloop_tasks, uniform_tasks

__all__ = [
    "Task",
    "TaskCostParams",
    "TaskCostModel",
    "TaskRunStats",
    "WorkStealingScheduler",
    "taskloop_tasks",
    "fib_tasks",
    "uniform_tasks",
]
