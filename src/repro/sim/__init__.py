"""Simulation substrate: the time-varying signals the models share.

* :class:`~repro.sim.trace.PiecewiseConstant` — right-continuous step
  signals with exact integration, used for per-core frequency traces and
  logger output.
* :class:`~repro.sim.intervals.IntervalSet` — sorted disjoint interval
  algebra used for noise/occupancy accounting.

There is no general event queue: the work-stealing scheduler
(:mod:`repro.omp.tasking.scheduler`) runs its own event loop, and the
frequency logger (:mod:`repro.harness.freqlogger`) samples a fixed grid.
"""

from repro.sim.trace import PiecewiseConstant
from repro.sim.intervals import IntervalSet

__all__ = [
    "PiecewiseConstant",
    "IntervalSet",
]
