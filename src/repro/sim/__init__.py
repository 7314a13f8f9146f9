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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.trace": ["PiecewiseConstant"],
    "repro.sim.intervals": ["IntervalSet"],
})
