"""Discrete-event simulation substrate.

This package provides the small simulation kernel the rest of the library is
built on:

* :class:`~repro.sim.clock.Clock` — monotonic simulated time.
* :class:`~repro.sim.engine.Engine` — an event loop over a priority queue,
  supporting plain callbacks and generator-based processes.
* :class:`~repro.sim.trace.PiecewiseConstant` — right-continuous step
  signals with exact integration, used for per-core frequency traces and
  logger output.
* :class:`~repro.sim.intervals.IntervalSet` — sorted disjoint interval
  algebra used for noise/occupancy accounting.
"""

from repro.sim.clock import Clock
from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.process import Process, Timeout
from repro.sim.trace import PiecewiseConstant
from repro.sim.intervals import IntervalSet

__all__ = [
    "Clock",
    "Engine",
    "ScheduledEvent",
    "Process",
    "Timeout",
    "PiecewiseConstant",
    "IntervalSet",
]
