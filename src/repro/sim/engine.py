"""Placeholder for the retired discrete-event engine.

Nothing in the program queues events any more: the frequency logger
samples its fixed grid with a plain loop
(:mod:`repro.harness.freqlogger`), and the work-stealing scheduler runs
its own event loop (:mod:`repro.omp.tasking.scheduler`).  The class
below stays importable only because the end-to-end benchmark's layer
split (``benchmarks/e2e/traced_main.py``, ``LAYERS``) resolves
``Engine.run`` by path; the program never constructs it.  Drop it
together with that entry.
"""

from __future__ import annotations

__all__ = ["Engine"]


class Engine:
    """The ``sim.engine.run`` layer's path target; never constructed."""

    __slots__ = ()

    def run(self) -> None:
        raise NotImplementedError("the discrete-event engine is retired")
