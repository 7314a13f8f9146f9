"""Placement of un-pinned noise events onto logical CPUs.

The Linux scheduler wakes kernel threads on an idle CPU when one exists;
only on a saturated machine do they preempt application threads.  This is
the mechanism behind two of the paper's findings:

* sparing 2 CPUs (30/32 on Vera, 254/256 on Dardel) gives the OS somewhere
  to run, dramatically reducing variability at high thread counts, and
* the ST configuration leaves each core's second hardware thread idle,
  absorbing noise near the benchmark without preempting it.

:func:`idle_first_cpus` implements exactly that preference order:
fully-idle cores first, then idle SMT siblings of busy cores, then (machine
saturated) a uniformly random busy CPU — a preemption.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NoiseModelError
from repro.topology.hwthread import Machine


def idle_first_cpus(
    machine: Machine, busy_cpus: Sequence[int], n: int, rng: np.random.Generator
) -> np.ndarray:
    """The CPUs of *n* un-pinned events: idle cores → idle siblings →
    random busy CPU (preemption).

    The preference pool depends only on *busy_cpus*, so every event draws
    from the same pool, in one ``rng.choice(pool, size=n)``: the stream
    and the CPUs of *n* scalar ``choice(pool)`` calls (locked by
    ``tests/test_rng.py``).
    """
    busy = {int(c) for c in busy_cpus}
    # iterate the sorted view, not the set: set order is
    # insertion-dependent, and DET002 keeps loops order-stable even
    # where (as here) only an error message could observe the order
    for cpu in sorted(busy):
        if cpu >= machine.n_cpus:
            raise NoiseModelError(f"busy cpu {cpu} not on {machine.name}")
    busy_cores = {machine.hwthread(c).core_id for c in sorted(busy)}
    idle = [c for c in range(machine.n_cpus) if c not in busy]
    idle_free_cores = [c for c in idle if machine.hwthread(c).core_id not in busy_cores]
    idle_siblings = [c for c in idle if machine.hwthread(c).core_id in busy_cores]
    pool = idle_free_cores or idle_siblings or np.arange(machine.n_cpus)
    return rng.choice(pool, size=n)
