"""Operating-system noise substrate.

Models the extra-application activities the paper identifies as variability
sources: periodic timer ticks, kernel daemons (kworkers, housekeeping),
device interrupts, and rare long-running system events.  Noise is arrays
end to end.  A profile has at most one
:class:`~repro.osnoise.source.TimerTickSource`, whose ticks on the busy
CPUs form one :class:`~repro.osnoise.source.TickBlock`; every other
source samples ``(starts, durations, cpus)`` arrays.  Events without a
CPU of their own are placed by
:func:`~repro.osnoise.placement.idle_first_cpus` (idle CPUs first — this
is the mechanism by which the paper's "spare 2 cores" strategy and the ST
configuration reduce variability), and
:class:`~repro.osnoise.model.NoiseModel` keeps everything in a
:class:`~repro.osnoise.model.NoiseRealization` that answers the execution
model's per-CPU preemption queries.
"""

from repro.osnoise.source import (
    NoiseSource,
    PoissonSource,
    TickBlock,
    TimerTickSource,
)
from repro.osnoise.placement import idle_first_cpus
from repro.osnoise.model import NoiseModel, NoiseRealization
from repro.osnoise.profiles import (
    NoiseProfile,
    dardel_noise,
    noisy_profile,
    quiet_profile,
    vera_noise,
)

__all__ = [
    "NoiseSource",
    "PoissonSource",
    "TickBlock",
    "TimerTickSource",
    "idle_first_cpus",
    "NoiseModel",
    "NoiseRealization",
    "NoiseProfile",
    "dardel_noise",
    "vera_noise",
    "quiet_profile",
    "noisy_profile",
]
