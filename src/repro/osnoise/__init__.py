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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.osnoise.source": [
        "NoiseSource", "PoissonSource", "TickBlock", "TimerTickSource",
    ],
    "repro.osnoise.placement": ["idle_first_cpus"],
    "repro.osnoise.model": ["NoiseModel", "NoiseRealization"],
    "repro.osnoise.profiles": [
        "NoiseProfile", "dardel_noise", "vera_noise", "quiet_profile",
        "noisy_profile",
    ],
})
