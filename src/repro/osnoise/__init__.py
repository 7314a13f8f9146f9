"""Operating-system noise substrate.

Models the extra-application activities the paper identifies as variability
sources: periodic timer ticks, kernel daemons (kworkers, housekeeping),
device interrupts, and rare long-running system events.  Each source
produces a marked point process of :class:`~repro.osnoise.source.NoiseEvent`
objects; a :class:`~repro.osnoise.placement.PlacementPolicy` decides which
logical CPU absorbs each event (idle CPUs first — this is the mechanism by
which the paper's "spare 2 cores" strategy and the ST configuration reduce
variability), and :class:`~repro.osnoise.model.NoiseModel` turns everything
into per-CPU preemption interval sets used by the execution model.
"""

from repro.osnoise.source import (
    NoiseEvent,
    NoiseSource,
    PoissonSource,
    TickBlock,
    TimerTickSource,
    placed,
)
from repro.osnoise.placement import IdleFirstPlacement, PinnedPlacement, PlacementPolicy
from repro.osnoise.model import NoiseModel, NoiseRealization, PlacedEvent
from repro.osnoise.profiles import (
    NoiseProfile,
    dardel_noise,
    noisy_profile,
    quiet_profile,
    vera_noise,
)

__all__ = [
    "NoiseEvent",
    "NoiseSource",
    "PoissonSource",
    "TickBlock",
    "TimerTickSource",
    "placed",
    "PlacementPolicy",
    "IdleFirstPlacement",
    "PinnedPlacement",
    "NoiseModel",
    "NoiseRealization",
    "PlacedEvent",
    "NoiseProfile",
    "dardel_noise",
    "vera_noise",
    "quiet_profile",
    "noisy_profile",
]
