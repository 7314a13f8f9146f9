"""Frequency / DVFS substrate.

Generates per-core frequency traces (right-continuous step signals) for a
simulation window, combining:

* a **boost table** — the sustainable frequency as a function of how many
  cores are active (turbo licensing / package power budget),
* a **governor** — the policy picking the target frequency (the paper's
  Vera runs the ``performance`` governor),
* a **dip process** — stochastic transient frequency drops whose rate grows
  when the workload spans NUMA domains (the behaviour the paper observes on
  Vera in Figures 6 and 7; Dardel is configured much steadier),
* per-core p-state jitter quantized to the platform's frequency step.

The resulting :class:`~repro.freq.dvfs.FrequencyPlan` answers the execution
model's question "how long does it take cpu *c* to retire *W* cycles
starting at time *t*", and its per-CPU snapshot is what the frequency
logger samples in place of the sysfs ``scaling_cur_freq`` files.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.freq.power": ["BoostTable"],
    "repro.freq.governor": [
        "Governor", "PerformanceGovernor", "PowersaveGovernor",
        "OndemandGovernor", "SchedutilGovernor", "make_governor",
    ],
    "repro.freq.variation": ["DerateProcess", "DipProcess", "FrequencyDip"],
    "repro.freq.dvfs": ["FrequencyModel", "FrequencyPlan", "FrequencySpec"],
})
