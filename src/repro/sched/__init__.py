"""OS CPU-scheduler substrate.

Models the pieces of Linux CFS behaviour that the paper's unbound
(``OMP_PROC_BIND=false``) experiments exercise:

* **wakeup placement** — where newly woken OpenMP worker threads land
  (idle cores first, like ``select_idle_sibling``), including the
  imperfection that occasionally stacks two runnable threads on one CPU;
* **time sharing** — stacked threads alternate in scheduler slices, so a
  stacked thread's effective speed halves until the balancer fixes it;
* **load balancing** — stacking is resolved after a latency drawn from the
  balancer model (idle/periodic balance);
* **migrations** — unbound threads move between CPUs at a small rate, each
  move costing a cache/TLB refill penalty and, for memory-bound work,
  turning local pages into remote ones.

Bound (pinned) threads bypass all of this except per-fork wake IPIs, which
is precisely why pinning removes most run-to-run variability (Figure 4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sched.params": ["SchedParams"],
    "repro.sched.runqueue": ["RunqueueState"],
    "repro.sched.wakeup": ["WakeupPlacer"],
    "repro.sched.balancer": ["BalancerModel", "StackingEpisode"],
    "repro.sched.migration": ["MigrationModel", "MigrationEvent"],
    "repro.sched.model": ["ForkOutcome", "SchedulerModel"],
})
