"""Wakeup placement: where unbound worker threads land.

Mirrors the shape of CFS ``select_task_rq_fair``/``select_idle_sibling``:

1. prefer an idle *core* near the waker (same NUMA domain, then same
   socket, then anywhere), taking its first idle hardware thread;
2. else any idle hardware thread (an SMT sibling of a busy core);
3. else the least-loaded CPU (stacking — the thread will time-share).

A small per-thread stacking probability short-circuits the search even when
idle CPUs exist, modelling the limited search depth of the real scheduler
under fork storms — this is what occasionally hands an unbound OpenMP team
a stacked worker and a multi-millisecond region.

The pools are int64 arrays cached per waker CPU on the first unbound
placement, so bound teams never build them; pass 1 searches them cut to
each core's first hardware thread (``smt_index == 0``). Each wake derives
the idle-core and idle-CPU masks from the runqueue counts in one
vectorized pass, and each pass draws ``rng.choice(pool[mask[pool]])``. A
``choice`` draw depends only on the candidates' count, so this is the
draw, and the pick, of a choice over the pool's filtered list.
"""

from __future__ import annotations

import numpy as np

from repro.sched.params import SchedParams
from repro.sched.runqueue import RunqueueState
from repro.topology.hwthread import Machine


class WakeupPlacer:
    """Places woken threads onto CPUs given current runqueue state."""

    def __init__(self, machine: Machine, params: SchedParams):
        self.machine = machine
        self.params = params
        self._pools: dict[int, tuple[tuple[np.ndarray, ...], ...]] = {}

    def _candidate_order(
        self, waker_cpu: int
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """CPU pools in preference order relative to the waker's position,
        cut to the cores' first hardware threads, and whole."""
        pools = self._pools.get(waker_cpu)
        if pools is None:
            m = self.machine
            waker = m.hwthread(waker_cpu)
            same_numa = m.numa_domains[waker.numa_id].cpu_ids
            seen = set(same_numa)
            same_socket = [c for c in m.sockets[waker.socket_id].cpu_ids if c not in seen]
            seen.update(same_socket)
            rest = [c for c in range(m.n_cpus) if c not in seen]
            whole = (same_numa, same_socket, rest)
            heads = tuple(
                [c for c in pool if m.hwthread(c).smt_index == 0] for pool in whole
            )
            pools = tuple(
                tuple(np.asarray(p, dtype=np.int64) for p in order)
                for order in (heads, whole)
            )
            self._pools[waker_cpu] = pools
        return pools

    def place_one(
        self,
        waker_cpu: int,
        rq: RunqueueState,
        rng: np.random.Generator,
        allow_stacking_shortcut: bool = True,
    ) -> int:
        """Pick a CPU for one woken thread; does **not** update *rq*."""
        p = self.params
        # imperfect search: sometimes the scheduler settles for a loaded cpu
        load = rq.load_fraction()
        stacking_prob = min(1.0, p.stacking_prob_per_thread * (1.0 + 8.0 * load))
        if allow_stacking_shortcut and rng.random() < stacking_prob:
            return int(rng.integers(0, self.machine.n_cpus))

        head_pools, pools = self._candidate_order(waker_cpu)
        counts = rq.counts()
        # pass 1: idle core (no hw thread busy) in preference order;
        # pass 2: any idle hw thread
        for mask, order in ((rq.idle_core_mask(), head_pools), (counts == 0, pools)):
            for pool in order:
                idle = pool[mask[pool]]
                if idle.size:
                    return int(rng.choice(idle))
        # pass 3: least loaded cpu, ties broken randomly
        least = counts.min()
        candidates = np.flatnonzero(counts == least)
        return int(rng.choice(candidates))

    def place_team(
        self,
        n_threads: int,
        master_cpu: int,
        rng: np.random.Generator,
        external_busy: list[int] | None = None,
    ) -> list[int]:
        """Place an unbound team of *n_threads* (thread 0 = the master).

        The master stays where it is; workers are woken one by one, each
        placement updating the runqueue view (fork happens sequentially in
        the runtime).  *external_busy* marks CPUs busy with other work.
        """
        rq = RunqueueState(self.machine)
        for cpu in external_busy or ():
            rq.add(cpu)
        rq.add(master_cpu)
        cpus = [master_cpu]
        for _ in range(1, n_threads):
            cpu = self.place_one(master_cpu, rq, rng)
            rq.add(cpu)
            cpus.append(cpu)
        return cpus
