"""BabelStream (modelled): memory-bandwidth vector kernels.

The real benchmark allocates three arrays of ``2^25`` doubles and times
``num_times`` iterations of copy / mul / add / triad / dot, reporting the
min/avg/max time per kernel.  The paper normalizes min and max to the
average and compares across 10 runs (Figures 2, 3, 4c/4f, 5c/5f).

The modelled kernel time comes from the platform's NUMA bandwidth solver
(first-touch page placement, per-core link limits, remote-path penalties,
SMT link sharing), plus:

* OS noise in MAX mode (each kernel ends at a barrier),
* the reduction tree of ``dot``,
* unbound teams: spontaneous migrations move threads away from their
  pages mid-run, changing the path factors between iterations — this is
  what produces the up-to-6x min/max spread before pinning (Figure 4c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bench.epcc.common import require_finite, require_integers
from repro.errors import BenchmarkError
from repro.mem.bandwidth import BandwidthModel
from repro.mem.pages import PagePlacement
from repro.omp.region import NoiseMode, RegionExecutor
from repro.omp.runtime import RunContext
from repro.omp.team import Team
from repro.rng import RepStreams
from repro.types import StreamKernel
from repro.units import us

#: Bytes moved per array element for each kernel (read + write streams).
KERNEL_BYTE_FACTORS: dict[StreamKernel, int] = {
    StreamKernel.COPY: 2,
    StreamKernel.MUL: 2,
    StreamKernel.ADD: 3,
    StreamKernel.TRIAD: 3,
    StreamKernel.DOT: 2,
}


@dataclass(frozen=True)
class BabelStreamParams:
    """Paper configuration: default parameters, array size 2^25."""

    array_size: int = 2**25
    element_bytes: int = 8
    num_times: int = 100
    kernel_gap: float = us(5.0)

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.array_size <= 0 or self.element_bytes <= 0 or self.num_times <= 0:
            raise BenchmarkError("invalid BabelStream parameters")
        if self.kernel_gap < 0:
            raise BenchmarkError("negative kernel gap")

    @property
    def array_bytes(self) -> int:
        return self.array_size * self.element_bytes

    def kernel_bytes(self, kernel: StreamKernel) -> int:
        return KERNEL_BYTE_FACTORS[kernel] * self.array_bytes


class BabelStream:
    """The BabelStream driver; one instance is reusable across runs."""

    params_type = BabelStreamParams

    def __init__(self, params: BabelStreamParams | None = None):
        self.params = params if params is not None else BabelStreamParams()

    def horizon(self, n_threads: int) -> float:
        """A generous run duration for horizon sizing, priced without a
        run context: every kernel at 20 GB/s, with 4x slack."""
        p = self.params
        per_iter = 5 * p.array_bytes * 3 / 20e9 + 5 * p.kernel_gap
        return p.num_times * per_iter * 4.0 + 1.0

    def series(self, runs: Sequence[RunContext]) -> list[dict[str, np.ndarray]]:
        """Execute one full BabelStream run for every run of *runs* along
        the runs' timelines; per run, each kernel's ``num_times`` times
        under its name, in execution order.

        Bound teams draw each run's kernel jitter for all iterations up
        front.  Unbound teams (one run per executor) migrate during the
        run: the events are pre-sampled, the kernel costs re-priced when
        one moves the team, and the jitter drawn kernel by kernel.
        """
        p = self.params
        ex = RegionExecutor(runs)
        ctx = ex.runs[0]
        team = ctx.team
        bound = team.bound
        machine = ctx.machine
        bw_model = BandwidthModel(machine, ctx.runtime.platform.mem_spec)
        streams = RepStreams(tuple(run.stream("babelstream") for run in ex.runs))

        # first touch during parallel initialization at the current placement
        current_cpus = list(team.cpus)
        placement = PagePlacement.first_touch(machine, current_cpus)

        # unbound threads migrate during the run; pre-sample the events
        migrations = []
        if not bound:
            (rng,) = streams.generators
            est = self._estimate_duration(ctx, bw_model, placement)
            migrations = ctx.runtime.sched_model.sample_migrations(
                current_cpus, ctx.t, ctx.t + est * 1.5, rng
            )
        mig_idx = 0

        kernels = tuple(StreamKernel)
        steps = p.num_times * len(kernels)
        bases, syncs, sigma = self._kernel_costs(ctx, bw_model, team, placement)
        if bound:
            jitters = streams.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=steps)
        times = np.empty((ex.n_runs, steps))
        for step in range(steps):
            # apply migrations that happened before this kernel
            moved = False
            while mig_idx < len(migrations) and migrations[mig_idx].t <= ctx.t:
                ev = migrations[mig_idx]
                current_cpus[ev.thread] = ev.dst_cpu
                ex.advance(ev.penalty)
                mig_idx += 1
                moved = True
            if moved:
                team = team.with_cpus(current_cpus)
                bases, syncs, sigma = self._kernel_costs(ctx, bw_model, team, placement)

            kernel = step % len(kernels)
            if bound:
                jitter = jitters[:, step]
            else:
                jitter = float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
            base = bases[kernel] * jitter
            result = ex.execute(
                team,
                np.broadcast_to(np.reshape(base, (-1, 1)), (ex.n_runs, team.n_threads)),
                noise_mode=NoiseMode.MAX,
                sync_overhead=syncs[kernel],
                stacking_episodes=() if bound else ctx.fork.episodes,
                freq_sensitive=False,
            )
            duration = result.duration
            times[:, step] = duration
            ex.advance(duration + p.kernel_gap)

        return [
            {
                kernel.value: row[idx :: len(kernels)].copy()
                for idx, kernel in enumerate(kernels)
            }
            for row in times
        ]

    # -- helpers -------------------------------------------------------------

    def _kernel_costs(
        self,
        ctx: RunContext,
        bw_model: BandwidthModel,
        team: Team,
        placement: PagePlacement,
    ) -> tuple[list[float], list[float], float]:
        """Per-kernel base time and sync cost, and the jitter sigma, for
        *team*'s current placement."""
        p = self.params
        n = team.n_threads
        cpus = list(team.cpus)
        bases = []
        syncs = []
        for kernel in StreamKernel:
            bytes_per_thread = np.full(n, p.kernel_bytes(kernel) / n)
            bases.append(
                bw_model.kernel_time(
                    bytes_per_thread, cpus, placement, smt_shared=team.smt_shared
                )
            )
            sync = 0.0
            if kernel is StreamKernel.DOT:
                sync = (
                    ctx.sync_cost.barrier_cost(team)
                    + n * ctx.sync_cost.params.atomic_rmw
                )
            syncs.append(sync)
        sigma = bw_model.jitter_sigma(cpus, placement, smt_shared=team.smt_shared)
        return bases, syncs, sigma

    def _estimate_duration(
        self, ctx: RunContext, bw_model: BandwidthModel, placement: PagePlacement
    ) -> float:
        p = self.params
        n = ctx.team.n_threads
        per_iter = 0.0
        for kernel in StreamKernel:
            per_iter += bw_model.kernel_time(
                np.full(n, p.kernel_bytes(kernel) / n),
                list(ctx.team.cpus),
                placement,
            )
            per_iter += p.kernel_gap
        return p.num_times * per_iter
