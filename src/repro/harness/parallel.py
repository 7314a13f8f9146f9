"""Batch execution of experiment runs: the one path every sweep takes.

The paper's evaluation is a sweep of *independent* benchmark runs: the named
RNG streams in :mod:`repro.rng` derive every run's realization from
``(master seed, run index)`` alone, so run 7 is the same realization whether
it is simulated alone, serially after runs 0-6, or concurrently on another
process.  That makes fan-out trivially deterministic: each worker
reconstructs the platform + runtime from the (picklable) config and executes
run batches by index, and the parent reassembles records in run order.  The
output is therefore *bit-identical* to the serial :class:`Runner`.

:class:`Sweep` owns batch *policy* — which configs this worker owns,
cache lookups, write-back, result ordering, telemetry — and delegates
the *mechanism* of simulating cache-missed configs to an
:class:`~repro.harness.backend.ExecutionBackend` (serial in-process, or
a shared process pool interleaved round-robin by run index).  Whole and
sharded sweeps take the same path: a sweep with ``shard=(i, n)`` owns
only the configs :func:`~repro.harness.shard.shard_members` assigns to
shard ``i`` of ``n``, and after committing them it writes a shard
manifest and raises :class:`~repro.harness.shard.ShardRunComplete`
instead of returning — a shard has no complete result set to hand back
(see :mod:`repro.harness.shard` and ``repro-omp gather``).

Pool workers keep a per-process table of constructed runners keyed by the
config's cache key, so a config's platform/runtime/benchmark stack is built
at most once per worker rather than once per run.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import HarnessError
from repro.harness.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_jobs,
)
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult
from repro.harness.shard import (
    ShardRunComplete,
    ShardSummary,
    check_shard,
    shard_members,
    write_shard_manifest,
)
from repro.obs.metrics import MetricsRegistry

__all__ = ["Sweep", "resolve_jobs"]


class Sweep:
    """Batch executor: many configs, one execution backend, one cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` executes serially in-process (the
        degenerate case, no pool); ``None``/``0`` use every core.
        Ignored when an explicit *backend* is given.
    cache:
        Optional :class:`ResultCache`.  Each config is looked up before
        scheduling; finished results (cached or fresh) are written back.
        Mandatory with *shard* — the shared cache directory *is* the
        channel shard workers communicate results through.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` (plane 2 of
        :mod:`repro.obs`).  When given, each :meth:`run` records config
        counts (total/cached/simulated), cache hit/miss/store deltas,
        per-run and per-config wall times, pool worker count and
        utilization, queue-wait times and, with *shard*, per-shard
        assigned/simulated/cached counts.  Telemetry only — results are
        byte-identical with or without it.
    backend:
        Explicit :class:`~repro.harness.backend.ExecutionBackend`.  When
        ``None`` (the default), *jobs* picks one:
        :class:`~repro.harness.backend.SerialBackend` for one worker,
        :class:`~repro.harness.backend.ProcessPoolBackend` otherwise.
    shard:
        ``(shard_index, shard_count)``: execute only the configs this
        shard of an N-way partition owns, then write its manifest and
        raise :class:`~repro.harness.shard.ShardRunComplete`.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        backend: ExecutionBackend | None = None,
        shard: tuple[int, int] | None = None,
    ):
        if shard is not None:
            shard = check_shard(shard)
            if cache is None:
                raise HarnessError(
                    "sharded execution requires a shared cache (--cache-dir): "
                    "the cache directory is how shard workers publish results "
                    "for gather"
                )
        if backend is None:
            n = resolve_jobs(jobs)
            backend = SerialBackend() if n == 1 else ProcessPoolBackend(n)
        self.backend = backend
        self.jobs = backend.workers
        self.cache = cache
        self.metrics = metrics
        self.shard = shard
        #: Wall seconds each config of the most recent :meth:`run` took
        #: (aligned with its ``configs`` argument; cache hits cost ~0).
        #: The Study layer aggregates these per axis value.
        self.last_config_walls: list[float] = []

    def run(self, configs: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
        """Execute every config; results come back in input order.

        With *shard* this executes the shard's configs, writes the shard
        manifest, and raises :class:`~repro.harness.shard.ShardRunComplete`
        — see the module docstring.
        """
        configs = list(configs)
        owned = (
            range(len(configs)) if self.shard is None
            else shard_members(configs, self.shard)
        )
        results: list[ExperimentResult | None] = [None] * len(configs)
        walls = [0.0] * len(configs)
        cache = self.cache
        cache_before = (
            (cache.hits, cache.misses, cache.stores) if cache is not None else None
        )

        pending: list[tuple[int, ExperimentConfig, str]] = []
        for i in owned:
            cfg = configs[i]
            if cache is not None:
                hit = cache.get(cfg)
                if hit is not None:
                    results[i] = hit
                    continue
            pending.append((i, cfg, cache_key(cfg)))

        if pending:
            outcomes = self.backend.execute(
                [(cfg, key) for _i, cfg, key in pending], self.metrics
            )
            for (i, _cfg, _key), (result, wall) in zip(pending, outcomes):
                results[i] = result
                walls[i] = wall
            if cache is not None:
                for i, _cfg, _key in pending:
                    cache.put(results[i])

        self.last_config_walls = walls
        if self.metrics is not None:
            self._record_metrics(
                self.metrics, len(configs), len(owned), pending, results,
                walls, cache_before,
            )
        if self.shard is not None:
            self._complete_shard(configs, owned, len(pending))
        return results  # type: ignore[return-value]

    def _complete_shard(
        self, configs: list[ExperimentConfig], owned: Sequence[int],
        simulated: int,
    ) -> None:
        """Record the manifest covering the shard's *whole* owned set
        (hits included — the manifest describes coverage, not work) and
        raise :class:`ShardRunComplete` with the summary."""
        index, count = self.shard
        manifest = write_shard_manifest(
            self.cache,
            index,
            count,
            [configs[i] for i in owned],
            telemetry=self.metrics.to_dict() if self.metrics is not None else None,
        )
        raise ShardRunComplete(ShardSummary(
            shard_index=index,
            shard_count=count,
            configs_total=len(configs),
            assigned=len(owned),
            simulated=simulated,
            cached=len(owned) - simulated,
            manifest_path=manifest,
        ))

    def _record_metrics(
        self,
        m: MetricsRegistry,
        n_configs: int,
        n_owned: int,
        pending: list[tuple[int, ExperimentConfig, str]],
        results: list[ExperimentResult | None],
        walls: list[float],
        cache_before: tuple[int, int, int] | None,
    ) -> None:
        m.gauge("pool_workers").set(self.jobs)
        m.counter("configs_total").inc(n_configs)
        m.counter("configs_simulated").inc(len(pending))
        m.counter("configs_cached").inc(n_owned - len(pending))
        if self.shard is not None:
            label = f"{self.shard[0]}/{self.shard[1]}"
            m.counter("shard_configs_assigned", shard=label).inc(n_owned)
            m.counter("shard_configs_simulated", shard=label).inc(len(pending))
            m.counter("shard_configs_cached", shard=label).inc(
                n_owned - len(pending)
            )
        for i, _cfg, _key in pending:
            m.histogram("config_wall_seconds").observe(walls[i])
            for rec in results[i].records:
                if rec.wall_seconds is not None:
                    m.histogram("run_wall_seconds").observe(rec.wall_seconds)
        if cache_before is not None and self.cache is not None:
            h0, mi0, s0 = cache_before
            m.counter("cache_hits").inc(self.cache.hits - h0)
            m.counter("cache_misses").inc(self.cache.misses - mi0)
            m.counter("cache_stores").inc(self.cache.stores - s0)
