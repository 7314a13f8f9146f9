"""Execution backends for the sweep engine.

:class:`~repro.harness.parallel.Sweep` owns the *policy* of a batch run —
which configs this worker owns, cache lookups, result ordering,
telemetry — and delegates the *mechanism* of simulating the
configurations that missed the cache to an :class:`ExecutionBackend`.
Two backends implement the protocol, and ``Sweep(jobs=...)`` picks one:

* :class:`SerialBackend` — simulate in-process, one config at a time (the
  ``jobs=1`` path);
* :class:`ProcessPoolBackend` — fan run batches out over a
  ``ProcessPoolExecutor``, one pool task per batch, interleaved
  round-robin across configs (the ``jobs=N`` path).

Every backend executes a config's runs in the batches
:meth:`~repro.harness.runner.Runner.batches` picks from the config alone
(all runs of a bound, untraced region benchmark together; one run per
batch otherwise), and all of them produce results *bit-identical* to
serial execution: a backend only decides where and in what order batches
simulate, never what they compute (the named RNG streams derive every run
from ``(master seed, run index)`` alone).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult, RunRecord
from repro.harness.runner import Runner, run_batches

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "resolve_jobs",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a job-count request: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return jobs


class ExecutionBackend:
    """Protocol: simulate a batch of cache-missed configurations.

    :meth:`execute` receives ``(config, cache_key)`` pairs and returns a
    list aligned with its input of ``(ExperimentResult, wall_seconds)``
    tuples, one per config.  ``wall_seconds`` is telemetry — the wall
    time the config's simulation consumed (summed across workers for
    pooled execution) — and never flows into results or cache keys.
    """

    @property
    def workers(self) -> int:
        """Worker processes this backend occupies (1 for in-process)."""
        return 1

    def execute(
        self,
        pending: Sequence[tuple[ExperimentConfig, str]],
        metrics: "MetricsRegistry | None" = None,
    ) -> list[tuple[ExperimentResult, float]]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Simulate every pending config in-process, in input order."""

    def execute(
        self,
        pending: Sequence[tuple[ExperimentConfig, str]],
        metrics: "MetricsRegistry | None" = None,
    ) -> list[tuple[ExperimentResult, float]]:
        out: list[tuple[ExperimentResult, float]] = []
        for cfg, _key in pending:
            t_cfg = time.time()
            runner = Runner(cfg)
            records = []
            for batch in runner.batches():
                t_batch = time.time()
                records += _stamped(runner.run_batch(batch), "main", t_batch)
            result = ExperimentResult(config=cfg, records=tuple(records))
            out.append((result, time.time() - t_cfg))
        return out


def _stamped(
    records: list[RunRecord], worker_id: str, t_started: float
) -> list[RunRecord]:
    """*records* of one batch stamped with execution provenance: the
    worker id and the batch's wall time split evenly over its runs (both
    ``compare=False`` and never serialized, see
    :class:`~repro.harness.results.RunRecord`)."""
    per_run = (time.time() - t_started) / len(records)
    return [
        replace(rec, worker_id=worker_id, wall_seconds=per_run)
        for rec in records
    ]


#: Per-worker-process table of constructed runners (config key -> Runner).
_WORKER_RUNNERS: dict[str, Runner] = {}


def _execute_batch(
    key: str, config: ExperimentConfig, run_indices: tuple[int, ...]
) -> tuple[list[RunRecord], float]:
    """Worker entry point: simulate one batch of *config*'s runs.

    Returns the provenance-stamped records alongside the wall time at
    which the worker actually started — the parent subtracts its submit
    time to measure queue wait.
    """
    t_started = time.time()
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = _WORKER_RUNNERS[key] = Runner(config)
    records = runner.run_batch(run_indices)
    return _stamped(records, f"pid{os.getpid()}", t_started), t_started


class ProcessPoolBackend(ExecutionBackend):
    """Fan the run batches of every pending config out over a process pool.

    Each batch (see :meth:`~repro.harness.runner.Runner.batches`) is one
    pool task.  Batches are interleaved round-robin across configs so
    every config makes progress from the start instead of whole configs
    queueing FIFO; the parent reassembles records in run order, so
    results are bit-identical to serial execution.

    With ``persistent=True`` the executor is created lazily on first use
    and reused across :meth:`execute` calls until :meth:`close` — the job
    service multiplexes every job over one such backend, so concurrent
    jobs share a single pool instead of each paying pool startup and
    oversubscribing the host.  ``submit`` on a ``ProcessPoolExecutor`` is
    thread-safe, so concurrent ``execute`` calls interleave safely; only
    the lazy construction needs the lock.
    """

    def __init__(
        self,
        jobs: int | None = None,
        persistent: bool = False,
    ):
        self.jobs = resolve_jobs(jobs)
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self.jobs

    def _acquire_pool(self, task_count: int) -> tuple[ProcessPoolExecutor, bool]:
        """Executor for one batch plus whether the caller owns (must close) it."""
        if not self.persistent:
            return (
                ProcessPoolExecutor(max_workers=min(self.jobs, task_count)),
                True,
            )
        with self._pool_lock:
            if self._pool is None:
                # shared across batches, so size by the configured job
                # count rather than any one batch's task count
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return self._pool, False

    def close(self) -> None:
        """Shut down the persistent executor (no-op for per-batch pools)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def execute(
        self,
        pending: Sequence[tuple[ExperimentConfig, str]],
        metrics: "MetricsRegistry | None" = None,
    ) -> list[tuple[ExperimentResult, float]]:
        if not pending:
            return []
        # the k-th batch of every config is submitted before any config's
        # (k+1)-th, so every config makes progress from the start
        batches = [run_batches(cfg) for cfg, _key in pending]
        tasks = sorted(
            (k, i) for i, config_batches in enumerate(batches)
            for k in range(len(config_batches))
        )
        max_workers = min(self.jobs, len(tasks))
        m = metrics
        out: list[tuple[ExperimentResult, float]] = []
        t_pool = time.time()
        pool, owned = self._acquire_pool(len(tasks))
        try:
            submits: dict[tuple[int, int], float] = {}
            futures = {}
            for k, i in tasks:
                cfg, key = pending[i]
                submits[(i, k)] = time.time()
                futures[(i, k)] = pool.submit(
                    _execute_batch, key, cfg, batches[i][k]
                )
            for i, (cfg, _key) in enumerate(pending):
                records = []
                for k in range(len(batches[i])):
                    batch_records, t_started = futures[(i, k)].result()
                    records += batch_records
                    if m is not None:
                        m.histogram("queue_wait_seconds").observe(
                            max(0.0, t_started - submits[(i, k)])
                        )
                result = ExperimentResult(config=cfg, records=tuple(records))
                # pooled configs report the CPU time their runs consumed
                # (batch walls overlap across workers, so elapsed is not it)
                out.append((result, sum(r.wall_seconds or 0.0 for r in records)))
        finally:
            if owned:
                pool.shutdown(wait=True)
        if m is not None:
            elapsed = time.time() - t_pool
            busy = sum(wall for _result, wall in out)
            m.gauge("pool_elapsed_seconds").set(elapsed)
            m.gauge("pool_utilization").set(
                min(1.0, busy / (elapsed * max_workers)) if elapsed > 0 else 0.0
            )
            used = {
                rec.worker_id for result, _wall in out for rec in result.records
            }
            m.gauge("pool_workers_used").set(len(used))
        return out
