"""Worksharing-loop schedule models.

Produces, for a loop of ``total_iters`` iterations over ``n`` threads:

* the exact chunk sequence a libgomp-style runtime would generate
  (:func:`chunk_sequence` — exported because tests and ablations verify it
  partitions the iteration space), and
* a :class:`LoopPlan` with per-thread work and overhead, plus the
  central-queue serialization bound for dynamic/guided schedules.

Cost model
----------
Dynamic and guided schedules serve chunks from one shared counter.  Each
dequeue costs the *requesting thread* a latency ``c_lat(n)`` (an atomic RMW
on a contended cache line, growing ~sqrt(n) under non-saturated load), and
costs the *queue* an occupancy ``c_thru(n)`` (the serialized cache-line
hand-off).  The loop's makespan is then

``max( per-thread compute + dequeue latencies,  n_chunks * c_thru )``

— the second term is the queue-throughput bound that dominates schedbench's
``dynamic_1`` at 254 threads on Dardel.  Static schedules pay neither; only
a per-chunk index computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, sqrt

import numpy as np

from repro.errors import ScheduleError
from repro.types import ScheduleKind
from repro.units import ns


@dataclass(frozen=True)
class ScheduleCostParams:
    """Platform constants of the loop-scheduling cost model (seconds).

    ``dequeue_latency(n) = lat_base + lat_sqrt * sqrt(n)``
    ``queue_service(n)   = thru_base + thru_log * log2(n)``
    ``static_chunk_cost`` — per-chunk index arithmetic for static,c.
    """

    lat_base: float = ns(70.0)
    lat_sqrt: float = ns(34.0)
    thru_base: float = ns(25.0)
    thru_log: float = ns(5.0)
    static_chunk_cost: float = ns(4.0)

    def __post_init__(self) -> None:
        for f in (self.lat_base, self.lat_sqrt, self.thru_base, self.thru_log,
                  self.static_chunk_cost):
            if f < 0:
                raise ScheduleError("schedule cost constants must be non-negative")

    def dequeue_latency(self, n_threads: int) -> float:
        return self.lat_base + self.lat_sqrt * sqrt(max(1, n_threads))

    def queue_service(self, n_threads: int) -> float:
        return self.thru_base + self.thru_log * log2(max(2, n_threads))


@dataclass(frozen=True)
class LoopPlan:
    """Execution plan of one worksharing loop.

    All times are *seconds at the platform's calibration frequency*; the
    region executor rescales them with the live frequency trace.

    Attributes
    ----------
    per_thread_work:
        Pure loop-body time per thread (max-balanced partition).
    per_thread_overhead:
        Dequeue/bookkeeping time paid by each thread.
    queue_serialization:
        Lower bound on the loop makespan from the shared chunk queue
        (0 for static schedules).
    imbalance_tail:
        Expected straggle of the last chunk (half a chunk of work for
        dynamic-style schedules, up to a full block for static).
    n_chunks:
        Total chunks dispensed.
    """

    kind: ScheduleKind
    n_threads: int
    per_thread_work: np.ndarray
    per_thread_overhead: np.ndarray
    queue_serialization: float
    imbalance_tail: float
    n_chunks: int


def chunk_sequence(
    kind: ScheduleKind, total_iters: int, n_threads: int, chunk: int | None
) -> list[int]:
    """The sizes of the chunks a runtime dispenses, in dispatch order.

    * static (no chunk): ``n_threads`` contiguous blocks, sizes differing
      by at most one;
    * static,c / dynamic,c: constant ``c`` (last chunk truncated);
    * guided,c: ``max(remaining / n_threads, c)``, last chunk truncated.
    """
    if total_iters <= 0:
        raise ScheduleError(f"loop needs iterations, got {total_iters}")
    if n_threads <= 0:
        raise ScheduleError(f"need threads, got {n_threads}")
    if chunk is not None and chunk <= 0:
        raise ScheduleError(f"chunk must be positive, got {chunk}")

    if kind is ScheduleKind.STATIC and chunk is None:
        base = total_iters // n_threads
        extra = total_iters % n_threads
        return [base + (1 if i < extra else 0) for i in range(n_threads) if base or i < extra]

    if kind in (ScheduleKind.STATIC, ScheduleKind.DYNAMIC):
        c = chunk if chunk is not None else 1
        full, rem = divmod(total_iters, c)
        return [c] * full + ([rem] if rem else [])

    if kind is ScheduleKind.GUIDED:
        c_min = chunk if chunk is not None else 1
        chunks: list[int] = []
        remaining = total_iters
        while remaining > 0:
            k = max(ceil(remaining / n_threads), c_min)
            k = min(k, remaining)
            chunks.append(k)
            remaining -= k
        return chunks

    raise ScheduleError(f"unsupported schedule kind {kind!r}")


def plan_loop(
    kind: ScheduleKind,
    total_iters: int,
    n_threads: int,
    chunk: int | None,
    iter_work_seconds: float,
    params: ScheduleCostParams,
    latency_factor: float = 1.0,
) -> LoopPlan:
    """Build the :class:`LoopPlan` for one worksharing loop.

    *iter_work_seconds* is the loop-body duration of a single iteration at
    the calibration frequency (EPCC's ``delaytime``).

    *latency_factor* scales the shared-queue costs for topology spread —
    a team spanning two sockets bounces the chunk counter's cache line
    over the interconnect (callers pass ``1 + k * cross_socket_fraction``).
    """
    if latency_factor < 1.0:
        raise ScheduleError(f"latency_factor {latency_factor} below 1")
    if iter_work_seconds < 0:
        raise ScheduleError(f"negative iteration work {iter_work_seconds}")
    if total_iters <= 0:
        raise ScheduleError(f"loop needs iterations, got {total_iters}")
    if n_threads <= 0:
        raise ScheduleError(f"need threads, got {n_threads}")
    if chunk is not None and chunk <= 0:
        raise ScheduleError(f"chunk must be positive, got {chunk}")

    # chunk counts computed arithmetically — a full-scale dynamic_1 loop
    # dispenses ~2 million chunks per repetition, far too many to list
    if kind is ScheduleKind.STATIC:
        per_thread_iters = np.zeros(n_threads)
        per_thread_chunks = np.zeros(n_threads)
        if chunk is None:
            base, extra = divmod(total_iters, n_threads)
            per_thread_iters[:] = base
            per_thread_iters[:extra] += 1
            per_thread_chunks[:] = (per_thread_iters > 0).astype(float)
            n_chunks = int(np.count_nonzero(per_thread_iters))
        else:
            n_chunks = ceil(total_iters / chunk)
            q, r = divmod(n_chunks, n_threads)
            per_thread_chunks[:] = q
            per_thread_chunks[:r] += 1
            per_thread_iters = per_thread_chunks * chunk
            # last chunk may be short; it belongs to thread (n_chunks-1) % n
            short_by = n_chunks * chunk - total_iters
            per_thread_iters[(n_chunks - 1) % n_threads] -= short_by
        work = per_thread_iters * iter_work_seconds
        overhead = per_thread_chunks * params.static_chunk_cost
        return LoopPlan(
            kind=kind,
            n_threads=n_threads,
            per_thread_work=work,
            per_thread_overhead=overhead,
            queue_serialization=0.0,
            imbalance_tail=0.0,  # partition is exact; tail differences in `work`
            n_chunks=n_chunks,
        )

    # dynamic / guided: chunks drawn from a shared queue, ~evenly many each
    if kind is ScheduleKind.DYNAMIC:
        c = chunk if chunk is not None else 1
        n_chunks = ceil(total_iters / c)
    else:
        n_chunks = len(chunk_sequence(kind, total_iters, n_threads, chunk))
    c_lat = params.dequeue_latency(n_threads) * latency_factor
    c_thru = params.queue_service(n_threads) * latency_factor
    total_work = total_iters * iter_work_seconds
    work = np.full(n_threads, total_work / n_threads)
    dequeues_per_thread = n_chunks / n_threads
    overhead = np.full(n_threads, dequeues_per_thread * c_lat)
    queue_serialization = n_chunks * c_thru
    mean_chunk = total_iters / n_chunks
    imbalance = 0.5 * mean_chunk * iter_work_seconds
    return LoopPlan(
        kind=kind,
        n_threads=n_threads,
        per_thread_work=work,
        per_thread_overhead=overhead,
        queue_serialization=queue_serialization,
        imbalance_tail=imbalance,
        n_chunks=n_chunks,
    )
