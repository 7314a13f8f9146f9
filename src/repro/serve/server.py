"""The job service engine and its stdlib HTTP front end.

:class:`JobService` ties the pieces together: it validates and expands
submitted specs (:mod:`repro.serve.jobspec`), assigns deterministic
ids and dedup links (:mod:`repro.serve.jobs`), and executes jobs on
:class:`~repro.serve.governor.Governor` worker threads — every job's
configs flowing through ONE shared result cache and ONE shared
execution backend, so concurrent jobs share warm results and never
spawn competing process pools.  Per-job harness telemetry is collected
in a private :class:`~repro.obs.metrics.MetricsRegistry` and merged
into the service-wide registry under a lock when the job finishes
(the registry itself is not thread-safe).

The HTTP layer is a plain ``http.server.ThreadingHTTPServer``:

========  =========================  =====================================
method    path                       meaning
========  =========================  =====================================
POST      ``/jobs``                  submit a spec (``?dry_run=1`` to
                                     preview the expansion without work)
GET       ``/jobs``                  all jobs, submission order
GET       ``/jobs/{id}``             one job snapshot
GET       ``/jobs/{id}/records``     tidy records (``?format=json|csv``)
GET       ``/jobs/{id}/events``      SSE progress stream
POST      ``/jobs/{id}/cancel``      cancel queued or running work
GET       ``/healthz``               liveness + worker/queue counts
GET       ``/metrics``               service + harness telemetry
========  =========================  =====================================

Records served for a job are byte-identical to what ``repro-omp sweep
--out`` writes for the same parameters: both sides render through
:meth:`StudyResult.to_json_text` / :meth:`~StudyResult.to_csv_text`
over the same expanded configs (the CI ``serve-smoke`` job ``cmp``-s
the two files).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import JobSpecError, ReproError, ServiceError
from repro.harness.backend import ProcessPoolBackend, SerialBackend, resolve_jobs
from repro.harness.cache import ResultCache, cache_key
from repro.harness.parallel import Sweep
from repro.harness.shard import ShardRunComplete
from repro.harness.study import StudyResult
from repro.obs.metrics import MetricsRegistry
from repro.serve.governor import Governor, monotonic_clock
from repro.serve.jobs import Job, JobQueue, JobStore, job_id_for
from repro.serve.jobspec import (
    spec_fingerprint,
    spec_shard,
    spec_to_study,
    validate_spec,
)

__all__ = ["JobService", "create_http_server"]


class JobService:
    """The engine behind the HTTP API (usable directly in-process).

    Parameters
    ----------
    state_dir:
        Root of all service state: ``jobs/`` (persisted job files),
        ``records/`` (rendered results), ``cache/`` (the shared result
        cache, unless *cache_dir* points elsewhere).
    workers:
        Governor worker threads — how many jobs progress concurrently.
    jobs:
        Process parallelism of the shared backend.  ``1`` (default)
        executes in-process; more builds one persistent
        :class:`ProcessPoolBackend` that every job multiplexes over.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        workers: int = 2,
        jobs: int | None = 1,
        cache_dir: str | Path | None = None,
        rate_capacity: float = 20.0,
        rate_refill_per_sec: float = 5.0,
        clock=monotonic_clock,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.store = JobStore(self.state_dir)
        self.cache = ResultCache(
            Path(cache_dir) if cache_dir is not None else self.state_dir / "cache"
        )
        self.jobs: dict[str, Job] = self.store.load_all()
        self._seq = self.store.next_seq(self.jobs)
        self._lock = threading.RLock()
        self.workers = workers
        self.pool_jobs = resolve_jobs(jobs)
        self.backend = (
            SerialBackend()
            if self.pool_jobs == 1
            else ProcessPoolBackend(self.pool_jobs, persistent=True)
        )
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self.queue = JobQueue(self.jobs)
        self.governor = Governor(
            self.queue,
            self._run_job,
            workers=workers,
            rate_capacity=rate_capacity,
            rate_refill_per_sec=rate_refill_per_sec,
            clock=clock,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.governor.start()

    def stop(self) -> None:
        self.governor.stop()
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    # -- submission --------------------------------------------------------

    def admit(self, client: str) -> bool:
        """Rate-limit gate for one client request (HTTP 429 when False)."""
        return self.governor.admit(client)

    def submit(
        self, spec: Any, *, client: str = "", dry_run: bool = False
    ) -> dict:
        """Validate *spec* and enqueue it (or just preview it).

        Dry runs return the expanded config list with cache keys and
        warm/cold status — exactly ``repro-omp sweep --dry-run`` — and
        create no job.  Real submissions dedup against in-flight work:
        a spec whose fingerprint matches a queued/running job becomes a
        follower that executes only after the primary, entirely from
        the then-warm shared cache.
        """
        normalized = validate_spec(spec)
        study = spec_to_study(normalized)
        if dry_run:
            return {
                "dry_run": True,
                "name": study.name,
                "description": study.description,
                "total": len(study.configs()),
                "configs": study.preview(self.cache),
            }
        fingerprint = spec_fingerprint(study, spec_shard(normalized))
        with self._lock:
            dedup_of = None
            for existing in self.jobs.values():
                if existing.fingerprint == fingerprint and not existing.terminal:
                    dedup_of = existing.job_id
                    break
            seq = self._seq
            self._seq += 1
            job = Job(
                job_id=job_id_for(seq, fingerprint),
                seq=seq,
                spec=normalized,
                fingerprint=fingerprint,
                client=client,
                dedup_of=dedup_of,
                total=len(study.configs()),
            )
            self.jobs[job.job_id] = job
        self.store.save(job)
        job.add_event(
            "queued",
            job_id=job.job_id,
            total=job.total,
            dedup_of=job.dedup_of,
        )
        self.queue.put(job.job_id)
        with self._metrics_lock:
            self.metrics.counter("service_jobs_submitted").inc()
            if dedup_of is not None:
                self.metrics.counter("service_jobs_deduped").inc()
        return job.snapshot()

    # -- queries -----------------------------------------------------------

    def get_job(self, job_id: str) -> Job:
        with self._lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def list_jobs(self) -> list[dict]:
        with self._lock:
            jobs = sorted(self.jobs.values(), key=lambda j: j.seq)
        return [job.snapshot() for job in jobs]

    def records_text(self, job_id: str, fmt: str = "json") -> str:
        """A finished job's rendered records (raises until it is done)."""
        if fmt not in ("json", "csv"):
            raise ServiceError(f"unknown records format {fmt!r} (json or csv)")
        job = self.get_job(job_id)
        path = self.store.records_path(job_id, fmt)
        if job.state != "done" or not path.exists():
            raise ServiceError(
                f"job {job_id} has no records (state: {job.state})"
            )
        # bytes, not read_text: universal-newline decoding would fold the
        # CSV's \r\n terminators and break byte-identity with the CLI export
        return path.read_bytes().decode("utf-8")

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued or running job; terminal jobs cannot be."""
        job = self.get_job(job_id)
        with self._lock:
            if job.terminal:
                raise ServiceError(
                    f"job {job_id} is already {job.state} and cannot be "
                    f"cancelled"
                )
            if job.state == "queued" and self.queue.remove(job_id):
                job.finish("cancelled", job_id=job_id)
                self.store.save(job)
                self.queue.wake()
                return job.snapshot()
        # running (or being picked up): ask the runner to stop between
        # configs
        job.cancel_requested.set()
        return job.snapshot()

    def service_metrics(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self.jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
        with self._metrics_lock:
            telemetry = self.metrics.to_dict()
        return {
            "jobs_by_state": by_state,
            "queue_depth": len(self.queue),
            "workers": self.workers,
            "pool_jobs": self.pool_jobs,
            "cache": self.cache.stats(),
            "telemetry": telemetry,
        }

    # -- execution ---------------------------------------------------------

    def _telemetry_snapshot(self, metrics: MetricsRegistry) -> dict:
        return {
            name: metrics.counter(name).value
            for name in ("cache_hits", "cache_misses", "cache_stores")
        }

    def _run_job(self, job_id: str) -> None:
        """Execute one job to a terminal state (runs on a governor
        worker thread)."""
        job = self.get_job(job_id)
        if job.terminal:
            return
        if job.cancel_requested.is_set():
            job.finish("cancelled", job_id=job_id)
            self.store.save(job)
            self.queue.wake()
            return
        job.transition("running")
        self.store.save(job)
        job.add_event("running", job_id=job_id, total=job.total)
        job_metrics = MetricsRegistry()
        try:
            self._execute(job, job_metrics)
        except ShardRunComplete as complete:
            summary = complete.summary
            job.simulated = summary.simulated
            job.cached = summary.cached
            job.finish(
                "done",
                job_id=job_id,
                shard={
                    "shard": summary.label,
                    "configs_total": summary.configs_total,
                    "assigned": summary.assigned,
                    "simulated": summary.simulated,
                    "cached": summary.cached,
                    "manifest": str(summary.manifest_path),
                },
                records=False,
            )
            self.store.save(job)
        except ReproError as exc:
            self._fail(job, str(exc))
        except Exception as exc:  # noqa: BLE001 - job must reach a terminal state
            self._fail(job, f"{type(exc).__name__}: {exc}")
        finally:
            with self._metrics_lock:
                self.metrics.merge(job_metrics)
            self.queue.wake()

    def _fail(self, job: Job, message: str) -> None:
        job.error = message
        job.finish("failed", job_id=job.job_id, error=message)
        self.store.save(job)

    def _execute(self, job: Job, job_metrics: MetricsRegistry) -> None:
        study = spec_to_study(job.spec)
        shard = spec_shard(job.spec)
        if shard is not None:
            # whole-batch: membership is decided inside the sweep, and
            # completion surfaces as ShardRunComplete (caught above)
            study.run(
                cache=self.cache, metrics=job_metrics, backend=self.backend,
                shard=shard,
            )
        configs = study.configs()
        sweep = Sweep(cache=self.cache, metrics=job_metrics, backend=self.backend)
        results = []
        for index, cfg in enumerate(configs):
            if job.cancel_requested.is_set():
                job.finish(
                    "cancelled", job_id=job.job_id, done=index, total=job.total
                )
                self.store.save(job)
                return
            warm = (self.cache.cache_dir / f"{cache_key(cfg)}.json").exists()
            results.append(sweep.run([cfg])[0])
            if warm:
                job.cached += 1
            else:
                job.simulated += 1
            done = index + 1
            job.add_event(
                "progress",
                job_id=job.job_id,
                done=done,
                total=job.total,
                simulated=job.simulated,
                cached=job.cached,
                percent=round(100.0 * done / job.total, 2) if job.total else 100.0,
                telemetry=self._telemetry_snapshot(job_metrics),
            )
        result = StudyResult(study=study, configs=configs, results=tuple(results))
        # write_bytes: text mode would rewrite the CSV's \r\n terminators
        # on some platforms, breaking byte-identity with the CLI export
        self.store.records_path(job.job_id, "json").write_bytes(
            result.to_json_text().encode("utf-8")
        )
        self.store.records_path(job.job_id, "csv").write_bytes(
            result.to_csv_text().encode("utf-8")
        )
        self.store.save(job)
        job.finish(
            "done",
            job_id=job.job_id,
            total=job.total,
            simulated=job.simulated,
            cached=job.cached,
            records=True,
        )
        self.store.save(job)


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto a :class:`JobService` (set per server)."""

    service: JobService  # injected by create_http_server
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # no stderr chatter (and no wall-clock log prefixes)

    # -- helpers -----------------------------------------------------------

    def _client(self) -> str:
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, exc: Exception) -> None:
        if isinstance(exc, JobSpecError):
            status = 400
        elif isinstance(exc, ServiceError):
            status = 404 if "unknown job" in str(exc) else 409
        else:
            status = 500
        self._send_json(status, {"error": str(exc)})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobSpecError("job spec: request body is empty")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobSpecError(f"job spec: request body is not JSON ({exc})")

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "jobs": len(self.service.jobs),
                        "queue_depth": len(self.service.queue),
                        "workers": self.service.workers,
                    },
                )
            elif parts == ["metrics"]:
                self._send_json(200, self.service.service_metrics())
            elif parts == ["jobs"]:
                self._send_json(200, {"jobs": self.service.list_jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, self.service.get_job(parts[1]).snapshot())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "records":
                fmt = parse_qs(url.query).get("format", ["json"])[0]
                text = self.service.records_text(parts[1], fmt)
                content_type = (
                    "application/json" if fmt == "json" else "text/csv"
                )
                self._send_text(200, text, content_type)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                self._stream_events(parts[1])
            else:
                self._send_json(404, {"error": f"no route for {url.path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - map to an HTTP error
            self._error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                client = self._client()
                if not self.service.admit(client):
                    self._send_json(
                        429, {"error": f"rate limit exceeded for {client!r}"}
                    )
                    return
                dry = parse_qs(url.query).get("dry_run", ["0"])[0]
                dry_run = dry not in ("0", "", "false")
                spec = self._read_body()
                payload = self.service.submit(
                    spec, client=client, dry_run=dry_run
                )
                self._send_json(200 if dry_run else 201, payload)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._send_json(200, self.service.cancel(parts[1]))
            else:
                self._send_json(404, {"error": f"no route for {url.path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - map to an HTTP error
            self._error(exc)

    # -- SSE ---------------------------------------------------------------

    def _stream_events(self, job_id: str) -> None:
        job = self.service.get_job(job_id)  # 404s before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in job.events_from(0):
                payload = json.dumps(event, sort_keys=True)
                frame = f"event: {event['event']}\ndata: {payload}\n\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return
        self.close_connection = True


def create_http_server(
    service: JobService, host: str = "127.0.0.1", port: int = 8765
) -> ThreadingHTTPServer:
    """Bind the HTTP front end (``port=0`` picks a free port — tests).

    The caller owns the loop: ``server.serve_forever()`` (typically on a
    thread) and ``server.shutdown()`` + ``service.stop()`` to wind down.
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)
