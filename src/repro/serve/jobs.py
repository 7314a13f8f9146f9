"""Job lifecycle: identity, persistence and the dedup-aware queue.

A :class:`Job` is one submitted spec moving through the lifecycle
``queued -> running -> done | failed | cancelled``.  Its identity is
deterministic: ``j<seq>-<fingerprint12>``, where ``seq`` is the
submission ordinal and the fingerprint hashes the job's sorted cache
keys (:func:`repro.serve.jobspec.spec_fingerprint`).  Resubmitting the
same work yields the same fingerprint — which is exactly how the service
spots duplicates — while the ordinal keeps every submission addressable.
Nothing here reads a clock or entropy source (DET005): ordering comes
from submission sequence, identity from content.

Dedup works through the ``dedup_of`` link: when a spec's fingerprint
matches a job that is still queued or running, the new job is recorded
as a *follower* of that primary.  :class:`JobQueue` refuses to hand a
follower to a worker until its primary is terminal, so the primary
executes (and populates the result cache) exactly once; the follower
then replays entirely from cache — shared execution, zero duplicate
stores.

:class:`JobStore` persists each job as ``jobs/<job_id>.json`` under the
service state directory using the same atomic write-then-rename pattern
as the result cache and shard manifests, so a restarted service recovers
its job history (in-flight jobs are marked failed on recovery — the
processes backing them are gone).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ServiceError
from repro.harness.shard import _atomic_write_json

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobStore",
    "job_id_for",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Legal lifecycle edges; anything else is a caller bug or a bad request.
_TRANSITIONS = {
    "queued": {"running", "cancelled", "failed"},
    "running": {"done", "failed", "cancelled"},
}


def job_id_for(seq: int, fingerprint: str) -> str:
    """Deterministic job id: submission ordinal + content fingerprint.

    The ordinal makes every submission addressable even when deduped;
    the fingerprint prefix makes duplicates recognizable at a glance
    (two ids sharing a suffix describe the same work).
    """
    return f"j{seq:04d}-{fingerprint[:12]}"


@dataclass
class Job:
    """One submitted job: spec, identity, lifecycle state and progress.

    The event list and its condition variable are in-memory only — SSE
    subscribers replay ``events`` from an offset and block on ``cond``
    for more.  Everything else round-trips through ``to_dict`` /
    ``from_dict`` for persistence.
    """

    job_id: str
    seq: int
    spec: dict
    fingerprint: str
    state: str = "queued"
    client: str = ""
    dedup_of: str | None = None
    error: str | None = None
    total: int = 0
    simulated: int = 0
    cached: int = 0
    events: list[dict] = field(default_factory=list, repr=False, compare=False)
    cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )
    cancel_requested: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    # -- lifecycle ---------------------------------------------------------

    def transition(self, new_state: str) -> None:
        """Move to *new_state*, enforcing the lifecycle graph."""
        if new_state not in JOB_STATES:
            raise ServiceError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS.get(self.state, frozenset()):
            raise ServiceError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        self.state = new_state

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def finish(self, state: str, **data: Any) -> dict:
        """Move to terminal *state* and append its event in one step.

        Both happen under :attr:`cond`, so a subscriber that sees the job
        terminal (:meth:`events_from`) always finds the terminal event.
        """
        if state not in TERMINAL_STATES:
            raise ServiceError(f"job {self.job_id}: {state!r} is not terminal")
        with self.cond:  # re-entrant: add_event takes it again
            self.transition(state)
            return self.add_event(state, **data)

    # -- events (SSE feed) -------------------------------------------------

    def add_event(self, kind: str, **data: Any) -> dict:
        """Append an event and wake SSE subscribers.

        Events carry a per-job monotone ``seq`` so subscribers can
        verify ordering and resume from an offset.
        """
        with self.cond:
            event = {"seq": len(self.events), "event": kind, **data}
            self.events.append(event)
            self.cond.notify_all()
        return event

    def events_from(self, start: int = 0) -> Iterator[dict]:
        """Yield events from offset *start*, blocking for new ones until
        a terminal event has been delivered."""
        index = start
        while True:
            with self.cond:
                while index >= len(self.events):
                    if self.terminal:
                        return
                    self.cond.wait(timeout=1.0)
                batch = self.events[index:]
                index = len(self.events)
            for event in batch:
                yield event
                if event["event"] in TERMINAL_STATES:
                    return

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        """The public JSON shape served by ``GET /jobs/{id}``."""
        percent = (
            round(100.0 * (self.simulated + self.cached) / self.total, 2)
            if self.total
            else 0.0
        )
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "dedup_of": self.dedup_of,
            "client": self.client,
            "error": self.error,
            "progress": {
                "total": self.total,
                "simulated": self.simulated,
                "cached": self.cached,
                "percent": percent,
            },
            "spec": self.spec,
        }

    def to_dict(self) -> dict:
        """Persistent form (no events/locks — those are process-local)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "client": self.client,
            "dedup_of": self.dedup_of,
            "error": self.error,
            "total": self.total,
            "simulated": self.simulated,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(
            job_id=data["job_id"],
            seq=data["seq"],
            spec=data["spec"],
            fingerprint=data["fingerprint"],
            state=data.get("state", "queued"),
            client=data.get("client", ""),
            dedup_of=data.get("dedup_of"),
            error=data.get("error"),
            total=data.get("total", 0),
            simulated=data.get("simulated", 0),
            cached=data.get("cached", 0),
        )


class JobStore:
    """Atomic on-disk persistence of job state under ``<dir>/jobs/``.

    Uses the repo-wide write-then-rename pattern so a crash mid-save
    never leaves a torn job file.  ``load_all`` recovers prior jobs on
    startup; jobs that were queued or running when the previous process
    died are marked failed (their executions did not survive).
    """

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.records_dir = self.state_dir / "records"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.records_dir.mkdir(parents=True, exist_ok=True)

    def save(self, job: Job) -> None:
        _atomic_write_json(self.jobs_dir / f"{job.job_id}.json", job.to_dict())

    def load_all(self) -> dict[str, Job]:
        """Recover persisted jobs, failing any that were in flight."""
        jobs: dict[str, Job] = {}
        for path in sorted(self.jobs_dir.glob("j*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                job = Job.from_dict(data)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ServiceError(f"corrupt job file {path}: {exc}") from exc
            if not job.terminal:
                job.state = "failed"
                job.error = "service restarted while the job was in flight"
                self.save(job)
            jobs[job.job_id] = job
        return jobs

    def next_seq(self, jobs: dict[str, Job]) -> int:
        """The next submission ordinal after everything recovered."""
        return max((job.seq for job in jobs.values()), default=0) + 1

    def records_path(self, job_id: str, fmt: str) -> Path:
        """Where a finished job's rendered records live."""
        return self.records_dir / f"{job_id}.records.{fmt}"


class JobQueue:
    """FIFO of pending job ids that respects dedup ordering.

    A follower (``dedup_of`` set) is not eligible until its primary is
    terminal — that is the whole dedup mechanism: by the time the
    follower runs, every config it needs is warm in the shared cache.
    Workers block in :meth:`get`; :meth:`wake` re-checks eligibility
    after a primary finishes.
    """

    def __init__(self, jobs: dict[str, Job]) -> None:
        self._jobs = jobs
        self._pending: list[str] = []
        self._cond = threading.Condition()
        self._closed = False

    def put(self, job_id: str) -> None:
        with self._cond:
            if self._closed:
                raise ServiceError("job queue is closed")
            self._pending.append(job_id)
            self._cond.notify_all()

    def _pop_eligible(self) -> str | None:
        for i, job_id in enumerate(self._pending):
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                # cancelled while queued; drop it
                del self._pending[i]
                return self._pop_eligible()
            primary = self._jobs.get(job.dedup_of) if job.dedup_of else None
            if primary is None or primary.terminal:
                del self._pending[i]
                return job_id
        return None

    def get(self, timeout: float | None = None) -> str | None:
        """Next eligible job id; ``None`` once closed (or on timeout)."""
        with self._cond:
            while True:
                job_id = self._pop_eligible()
                if job_id is not None:
                    return job_id
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def remove(self, job_id: str) -> bool:
        """Drop a still-queued job (cancellation); False if not queued."""
        with self._cond:
            if job_id in self._pending:
                self._pending.remove(job_id)
                return True
            return False

    def wake(self) -> None:
        """Re-evaluate eligibility (a primary just went terminal)."""
        with self._cond:
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)
