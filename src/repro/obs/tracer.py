"""Simulated-time span tracing with Chrome trace-event export.

Two planes of observability live under :mod:`repro.obs`; this module is
plane 1 — *what happened inside the simulation, and when*.  A tracer
receives spans (``[t0, t1)`` activity on a per-thread track), instant
events (point markers), and counter samples (time series), all stamped in
**simulated** time; nothing here ever reads a wall clock, so attaching a
tracer cannot perturb a run.

The default :data:`NULL_TRACER` is a do-nothing singleton whose
``enabled`` flag is ``False``.  The hot paths (engine loop, work-stealing
workers) hoist ``tracing = tracer.enabled`` once per episode and guard
every emission with ``if tracing:`` — the contract lint rule OBS001
enforces (see :mod:`repro.analysis.rules_obs`) — so the null path costs
one attribute read per *episode*, not per event, and allocates nothing.

:class:`SpanTracer` records events and exports Chrome trace-event JSON
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* ``pid`` = configuration index (one process group per swept config,
  named by its display label);
* ``tid`` = simulated OpenMP thread index; per-CPU OS-noise tracks live
  at ``tid = CPU_TRACK_BASE + cpu``;
* successive runs of one config are laid out back-to-back on the
  timeline (each :meth:`SpanTracer.begin_run` advances a time offset), so
  run 3's spans never overlap run 2's;
* counter tracks (``"C"`` events) carry queue depth and busy-thread
  counts.

Timestamps are integer simulated **nanoseconds** internally
(:func:`repro.units.to_sim_ns`, the time base noise intervals share;
exported as fractional microseconds, the Chrome convention), which keeps
the JSON byte-deterministic: the trace of a config is a pure function of
(config, seed) and therefore identical whether the underlying results
were computed serially, on a process pool, or replayed from cache.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Protocol, runtime_checkable

from repro.errors import ReproError
from repro.units import to_sim_ns

__all__ = [
    "CPU_TRACK_BASE",
    "NULL_TRACER",
    "NullTracer",
    "SpanTracer",
    "Tracer",
    "validate_chrome",
]

#: OS-noise CPU tracks start here (``tid = CPU_TRACK_BASE + cpu``), far
#: above any simulated thread index.
CPU_TRACK_BASE = 10_000

#: Simulated-nanosecond gap inserted between successive runs on the
#: exported timeline, so per-run event clusters stay visually separate.
_RUN_GAP_NS = 1_000_000


@runtime_checkable
class Tracer(Protocol):
    """What the instrumented layers require of a tracer.

    ``enabled`` is a plain attribute (not a property) so the hot paths
    can hoist it into a local; every emission method takes simulated
    seconds.  :class:`NullTracer` and :class:`SpanTracer` implement it.
    """

    enabled: bool

    def begin_process(self, pid: int, name: str) -> None: ...
    def begin_run(self, run_index: int) -> None: ...
    def thread_name(self, tid: int, name: str) -> None: ...
    def span(self, tid: int, name: str, t0: float, t1: float,
             cat: str = "sim", args: Optional[Mapping] = None) -> None: ...
    def instant(self, tid: int, name: str, t: float,
                cat: str = "sim", args: Optional[Mapping] = None) -> None: ...
    def counter(self, name: str, t: float, value: float) -> None: ...


class NullTracer:
    """The zero-overhead default: every emission is a no-op.

    Slotted and stateless; one module-level singleton (:data:`NULL_TRACER`)
    is shared by every default argument, so the disabled path allocates
    nothing, ever.
    """

    __slots__ = ()

    enabled = False

    def begin_process(self, pid: int, name: str) -> None:
        pass

    def begin_run(self, run_index: int) -> None:
        pass

    def thread_name(self, tid: int, name: str) -> None:
        pass

    def span(self, tid, name, t0, t1, cat="sim", args=None) -> None:
        pass

    def instant(self, tid, name, t, cat="sim", args=None) -> None:
        pass

    def counter(self, name, t, value) -> None:
        pass


#: The shared do-nothing tracer every instrumented layer defaults to.
NULL_TRACER = NullTracer()


class SpanTracer:
    """Records spans/instants/counters and exports Chrome trace JSON.

    One tracer instance spans a whole annotation pass: call
    :meth:`begin_process` per configuration (sets the current ``pid`` and
    its Perfetto process name) and :meth:`begin_run` per run (lays runs
    out sequentially on the simulated timeline).  Thread names are kept
    first-writer-wins per ``(pid, tid)`` — an unbound team that reforks
    onto new CPUs keeps its original track label.
    """

    __slots__ = ("pid", "_offset_ns", "_max_ns", "_events",
                 "_process_names", "_thread_names")

    enabled = True  # class attribute: a SpanTracer is always recording

    def __init__(self) -> None:
        self.pid = 0
        self._offset_ns = 0
        self._max_ns = 0
        #: (pid, tid, ts_ns, dur_ns|None, ph, name, cat, args|value)
        self._events: list[tuple] = []
        self._process_names: dict[int, str] = {}
        self._thread_names: dict[tuple[int, int], str] = {}

    # -- structure ---------------------------------------------------------

    def begin_process(self, pid: int, name: str) -> None:
        """Start a new process group (one per traced configuration)."""
        self.pid = int(pid)
        self._process_names.setdefault(self.pid, name)
        self._offset_ns = 0
        self._max_ns = 0

    def begin_run(self, run_index: int) -> None:
        """Start a run: shift the time origin past everything emitted so
        far, and drop a ``run`` marker at the new origin."""
        self._offset_ns = self._max_ns + (_RUN_GAP_NS if self._events else 0)
        self.instant(0, "run", 0.0, cat="harness", args={"run": run_index})

    def thread_name(self, tid: int, name: str) -> None:
        self._thread_names.setdefault((self.pid, int(tid)), name)

    # -- emission ----------------------------------------------------------

    def span(self, tid, name, t0, t1, cat="sim", args=None) -> None:
        if t1 < t0:
            raise ReproError(f"span {name!r} ends before it starts: {t0} > {t1}")
        ts = to_sim_ns(t0) + self._offset_ns
        end = to_sim_ns(t1) + self._offset_ns
        if end > self._max_ns:
            self._max_ns = end
        self._events.append(
            (self.pid, int(tid), ts, end - ts, "X", name, cat,
             dict(args) if args else None)
        )

    def instant(self, tid, name, t, cat="sim", args=None) -> None:
        ts = to_sim_ns(t) + self._offset_ns
        if ts > self._max_ns:
            self._max_ns = ts
        self._events.append(
            (self.pid, int(tid), ts, None, "i", name, cat,
             dict(args) if args else None)
        )

    def counter(self, name, t, value) -> None:
        ts = to_sim_ns(t) + self._offset_ns
        if ts > self._max_ns:
            self._max_ns = ts
        self._events.append((self.pid, 0, ts, None, "C", name, "counter", value))

    # -- inspection --------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self._events)

    def span_names(self) -> set[str]:
        """Distinct names of recorded ``X`` spans (test/validation aid)."""
        return {e[5] for e in self._events if e[4] == "X"}

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome trace-event payload (``ts``/``dur`` in microseconds).

        Metadata first, then events sorted by ``(pid, ts, tid, name)`` —
        a canonical order, so equal recordings serialize to equal bytes.
        """
        out: list[dict] = []
        for pid in sorted(self._process_names):
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": self._process_names[pid]},
            })
        for (pid, tid) in sorted(self._thread_names):
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": self._thread_names[(pid, tid)]},
            })
        for pid, tid, ts, dur, ph, name, cat, payload in sorted(
            self._events, key=lambda e: (e[0], e[2], e[1], e[5])
        ):
            ev: dict = {
                "ph": ph, "name": name, "pid": pid, "tid": tid, "ts": ts / 1000,
            }
            if ph == "X":
                ev["dur"] = dur / 1000
                ev["cat"] = cat
                if payload:
                    ev["args"] = payload
            elif ph == "i":
                ev["s"] = "t"  # thread-scoped instant
                ev["cat"] = cat
                if payload:
                    ev["args"] = payload
            else:  # "C"
                ev["args"] = {"value": payload}
            out.append(ev)
        return {"traceEvents": out, "displayTimeUnit": "ns"}

    def write(self, path) -> int:
        """Serialize to *path* (deterministic bytes); returns event count."""
        payload = self.to_chrome()
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
        return len(payload["traceEvents"])


def validate_chrome(payload: Mapping) -> int:
    """Validate a Chrome trace-event payload; returns the event count.

    The schema the tests and the CI ``obs-smoke`` job enforce: a
    ``traceEvents`` list whose entries carry ``ph``/``name``/``pid``/
    ``tid``/``ts`` with the per-phase requirements (complete spans have a
    non-negative ``dur``, counters carry a numeric ``args.value``,
    metadata names a process or thread).  Raises
    :class:`~repro.errors.ReproError` on the first violation.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ReproError("trace has no traceEvents list")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, Mapping):
            raise ReproError(f"{where} is not an object")
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                raise ReproError(f"{where} lacks {key!r}")
        ph = ev["ph"]
        if ph not in ("X", "i", "C", "M"):
            raise ReproError(f"{where} has unknown phase {ph!r}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ReproError(f"{where} has bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ReproError(f"{where} span has bad dur {dur!r}")
        if ph == "C":
            value = (ev.get("args") or {}).get("value")
            if not isinstance(value, (int, float)):
                raise ReproError(f"{where} counter has no numeric value")
        if ph == "M" and ev["name"] not in ("process_name", "thread_name"):
            raise ReproError(f"{where} has unknown metadata {ev['name']!r}")
    return len(events)
