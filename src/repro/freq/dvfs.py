"""DVFS model: per-core frequency traces for a simulation window.

:class:`FrequencyModel` combines the platform's :class:`FrequencySpec`
(p-state envelope, boost table, jitter, dip process) with a governor and
the set of active CPUs to produce a :class:`FrequencyPlan` — one
:class:`~repro.sim.trace.PiecewiseConstant` trace per logical CPU.

The plan answers the two questions the rest of the simulator asks:

* *execution*: how long does cpu *c* need to retire *W* cycles from time
  *t*  (:meth:`FrequencyPlan.duration_for_cycles`), and
* *observation*: what frequency would the sysfs logger read at time *t*
  (:meth:`FrequencyPlan.freq_at`, :meth:`FrequencyPlan.snapshot`).

:meth:`FrequencyModel.plan` draws the run's dips and derate factors and
returns a plan that owns the rest of the ``freq`` stream.  The plan
builds a CPU's trace on first request, together with every unbuilt CPU
below it, in CPU order (:class:`_LazyTraces`): the per-CPU loop is the
stream's last consumer, so CPUs built over several requests draw the
bits one loop over every CPU draws, and a run pays only for the CPUs up
to the highest one it touches.  The loop keeps only the stream's draws
and the ``round(t, 12)`` breakpoint dedup, because each CPU's draws
follow the previous CPU's in one stream and the dedup sets the size of
the CPU's jitter draw.  Values, dip minima, p-state quantization and
the collapse of equal segments run once over the new CPUs'
breakpoints, as the same elementwise operations a single CPU's trace
needs, so each value is bit-identical to computing that CPU alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import FrequencyError
from repro.freq.governor import Governor
from repro.freq.power import BoostTable
from repro.freq.variation import DerateProcess, DipProcess, FrequencyDip
from repro.sim.trace import PiecewiseConstant
from repro.topology.hwthread import Machine


@dataclass(frozen=True)
class FrequencySpec:
    """Static frequency behaviour of a platform.

    Attributes
    ----------
    min_hz / base_hz:
        Lowest p-state and nominal (guaranteed) frequency.
    boost:
        Turbo license table (active cores -> sustainable frequency).
    pstate_step_hz:
        Frequency quantization step (traces snap to this grid, like real
        p-states; Intel uses 100 MHz bins).
    jitter_amplitude:
        Relative half-width of benign per-core frequency wobble (e.g. 0.004
        = ±0.4%); models measurement/board-level variation.
    jitter_rate:
        Poisson rate (per second per core) of wobble re-draws.
    dips:
        Transient dip process (see :mod:`repro.freq.variation`).
    """

    min_hz: float
    base_hz: float
    boost: BoostTable
    pstate_step_hz: float = 25e6
    jitter_amplitude: float = 0.0
    jitter_rate: float = 0.0
    dips: DipProcess = field(default_factory=DipProcess)
    derate: DerateProcess = field(default_factory=DerateProcess)

    def __post_init__(self) -> None:
        if not 0 < self.min_hz <= self.base_hz:
            raise FrequencyError("need 0 < min_hz <= base_hz")
        if self.base_hz > self.boost.single_core_boost + 1e-6:
            raise FrequencyError("base frequency above single-core boost")
        if self.pstate_step_hz <= 0:
            raise FrequencyError("pstate step must be positive")
        if self.jitter_amplitude < 0 or self.jitter_rate < 0:
            raise FrequencyError("jitter parameters must be non-negative")

    @property
    def calibration_hz(self) -> float:
        """Frequency of a lone busy core — what delay-loop calibration sees."""
        return self.boost.single_core_boost


class FrequencyPlan:
    """Per-CPU frequency traces over one run window.

    *traces* maps every CPU of *machine* to its trace.  A plan from
    :meth:`FrequencyModel.plan` passes a :class:`_LazyTraces` instead,
    which builds each trace on first request; every method below reads
    through ``traces`` and so builds what it needs.
    """

    def __init__(
        self,
        machine: Machine,
        traces: Mapping[int, PiecewiseConstant],
        window_start: float,
        calibration_hz: float,
        dips: Sequence[FrequencyDip] = (),
    ):
        if not isinstance(traces, _LazyTraces):
            if set(traces) != set(range(machine.n_cpus)):
                raise FrequencyError("plan must cover every cpu exactly once")
            traces = dict(traces)
        self.machine = machine
        self.traces = traces
        self.window_start = float(window_start)
        self.calibration_hz = float(calibration_hz)
        self.dips = tuple(dips)

    def trace(self, cpu: int) -> PiecewiseConstant:
        return self.traces[cpu]

    def traces_for(self, cpus: Sequence[int]) -> list[PiecewiseConstant]:
        """The traces of *cpus*, in order, from one request: the highest
        CPU is asked for first, so a lazy plan builds the team's traces
        in one extension instead of one per CPU."""
        traces = self.traces
        if len(cpus):
            traces[max(cpus)]
        return [traces[c] for c in cpus]

    def freq_at(self, cpu: int, t: float) -> float:
        return float(self.traces[cpu].value_at(t))

    def duration_for_cycles(self, cpu: int, start: float, cycles: float) -> float:
        """Seconds needed for *cpu* to retire *cycles* starting at *start*."""
        if cycles < 0:
            raise FrequencyError(f"negative cycle count {cycles}")
        if cycles == 0:
            return 0.0
        end = self.traces[cpu].invert_integral(start, cycles)
        return end - start

    def snapshot(self, t: float) -> np.ndarray:
        """Frequencies (Hz) of all CPUs at time *t*, indexed by cpu id."""
        return np.asarray(
            [tr.value_at(t) for tr in self.traces_for(range(self.machine.n_cpus))]
        )


class FrequencyPlanBatch:
    """Padded rep-axis view over ``R`` runs' plans for a fixed cpu list.

    Rows are ``(run, cpu)`` pairs in run-major order.  Each row's trace is
    padded to the widest trace with ``+inf`` breakpoints, so the padded
    segment lookup ``sum(times <= t) - 1`` lands on exactly the segment
    the scalar ``bisect_right`` fast path (:meth:`PiecewiseConstant._seg_idx`)
    would pick.  The batched queries keep :class:`FrequencyPlan`'s scalar
    methods as the byte-identity reference: :meth:`duration_for_cycles_fused`
    resolves only queries answered within their first segment (the common
    case for collapsed traces) and reports the rest for scalar fallback.
    """

    __slots__ = ("plans", "cpus", "times", "values")

    def __init__(self, plans: Sequence[FrequencyPlan], cpus: Sequence[int]):
        self.plans = tuple(plans)
        self.cpus = tuple(int(c) for c in cpus)
        traces = [tr for p in self.plans for tr in p.traces_for(self.cpus)]
        width = max(len(t) for t in traces)
        # one extra +inf column: segment ends read at idx + 1 stay in bounds
        times = np.full((len(traces), width + 1), np.inf)
        values = np.ones((len(traces), width))
        for k, tr in enumerate(traces):
            times[k, : len(tr)] = tr.times
            values[k, : len(tr)] = tr.values
        self.times = times
        self.values = values

    @property
    def calibration_hz(self) -> float:
        return self.plans[0].calibration_hz

    def _segment_index(self, flat_t: np.ndarray) -> np.ndarray:
        idx = np.sum(self.times[:, :-1] <= flat_t[:, None], axis=1) - 1
        if np.any(idx < 0):
            raise FrequencyError(
                f"batched query before trace start: min t = {np.min(flat_t)}"
            )
        return idx

    def freq_at_fused(self, t: np.ndarray) -> np.ndarray:
        """``plans[r].freq_at(cpus[i], t[r, i])`` for every row, bit-identical."""
        t = np.asarray(t, dtype=np.float64)
        flat = t.reshape(-1)
        idx = self._segment_index(flat)
        return self.values[np.arange(flat.size), idx].reshape(t.shape)

    def duration_for_cycles_fused(
        self, start: np.ndarray, cycles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`FrequencyPlan.duration_for_cycles` first-segment pass.

        Returns ``(durations, resolved)``; entries with ``resolved`` False
        need more than one trace segment and must be re-answered by the
        scalar reference.  Resolved entries reproduce the scalar arithmetic
        exactly: ``end = start + cycles / v`` then ``end - start``.
        """
        start = np.asarray(start, dtype=np.float64)
        cycles = np.asarray(cycles, dtype=np.float64)
        flat_s = start.reshape(-1)
        flat_c = cycles.reshape(-1)
        rows = np.arange(flat_s.size)
        idx = self._segment_index(flat_s)
        v = self.values[rows, idx]
        seg_end = self.times[rows, idx + 1]
        capacity = v * (seg_end - flat_s)
        resolved = flat_c <= capacity
        end = flat_s + flat_c / v
        durations = end - flat_s
        return durations.reshape(start.shape), resolved.reshape(start.shape)

    def duration_for_cycles_scalar(
        self, run: int, col: int, start: float, cycles: float
    ) -> float:
        """Scalar-reference fallback for one unresolved ``(run, cpu)`` entry."""
        return self.plans[run].duration_for_cycles(self.cpus[col], start, cycles)


class FrequencyModel:
    """Builds :class:`FrequencyPlan` instances for run windows."""

    def __init__(self, machine: Machine, spec: FrequencySpec):
        self.machine = machine
        self.spec = spec

    # -- helpers -----------------------------------------------------------

    def _quantize(self, hz: np.ndarray | float) -> np.ndarray | float:
        step = self.spec.pstate_step_hz
        return np.maximum(self.spec.min_hz, np.round(np.asarray(hz) / step) * step)

    def steady_target(
        self, governor: Governor, active_cores: int, busy: bool
    ) -> float:
        """Steady-state target of one core under *governor*."""
        limit = self.spec.boost.freq_for(max(1, active_cores))
        utilization = 1.0 if busy else 0.0
        return float(
            self._quantize(governor.target_freq(self.spec.min_hz, limit, utilization))
        )

    # -- plan construction ---------------------------------------------------

    def plan(
        self,
        window_start: float,
        window_end: float,
        active_cpus: Sequence[int],
        governor: Governor,
        rng: np.random.Generator,
        machine_wide: bool = False,
    ) -> FrequencyPlan:
        """Generate traces for ``[window_start, window_end)``.

        *active_cpus* are the CPUs hosting benchmark threads; they determine
        the boost limit (via distinct active cores) and whether the dip
        process runs in cross-NUMA mode.  Traces extend past *window_end*
        (the last segment holds), so queries slightly beyond the horizon are
        safe.

        *machine_wide* realizes the plan's stochastic triggers for the whole
        machine rather than just the sockets currently hosting work: dips
        and derate episodes are sampled on every socket, every CPU gets the
        busy steady-state target, and the dip process runs in cross-NUMA
        mode whenever the machine spans more than one NUMA domain.  Used
        for unbound teams, whose placement migrates during the run — the
        boost *limit* still follows the team's active-core count, but the
        triggers must not be anchored to the initial placement.

        The dips and derate factors are drawn here.  The plan keeps *rng*
        and draws each CPU's jitter when its trace is first requested, so
        *rng* must have no other consumer once the plan is made.
        """
        if window_end <= window_start:
            raise FrequencyError("empty frequency window")
        machine, spec = self.machine, self.spec
        active = list(dict.fromkeys(active_cpus))
        active_cores = machine.cores_spanned(active) if active else 0
        if machine_wide:
            cross_numa = machine.numa_span(range(machine.n_cpus)) > 1
            busy_set = set(range(machine.n_cpus))
        else:
            cross_numa = machine.numa_span(active) > 1 if active else False
            busy_set = set(active)

        if machine_wide:
            socket_ids = tuple(s.socket_id for s in machine.sockets)
        else:
            socket_ids = tuple(
                sorted({machine.hwthread(c).socket_id for c in active})
            ) or tuple(s.socket_id for s in machine.sockets)
        occupancy = (active_cores / machine.n_cores) if active else None
        dips = spec.dips.sample(
            window_start, window_end, socket_ids, cross_numa, rng,
            occupancy=occupancy,
        )

        # run-scale derate episodes (one draw per socket hosting work)
        load = active_cores / machine.n_cores
        derate_by_socket = {
            s: spec.derate.sample_factor(load, rng) for s in socket_ids
        }

        steady = {
            busy: self.steady_target(governor, active_cores, busy)
            for busy in (True, False)
        }
        traces = _LazyTraces(
            self, rng, window_start, window_end - window_start, busy_set,
            steady, derate_by_socket, dips,
        )
        return FrequencyPlan(
            machine,
            traces,
            window_start,
            calibration_hz=spec.calibration_hz,
            dips=dips,
        )


class _LazyTraces(dict):
    """``cpu -> trace`` of a plan from :meth:`FrequencyModel.plan`, built
    on first request.

    A miss on CPU *k* builds every unbuilt CPU up to *k*, in CPU order,
    from the plan's own ``freq`` generator (:meth:`_build`).  A CPU
    outside the machine raises ``KeyError``; a negative one never wraps
    around.
    """

    def __init__(
        self,
        model: FrequencyModel,
        rng: np.random.Generator,
        window_start: float,
        horizon: float,
        busy_set: set[int],
        steady: Mapping[bool, float],
        derate_by_socket: Mapping[int, float],
        dips: Sequence[FrequencyDip],
    ):
        super().__init__()
        self._model = model
        self._rng = rng
        self._window_start = window_start
        self._horizon = horizon
        self._busy_set = busy_set
        self._steady = steady
        self._derate_by_socket = derate_by_socket
        self._dips = dips
        # Python's round, not np.round, which can differ in the last bit
        self._start_bp = round(window_start, 12)
        dip_edges: dict[int, list[float]] = {}
        for dip in dips:
            dip_edges.setdefault(dip.socket_id, []).extend(
                round(t, 12)
                for t in (dip.start, dip.start + dip.duration)
                if t >= window_start
            )
        self._dip_edges = dip_edges
        self._built = 0  # CPUs 0 .. _built - 1 have traces

    def __missing__(self, cpu: int) -> PiecewiseConstant:
        if not 0 <= cpu < self._model.machine.n_cpus:
            raise KeyError(cpu)
        self._build(cpu + 1)
        return self[cpu]

    def _build(self, stop: int) -> None:
        """Build the traces of CPUs ``_built .. stop - 1``.

        Per CPU, in CPU order: the stream's draws and the breakpoint
        dedup (window start + jitter re-draws + dip edges); the jitter
        block's size is the deduplicated breakpoint count.  This loop is
        the stream's last consumer, so building CPUs over several calls
        draws what one call over every CPU draws.
        """
        model = self._model
        cpus = range(self._built, stop)
        sockets = [hw.socket_id for hw in model.machine.hwthreads[self._built : stop]]
        steady, derate_by_socket = self._steady, self._derate_by_socket
        bases = [
            steady[cpu in self._busy_set] * derate_by_socket.get(socket_id, 1.0)
            for cpu, socket_id in zip(cpus, sockets)
        ]
        spec, rng = model.spec, self._rng
        window_start, horizon = self._window_start, self._horizon
        start_bp, dip_edges = self._start_bp, self._dip_edges
        jitter_lam = spec.jitter_rate * horizon
        amplitude = spec.jitter_amplitude
        poisson, random, uniform = rng.poisson, rng.random, rng.uniform
        times: list[float] = []
        sizes: list[int] = []
        jitter_parts: list[np.ndarray] = []
        for socket_id in sockets:
            cpu_times = {start_bp, *dip_edges.get(socket_id, ())}
            if spec.jitter_rate > 0:
                n_jit = int(poisson(jitter_lam))
                if n_jit:
                    # float arithmetic as the array expression window_start
                    # + random(n) * horizon; never before window_start
                    cpu_times.update([
                        round(window_start + r * horizon, 12)
                        for r in random(n_jit).tolist()
                    ])
            cpu_times = sorted(cpu_times)
            if amplitude > 0:
                jitter_parts.append(uniform(-amplitude, amplitude, size=len(cpu_times)))
            times += cpu_times
            sizes.append(len(cpu_times))

        # one pass over every breakpoint of the new cpus: the per-cpu
        # expressions elementwise, so each value is bit-identical
        t_all = np.asarray(times)
        counts = np.asarray(sizes)
        base = np.repeat(np.asarray(bases), counts)
        socket = np.repeat(np.asarray(sockets), counts)
        if amplitude > 0:
            # multiplier per segment: benign jitter (resampled at breakpoints)
            jitter = 1.0 + np.concatenate(jitter_parts)
        else:
            jitter = np.ones(t_all.size)
        values = base * jitter
        # apply dips: segment value scaled by deepest overlapping dip
        for dip in self._dips:
            lo, hi = dip.start, dip.start + dip.duration
            mask = (socket == dip.socket_id) & (t_all >= lo - 1e-12) & (t_all < hi - 1e-12)
            values[mask] = np.minimum(values[mask], base[mask] * jitter[mask] * dip.depth)
        values = np.asarray(model._quantize(values), dtype=np.float64)

        # collapse equal consecutive values to keep traces small; every
        # cpu keeps its first breakpoint, and its kept breakpoints stay
        # strictly increasing (a sorted set's subsequence)
        ends = np.cumsum(counts)
        keep = np.ones(t_all.size, dtype=bool)
        keep[1:] = values[1:] != values[:-1]
        keep[ends - counts] = True
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        bounds[1:] = np.cumsum(keep)[ends - 1]
        kept_t, kept_v = t_all[keep], values[keep]
        for cpu, lo, hi in zip(cpus, bounds[:-1].tolist(), bounds[1:].tolist()):
            self[cpu] = PiecewiseConstant(kept_t[lo:hi], kept_v[lo:hi], _valid=True)
        self._built = stop
