"""Platform presets: everything the simulator knows about a machine.

A :class:`Platform` bundles the topology with the calibrated model
parameters of every substrate.  The two presets mirror the paper's
Section 4.1; the calibration targets (Table 2 and Figures 1-7 shapes) are
documented per constant below and cross-checked in EXPERIMENTS.md.

A small :func:`toy` platform (16 CPUs) is provided for tests and examples
that should run in milliseconds.

The preset factories are memoized: a :class:`Platform` is frozen, so
every caller of one preset shares one object, and its machine computes
its cached tables (``Machine.sibling_table``) once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

from repro.errors import ConfigurationError
from repro.freq.dvfs import FrequencySpec
from repro.freq.power import BoostTable
from repro.freq.variation import DerateProcess, DipProcess
from repro.mem.bandwidth import MemorySpec
from repro.omp.constructs import SyncCostParams
from repro.omp.region import RegionParams
from repro.omp.schedule import ScheduleCostParams
from repro.omp.tasking.params import TaskCostParams
from repro.omp.vendor import RuntimeProfile, default_profile, get_runtime_profile
from repro.osnoise.profiles import NoiseProfile, dardel_noise, quiet_profile, vera_noise
from repro.sched.params import SchedParams
from repro.topology.builder import TopologyBuilder
from repro.topology.hwthread import Machine
from repro.topology.platforms import dardel_topology, vera_topology
from repro.types import PLATFORMS
from repro.units import gb_per_s, ghz, ns, us


@dataclass(frozen=True)
class Platform:
    """A fully parameterized simulated node."""

    name: str
    machine: Machine
    freq_spec: FrequencySpec
    mem_spec: MemorySpec
    noise_profile: NoiseProfile
    sched_params: SchedParams = field(default_factory=SchedParams)
    sync_params: SyncCostParams = field(default_factory=SyncCostParams)
    task_params: TaskCostParams = field(default_factory=TaskCostParams)
    sched_cost_params: ScheduleCostParams = field(default_factory=ScheduleCostParams)
    region_params: RegionParams = field(default_factory=RegionParams)
    default_governor: str = "performance"
    runtime_profile: RuntimeProfile = field(default_factory=default_profile)

    def with_noise(self, profile: NoiseProfile) -> "Platform":
        """A copy with a different noise profile (ablations)."""
        return replace(self, noise_profile=profile)

    def quiet(self) -> "Platform":
        """A noise-free copy (calibration / unit tests)."""
        return self.with_noise(quiet_profile())

    def with_runtime(self, profile: RuntimeProfile | str) -> "Platform":
        """A copy running a different OpenMP implementation.

        Accepts either a :class:`~repro.omp.vendor.RuntimeProfile` or a
        registry name (``"gnu"`` / ``"llvm"``).
        """
        if isinstance(profile, str):
            profile = get_runtime_profile(profile)
        return replace(self, runtime_profile=profile)

    def describe(self) -> str:
        return (
            f"{self.machine.summary()}; "
            f"boost {self.freq_spec.calibration_hz / 1e9:.2f} GHz single-core, "
            f"{self.freq_spec.boost.all_core_floor / 1e9:.2f} GHz all-core; "
            f"{self.mem_spec.numa_bw / 1e9:.0f} GB/s per NUMA domain; "
            f"noise profile '{self.noise_profile.name}'; "
            f"runtime {self.runtime_profile.vendor}"
        )


@cache
def dardel() -> Platform:
    """Dardel: 2x AMD EPYC Zen2 64c SMT-2, 8 NUMA domains, 256 CPUs.

    Calibration notes (schedbench dynamic_1, Table 2):
    - single-core boost 3.4 GHz is the EPCC delay-calibration frequency;
    - at 4 threads the boost table still gives 3.4 GHz, so one repetition
      is 8192 x 15 us = 122.88 ms plus ~1.1 ms of dequeue overhead
      (dequeue_latency(4) ~ 138 ns x 8192) -> ~124.0 ms (paper: 124.0 ms);
    - at 254 threads (127 cores) the all-core level is 2.8 GHz, stretching
      the delay to 18.2 us -> 149.2 ms, plus dequeue_latency(254) ~ 0.6 us
      x 8192 -> ~154.2 ms (paper: 154.2 ms);
    - the derate process reproduces Table 2's run #9 (+9.5% for a whole
      run, probability rising with node load).
    """
    return Platform(
        name="dardel",
        machine=dardel_topology(),
        freq_spec=FrequencySpec(
            min_hz=ghz(1.5),
            base_hz=ghz(2.25),
            boost=BoostTable.from_ghz(
                [(8, 3.4), (32, 3.2), (64, 3.0), (128, 2.8)]
            ),
            pstate_step_hz=25e6,
            jitter_amplitude=0.002,
            jitter_rate=2.0,
            # Dardel "exhibits less frequency variation" (Sec 5.4)
            dips=DipProcess(
                base_rate=0.01,
                cross_numa_rate=0.03,
                duration_median=0.010,
                duration_sigma=0.5,
                depth_low=0.90,
                depth_high=0.97,
            ),
            derate=DerateProcess(
                prob_at_full_load=0.02,
                depth_low=0.90,
                depth_high=0.93,
                load_exponent=2.0,
            ),
        ),
        mem_spec=MemorySpec(
            numa_bw=gb_per_s(48.0),  # ~190 GB/s achievable per socket / 4 domains
            core_bw=gb_per_s(19.0),
            same_socket_remote_factor=0.75,
            cross_socket_remote_factor=0.45,
            kernel_launch_overhead=us(2.0),
        ),
        noise_profile=dardel_noise(),
        sched_params=SchedParams(
            stacking_prob_per_thread=6.0e-5,
            sched_delay_median=0.004,
            sched_delay_sigma=1.4,
            sched_delay_cap=0.40,
        ),
        sync_params=SyncCostParams(
            line_local=ns(32.0),
            line_cross_numa=ns(75.0),
            line_cross_socket=ns(130.0),
            atomic_rmw=ns(18.0),
            fork_base=us(1.5),
            fork_per_thread=ns(60.0),
        ),
        sched_cost_params=ScheduleCostParams(
            lat_base=ns(70.0),
            lat_sqrt=ns(28.0),
            thru_base=ns(15.0),
            thru_log=ns(4.0),
        ),
    )


@cache
def vera() -> Platform:
    """Vera: 2x Intel Xeon Gold 6130 16c, 2 NUMA domains, 32 CPUs, no SMT.

    Calibration notes:
    - turbo table 3.7 GHz (<=2 cores) down to 2.8 GHz all-core: schedbench
      dynamic_1 at 4 threads = 8192 x 15 us x 3.7/3.35 + dequeue ~ 136.9 ms
      (paper: 136.5 ms); at 30 threads = 8192 x 15 us x 3.7/2.8 + dequeue
      ~ 164.8 ms (paper: 164.7 ms);
    - the dip process runs hot in cross-NUMA mode (Figures 6/7: frequent
      transient drops when the team spans both sockets).
    """
    return Platform(
        name="vera",
        machine=vera_topology(),
        freq_spec=FrequencySpec(
            min_hz=ghz(1.0),
            base_hz=ghz(2.1),
            boost=BoostTable.from_ghz(
                [(2, 3.7), (4, 3.35), (8, 3.1), (16, 2.9), (32, 2.8)]
            ),
            pstate_step_hz=50e6,
            jitter_amplitude=0.004,
            jitter_rate=3.0,
            dips=DipProcess(
                base_rate=0.05,
                cross_numa_rate=4.0,
                duration_median=0.020,
                duration_sigma=0.8,
                depth_low=0.72,
                depth_high=0.90,
                occupancy_exponent=1.5,
            ),
            derate=DerateProcess(
                prob_at_full_load=0.015,
                depth_low=0.93,
                depth_high=0.97,
                load_exponent=2.0,
            ),
        ),
        mem_spec=MemorySpec(
            numa_bw=gb_per_s(85.0),  # 6x DDR4-2666 per socket, ~85 GB/s achievable
            core_bw=gb_per_s(12.0),
            same_socket_remote_factor=1.0,  # one domain per socket
            cross_socket_remote_factor=0.55,
            kernel_launch_overhead=us(2.5),
        ),
        noise_profile=vera_noise(),
        sched_params=SchedParams(
            stacking_prob_per_thread=8.0e-5,
            sched_delay_median=0.004,
            sched_delay_sigma=1.3,
            sched_delay_cap=0.30,
        ),
        sync_params=SyncCostParams(
            line_local=ns(40.0),
            line_cross_numa=ns(40.0),  # no sub-socket NUMA on Vera
            line_cross_socket=ns(150.0),
            atomic_rmw=ns(25.0),
            fork_base=us(1.2),
            fork_per_thread=ns(80.0),
        ),
        sched_cost_params=ScheduleCostParams(
            lat_base=ns(80.0),
            lat_sqrt=ns(30.0),
            thru_base=ns(30.0),
            thru_log=ns(6.0),
        ),
    )


@cache
def toy(smt: int = 2) -> Platform:
    """A small 8-core platform for fast tests and examples."""
    machine = (
        TopologyBuilder("toy").add_sockets(2, numa_per_socket=1, cores_per_numa=4, smt=smt).build()
    )
    return Platform(
        name="toy",
        machine=machine,
        freq_spec=FrequencySpec(
            min_hz=ghz(1.0),
            base_hz=ghz(2.0),
            boost=BoostTable.from_ghz([(2, 3.0), (4, 2.6), (8, 2.2)]),
        ),
        mem_spec=MemorySpec(numa_bw=gb_per_s(40.0), core_bw=gb_per_s(15.0)),
        noise_profile=NoiseProfile(
            "toy",
            tuple(
                s for s in vera_noise().sources if s.kind in ("tick", "daemon")
            ),
        ),
    )


#: Preset factory by name, one per :data:`repro.types.PLATFORMS` entry.
#: Add a factory here to register a custom platform at run time.
_PLATFORMS = {name: globals()[name] for name in PLATFORMS}


def get_platform(name: str) -> Platform:
    """Look up a platform preset by name.

    >>> get_platform("vera").machine.n_cpus
    32
    """
    try:
        factory = _PLATFORMS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown platform {name!r}; choose from {sorted(_PLATFORMS)}"
        ) from None
    return factory()


def available_platforms() -> tuple[str, ...]:
    return tuple(sorted(_PLATFORMS))
