"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.bench.registry import benchmark_row
from repro.errors import ConfigurationError
from repro.omp.env import OMPEnvironment
from repro.omp.vendor import WaitPolicy, get_runtime_profile
from repro.types import ProcBind, ScheduleKind


def _jsonify(value: Any) -> Any:
    """Normalize to JSON-representable shapes (tuples become lists), so a
    ``to_dict()`` payload equals its own JSON round-trip."""
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark launch configuration.

    Attributes
    ----------
    platform:
        Platform preset name (``dardel`` / ``vera`` / ``toy``, the table
        :data:`repro.types.PLATFORMS`).
    benchmark:
        ``syncbench`` / ``schedbench`` / ``babelstream`` / ``taskbench``,
        matched case-insensitively against :mod:`repro.bench.registry`,
        the one table that names a benchmark; ``benchmark_params`` are its
        parameter dataclass's fields.
    num_threads:
        ``OMP_NUM_THREADS``.
    places / proc_bind:
        ``OMP_PLACES`` / ``OMP_PROC_BIND``.  ``proc_bind="false"`` leaves
        placement to the OS (the paper's "before thread-pinning").
    runs:
        Independent benchmark invocations (the paper uses 10).
    seed:
        Master seed; everything downstream is derived from it.
    benchmark_params:
        Keyword overrides for the benchmark's parameter dataclass
        (e.g. ``{"outer_reps": 20}`` to shrink a test).
    noise:
        OS-noise profile selector: ``"default"`` uses the platform's
        calibrated profile, ``"quiet"`` ablates all noise sources (the
        experiment drivers sweep this to attribute variability).
    runtime:
        OpenMP implementation vendor profile (``"gnu"`` = GCC libgomp, the
        historical default; ``"llvm"`` = LLVM libomp); see
        :mod:`repro.omp.vendor`.
    wait_policy:
        ``OMP_WAIT_POLICY`` override (``"active"`` / ``"passive"``);
        ``None`` keeps the vendor's default.
    freq_logging / logger_cpu:
        Run the frequency logger on a (spare) CPU during every run.
    label:
        Optional display label; defaults to a generated one.
    """

    platform: str = "vera"
    benchmark: str = "syncbench"
    num_threads: int = 4
    places: str | None = "cores"
    proc_bind: str = "close"
    schedule: str = "static"
    schedule_chunk: int | None = None
    runs: int = 10
    seed: int = 42
    benchmark_params: Mapping[str, Any] = field(default_factory=dict)
    noise: str = "default"
    runtime: str = "gnu"
    wait_policy: str | None = None
    freq_logging: bool = False
    logger_cpu: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise ConfigurationError("num_threads must be positive")
        if self.runs <= 0:
            raise ConfigurationError("runs must be positive")
        try:
            ProcBind(self.proc_bind)
        except ValueError:
            raise ConfigurationError(f"bad proc_bind {self.proc_bind!r}") from None
        try:
            ScheduleKind(self.schedule)
        except ValueError:
            raise ConfigurationError(f"bad schedule {self.schedule!r}") from None
        benchmark_row(self.benchmark)  # raises on unknown benchmarks
        if self.noise not in ("default", "quiet"):
            raise ConfigurationError(
                f"bad noise profile {self.noise!r}; choose 'default' or 'quiet'"
            )
        # normalize case before validation so 'GNU' and 'gnu' are the same
        # config (and the same cache key)
        object.__setattr__(self, "runtime", self.runtime.lower())
        get_runtime_profile(self.runtime)  # raises on unknown vendors
        if self.wait_policy is not None:
            object.__setattr__(self, "wait_policy", self.wait_policy.lower())
            try:
                WaitPolicy(self.wait_policy)
            except ValueError:
                raise ConfigurationError(
                    f"bad wait_policy {self.wait_policy!r}; choose from "
                    f"{sorted(p.value for p in WaitPolicy)}"
                ) from None

    # -- derived ---------------------------------------------------------------

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        bind = self.proc_bind if self.proc_bind != "false" else "unbound"
        runtime = "" if self.runtime == "gnu" else f" rt={self.runtime}"
        policy = "" if self.wait_policy is None else f" wait={self.wait_policy}"
        return (
            f"{self.benchmark}@{self.platform} n={self.num_threads} "
            f"{bind}{runtime}{policy} seed={self.seed}"
        )

    def runtime_profile(self):
        """The resolved vendor profile (before env wait-policy overrides)."""
        return get_runtime_profile(self.runtime)

    def omp_environment(self) -> OMPEnvironment:
        return OMPEnvironment(
            num_threads=self.num_threads,
            places=self.places,
            proc_bind=ProcBind(self.proc_bind),
            schedule=ScheduleKind(self.schedule),
            schedule_chunk=self.schedule_chunk,
            wait_policy=(
                None if self.wait_policy is None else WaitPolicy(self.wait_policy)
            ),
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "benchmark": self.benchmark,
            "num_threads": self.num_threads,
            "places": self.places,
            "proc_bind": self.proc_bind,
            "schedule": self.schedule,
            "schedule_chunk": self.schedule_chunk,
            "runs": self.runs,
            "seed": self.seed,
            "benchmark_params": _jsonify(dict(self.benchmark_params)),
            "noise": self.noise,
            "runtime": self.runtime,
            "wait_policy": self.wait_policy,
            "freq_logging": self.freq_logging,
            "logger_cpu": self.logger_cpu,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        return cls(**data)
