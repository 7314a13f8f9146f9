"""Declarative parameter-sweep studies.

The paper's evaluation — and every scenario beyond it — is a family of
parameter sweeps: benchmark x platform x threads x pinning x noise x
vendor.  :class:`Study` turns such a sweep into a value: axes declared
with :meth:`~Study.grid` / :meth:`~Study.zip` / :meth:`~Study.cases`
compose into an explicit configuration list, derived fields
(:meth:`~Study.derive`) and filters (:meth:`~Study.where`) refine it, and
:meth:`~Study.run` executes everything through one shared
:class:`~repro.harness.parallel.Sweep` (process-pool fan-out + on-disk
cache), exactly like the hand-rolled experiment drivers used to.

::

    study = (
        Study(ExperimentConfig(benchmark="syncbench", runs=5))
        .grid(num_threads=[4, 8, 16], runtime=["gnu", "llvm"])
        .where(lambda cfg: cfg.num_threads <= 30 or cfg.platform == "dardel")
    )
    res = study.run(jobs=0, cache=ResultCache("/tmp/repro-cache"))
    res.group_summaries("num_threads")         # pooled stats per axis value
    res.to_csv("sweep.csv")                    # tidy long-form export

Axis keys name either an :class:`ExperimentConfig` field
(``num_threads``, ``runtime``, ...) or — for any other key — an entry of
``benchmark_params`` (``grainsize``, ``outer_reps``, ...), so benchmark
knobs sweep exactly like launch knobs.  A ``benchmark_params`` point value
merges into (rather than replaces) the parameters accumulated so far.

Execution returns a :class:`StudyResult`: the per-config
:class:`~repro.harness.results.ExperimentResult` objects (positionally
and via axis-value lookup), plus *tidy* long-form records — one row per
config x run x measurement label, carrying the axis values and the
summary statistics of that run's repetition times — exportable to CSV or
JSON for external analysis.

Studies are immutable: every composition method returns a new
:class:`Study`, so a base sweep can be shared and specialized freely.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, fields as _dataclass_fields
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import AxisPointError, ConfigurationError, HarnessError
from repro.harness.backend import ExecutionBackend
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import Sweep
from repro.harness.results import ExperimentResult
from repro.obs.metrics import MetricsRegistry
from repro.stats.descriptive import SummaryStats, summarize

__all__ = ["Study", "StudyResult", "coerce_token", "config_value", "load_records"]

#: Field names of :class:`ExperimentConfig`; any other axis key addresses
#: ``benchmark_params``.
_CONFIG_FIELDS = frozenset(f.name for f in _dataclass_fields(ExperimentConfig))

#: Identity columns always present in tidy records (before swept axes).
_IDENTITY_AXES = ("platform", "benchmark", "num_threads")

#: Statistics carried by one tidy record, in column order.
_STAT_COLUMNS = (
    "n", "mean", "sd", "min", "p25", "median", "p75", "max",
    "cv", "norm_min", "norm_max",
)


def config_value(config: ExperimentConfig, name: str) -> Any:
    """The value of axis *name* on *config*.

    Resolves config fields first, then ``benchmark_params`` entries;
    raises :class:`HarnessError` for a name the config does not carry.
    """
    if name in _CONFIG_FIELDS:
        return getattr(config, name)
    try:
        return config.benchmark_params[name]
    except KeyError:
        raise HarnessError(
            f"config {config.display_label!r} has no axis {name!r} "
            f"(not a config field nor a benchmark parameter)"
        ) from None


def _check_axis_values(name: str, values: Any) -> tuple:
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise HarnessError(
            f"axis {name!r} needs a sequence of values, got {values!r} "
            f"(wrap a single value in a list)"
        )
    values = tuple(values)
    if not values:
        raise HarnessError(f"axis {name!r} has no values")
    return values


@dataclass(frozen=True)
class _Axis:
    """One declared sweep dimension: an ordered tuple of override points."""

    kind: str  # "grid" | "zip" | "cases"
    names: tuple[str, ...]
    points: tuple[Mapping[str, Any], ...]


class Study:
    """A declarative sweep specification over :class:`ExperimentConfig`.

    Parameters
    ----------
    base:
        The configuration every point starts from (defaults to
        ``ExperimentConfig()``).
    name / description:
        Used by reports and exports.
    """

    def __init__(
        self,
        base: ExperimentConfig | None = None,
        *,
        name: str = "study",
        description: str = "",
    ):
        self.base = base if base is not None else ExperimentConfig()
        self.name = name
        self.description = description
        self._axes: tuple[_Axis, ...] = ()
        self._derived: tuple[tuple[str, Callable[[ExperimentConfig], Any]], ...] = ()
        self._predicates: tuple[Callable[[ExperimentConfig], bool], ...] = ()

    # -- composition (every method returns a new Study) ----------------------

    def _clone(self, **updates) -> "Study":
        out = Study(self.base, name=self.name, description=self.description)
        out._axes = updates.get("axes", self._axes)
        out._derived = updates.get("derived", self._derived)
        out._predicates = updates.get("predicates", self._predicates)
        return out

    def grid(self, **axes: Sequence[Any]) -> "Study":
        """Cross product over the given value lists (first key outermost).

        Each call adds one axis; axes from successive calls multiply.  A
        key repeated in a later axis overrides the earlier value.
        """
        if not axes:
            raise HarnessError("grid() needs at least one KEY=[values] axis")
        values = [_check_axis_values(k, v) for k, v in axes.items()]
        names = tuple(axes)
        points = tuple(
            dict(zip(names, combo)) for combo in itertools.product(*values)
        )
        axis = _Axis(kind="grid", names=names, points=points)
        return self._clone(axes=self._axes + (axis,))

    def zip(self, **axes: Sequence[Any]) -> "Study":
        """Tie equal-length value lists together (one point per position)."""
        if not axes:
            raise HarnessError("zip() needs at least one KEY=[values] axis")
        values = [_check_axis_values(k, v) for k, v in axes.items()]
        lengths = {len(v) for v in values}
        if len(lengths) != 1:
            raise HarnessError(
                f"zip() axes must share a length, got "
                f"{ {k: len(v) for k, v in zip(axes, values)} }"
            )
        names = tuple(axes)
        points = tuple(dict(zip(names, combo)) for combo in zip(*values))
        axis = _Axis(kind="zip", names=names, points=points)
        return self._clone(axes=self._axes + (axis,))

    def cases(self, *points: Mapping[str, Any]) -> "Study":
        """Explicit override points (for irregular axes a product can't
        express, e.g. per-platform thread sweeps)."""
        if not points:
            raise HarnessError("cases() needs at least one point")
        frozen: list[dict[str, Any]] = []
        names: list[str] = []
        for point in points:
            if not isinstance(point, Mapping):
                raise HarnessError(f"cases() points must be mappings, got {point!r}")
            frozen.append(dict(point))
            for key in point:
                if key not in names:
                    names.append(key)
        axis = _Axis(kind="cases", names=tuple(names), points=tuple(frozen))
        return self._clone(axes=self._axes + (axis,))

    def derive(self, **fns: Callable[[ExperimentConfig], Any]) -> "Study":
        """Compute fields from each expanded config (e.g. placement from
        platform + thread count).  Applied in declaration order, after all
        axes; each function sees the previous derivations applied."""
        for key, fn in fns.items():
            if not callable(fn):
                raise HarnessError(f"derive({key}=...) needs a callable, got {fn!r}")
        return self._clone(derived=self._derived + tuple(fns.items()))

    def where(self, pred: Callable[[ExperimentConfig], bool]) -> "Study":
        """Keep only configs for which *pred* is true (applied after
        :meth:`derive`)."""
        if not callable(pred):
            raise HarnessError(f"where() needs a callable, got {pred!r}")
        return self._clone(predicates=self._predicates + (pred,))

    # -- expansion ------------------------------------------------------------

    def axis_names(self) -> tuple[str, ...]:
        """Swept axis keys, in declaration order (first appearance wins)."""
        names: list[str] = []
        for axis in self._axes:
            for name in axis.names:
                if name not in names:
                    names.append(name)
        return tuple(names)

    def _apply_point(self, key: str, value: Any, fields: dict, params: dict) -> None:
        if key == "benchmark_params":
            if not isinstance(value, Mapping):
                raise HarnessError(
                    f"benchmark_params point value must be a mapping, got {value!r}"
                )
            params.update(value)
        elif key in _CONFIG_FIELDS:
            fields[key] = value
        else:
            params[key] = value

    def configs(self) -> tuple[ExperimentConfig, ...]:
        """The expanded configuration list, in axis declaration order."""
        built: list[ExperimentConfig] = []
        for combo in itertools.product(*(axis.points for axis in self._axes)):
            fields: dict[str, Any] = {}
            params: dict[str, Any] = dict(self.base.benchmark_params)
            for point in combo:
                for key, value in point.items():
                    self._apply_point(key, value, fields, params)
            field = "axes"  # what built the config that failed
            try:
                cfg = self.base.with_overrides(benchmark_params=params, **fields)
                for key, fn in self._derived:
                    field = f"derive.{key}"
                    value = fn(cfg)
                    if key in _CONFIG_FIELDS:
                        cfg = cfg.with_overrides(**{key: value})
                    else:
                        cfg = cfg.with_overrides(
                            benchmark_params={**cfg.benchmark_params, key: value}
                        )
            except ConfigurationError as exc:
                point = ", ".join(f"{k}={v}" for p in combo for k, v in p.items())
                raise AxisPointError(f"{point}: {exc}" if point else str(exc), field) from None
            if all(pred(cfg) for pred in self._predicates):
                built.append(cfg)
        return tuple(built)

    def __len__(self) -> int:
        return len(self.configs())

    def preview(self, cache: ResultCache | None = None) -> list[dict[str, Any]]:
        """Expanded configs with cache keys and warm/cold status — the
        ``sweep --dry-run`` / ``POST /jobs?dry_run=1`` payload.

        One row per selected config: ``index``, ``label``, the full
        ``config`` dict, its ``cache_key`` and whether *cache* already
        holds an entry for it.  Probes the cache directory directly (no
        :meth:`ResultCache.get`), so previewing never perturbs the
        hit/miss counters and never simulates.
        """
        rows: list[dict[str, Any]] = []
        for index, cfg in enumerate(self.configs()):
            key = cache_key(cfg)
            cached = (
                cache is not None
                and (cache.cache_dir / f"{key}.json").exists()
            )
            rows.append({
                "index": index,
                "label": cfg.display_label,
                "config": cfg.to_dict(),
                "cache_key": key,
                "cached": bool(cached),
            })
        return rows

    # -- execution ------------------------------------------------------------

    def run(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        backend: "ExecutionBackend | None" = None,
        shard: tuple[int, int] | None = None,
    ) -> "StudyResult":
        """Execute every selected config through one shared
        :class:`~repro.harness.parallel.Sweep`; bit-identical for any
        ``jobs`` (or *backend*) and replayable from *cache*.

        *backend* selects the execution mechanism explicitly (see
        :mod:`repro.harness.backend`); without one, *jobs* picks serial
        or process-pool execution.  With ``shard=(i, n)`` only shard
        ``i`` of an ``n``-way partition executes, and the run raises
        :class:`~repro.harness.shard.ShardRunComplete` after writing its
        manifest — assemble the shards with :meth:`gather`.

        With *metrics*, the sweep's harness telemetry is recorded (see
        :class:`~repro.harness.parallel.Sweep`) and additionally broken
        down per swept axis: every config's wall time is observed into an
        ``axis_wall_seconds{axis=..., value=...}`` histogram per axis it
        belongs to, so slow axis values stand out in the telemetry report.
        """
        configs = self.configs()
        if not configs:
            raise HarnessError(
                f"study {self.name!r} selects no configurations "
                f"(empty axes or an unsatisfiable where() filter)"
            )
        sweep = Sweep(
            jobs=jobs, cache=cache, metrics=metrics, backend=backend,
            shard=shard,
        )
        results = sweep.run(configs)
        if metrics is not None:
            for name in self.axis_names():
                for cfg, wall in zip(configs, sweep.last_config_walls):
                    metrics.histogram(
                        "axis_wall_seconds",
                        axis=name,
                        value=config_value(cfg, name),
                    ).observe(wall)
        return StudyResult(study=self, configs=configs, results=tuple(results))

    def gather(
        self,
        cache: ResultCache,
        expected_shards: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "StudyResult":
        """Assemble a sharded run of this study from *cache*.

        Validates the shard manifests (complete partition, consistent
        shard count, per-entry SHA-256 integrity), then replays every
        config's cached entry — never simulating — into a
        :class:`StudyResult` byte-identical to ``run(jobs=1, cache=...)``
        on one host.  See :func:`repro.harness.shard.gather_study`.
        """
        from repro.harness.shard import gather_study

        return gather_study(
            self, cache, expected_shards=expected_shards, metrics=metrics
        )


class StudyResult:
    """All results of one executed :class:`Study`.

    Holds the per-config :class:`ExperimentResult` objects (aligned with
    ``configs``) and derives tidy long-form records from them on demand.
    """

    def __init__(
        self,
        study: Study,
        configs: Sequence[ExperimentConfig],
        results: Sequence[ExperimentResult],
    ):
        if len(configs) != len(results):
            raise HarnessError(
                f"{len(configs)} configs but {len(results)} results"
            )
        self.study = study
        self.configs = tuple(configs)
        self.results = tuple(results)

    @property
    def axes(self) -> tuple[str, ...]:
        return self.study.axis_names()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[tuple[ExperimentConfig, ExperimentResult]]:
        return iter(zip(self.configs, self.results))

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]

    # -- lookup ---------------------------------------------------------------

    def by(self, *names: str) -> dict[Any, ExperimentResult]:
        """Results keyed by axis value(s): one name keys by the bare value,
        several by the value tuple.  Raises if keys collide (the named axes
        do not identify configs uniquely)."""
        if not names:
            raise HarnessError("by() needs at least one axis name")
        out: dict[Any, ExperimentResult] = {}
        for cfg, result in self:
            values = tuple(config_value(cfg, n) for n in names)
            key = values[0] if len(names) == 1 else values
            if key in out:
                raise HarnessError(
                    f"axes {names} do not identify configs uniquely "
                    f"(duplicate key {key!r})"
                )
            out[key] = result
        return out

    def get(self, **axis_values: Any) -> ExperimentResult:
        """The unique result whose config matches every given axis value."""
        matches = [
            result
            for cfg, result in self
            if all(config_value(cfg, k) == v for k, v in axis_values.items())
        ]
        if len(matches) != 1:
            raise HarnessError(
                f"{axis_values} matches {len(matches)} configs, need exactly 1"
            )
        return matches[0]

    def values(self, name: str) -> tuple[Any, ...]:
        """Distinct values of axis *name*, in first-appearance order."""
        seen: list[Any] = []
        for cfg in self.configs:
            value = config_value(cfg, name)
            if value not in seen:
                seen.append(value)
        return tuple(seen)

    # -- tidy records ----------------------------------------------------------

    def record_axes(self) -> tuple[str, ...]:
        """Identity columns of the tidy records: platform/benchmark/threads
        plus every swept axis (ordered, deduplicated)."""
        names = list(_IDENTITY_AXES)
        for name in self.axes:
            if name not in names:
                names.append(name)
        return tuple(names)

    def to_records(self, axes: Sequence[str] | None = None) -> list[dict[str, Any]]:
        """Tidy long-form rows: one per config x run x measurement label.

        Each row carries the axis columns, the measurement ``label``, the
        ``run`` index, and the summary statistics of that run's repetition
        times (via :func:`repro.stats.descriptive.summarize`).
        """
        axis_names = tuple(axes) if axes is not None else self.record_axes()
        records: list[dict[str, Any]] = []
        for cfg, result in self:
            identity = {name: config_value(cfg, name) for name in axis_names}
            for row in result.to_records():
                records.append({**identity, **row})
        return records

    def _resolve_label(
        self, cfg: ExperimentConfig, result: ExperimentResult,
        label: str | Callable[[ExperimentConfig], str] | None,
    ) -> str:
        if label is None:
            return result.labels()[0]
        if callable(label):
            return label(cfg)
        return label

    def group_summaries(
        self,
        axis: str,
        label: str | Callable[[ExperimentConfig], str] | None = None,
    ) -> dict[Any, SummaryStats]:
        """Pooled variability statistics per value of *axis*.

        Pools every repetition time of every run of every config sharing
        the axis value and summarizes the pool (mean/sd/CV/normalized
        min-max — the paper's variability metrics).  ``label`` picks the
        measurement series: a fixed label, a per-config callable, or
        ``None`` for each result's first series.
        """
        pools: dict[Any, list[np.ndarray]] = {}
        for cfg, result in self:
            value = config_value(cfg, axis)
            series = self._resolve_label(cfg, result, label)
            pools.setdefault(value, []).append(result.runs_matrix(series).ravel())
        return {
            value: summarize(np.concatenate(chunks))
            for value, chunks in pools.items()
        }

    # -- export ----------------------------------------------------------------

    def to_json_text(self) -> str:
        """The JSON export as a string — exactly the bytes :meth:`to_json`
        writes, so the job service can serve records byte-identical to a
        CLI ``--out`` file."""
        payload = {
            "study": self.study.name,
            "description": self.study.description,
            "axes": list(self.record_axes()),
            "records": self.to_records(),
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv_text(self) -> str:
        """The CSV export as a string (same bytes as :meth:`to_csv`)."""
        records = self.to_records()
        columns = [*self.record_axes(), "label", "run", *_STAT_COLUMNS]
        buffer = io.StringIO(newline="")
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        writer.writerows(records)
        return buffer.getvalue()

    def to_json(self, path: str | Path) -> int:
        """Write the tidy records (plus study metadata) as JSON; returns
        the number of records written."""
        text = self.to_json_text()
        Path(path).write_text(text)
        return len(self.to_records())

    def to_csv(self, path: str | Path) -> int:
        """Write the tidy records as CSV (header = axis + stat columns);
        returns the number of records written."""
        records = self.to_records()
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())
        return len(records)


def coerce_token(raw: str) -> Any:
    """Coerce a string token to int/float/bool/None where it parses.

    The one coercion rule shared by the CLI (``--param`` / ``--grid`` /
    ``--zip`` values) and the CSV reader, so a value written through one
    round-trips identically through the other: numbers first, then
    ``true``/``false``/``none`` (case-insensitive), else the string.
    """
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "none":
        return None
    return raw


def _coerce_csv_cell(raw: str) -> Any:
    """Undo CSV stringification (``""`` is how ``None`` writes out)."""
    if raw == "":
        return None
    return coerce_token(raw)


def load_records(path: str | Path) -> list[dict[str, Any]]:
    """Read back a :meth:`StudyResult.to_csv` / :meth:`~StudyResult.to_json`
    export as the list of tidy records."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = json.loads(path.read_text())
        return list(payload["records"])
    with open(path, newline="") as fh:
        return [
            {key: _coerce_csv_cell(value) for key, value in row.items()}
            for row in csv.DictReader(fh)
        ]
