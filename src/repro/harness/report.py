"""ASCII rendering helpers for tables and figure-like series.

The harness regenerates the paper's tables and figures as text: tables as
aligned columns, figure series as labelled rows of values (and a crude
unicode sparkline for trend reading in a terminal).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import HarnessError
from repro.units import to_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.shard import ShardSummary
    from repro.harness.study import StudyResult
    from repro.obs.metrics import MetricsRegistry

_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Glyph used for a non-finite (NaN/inf) cell in a sparkline.
_SPARK_BLANK = "·"


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Align *rows* under *headers*."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a series (empty- and NaN-safe).

    Non-finite cells (NaN/inf) render as a blank glyph instead of
    poisoning the min/max scaling or crashing the integer cast.

    >>> sparkline([1, 2, 3])
    '▁▅█'
    >>> sparkline([1.0, float("nan"), 3.0])
    '▁·█'
    """
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        return ""
    finite = np.isfinite(v)
    if not finite.any():
        return _SPARK_BLANK * v.size
    lo, hi = float(v[finite].min()), float(v[finite].max())
    if hi == lo:
        return "".join(
            _SPARK_CHARS[0] if ok else _SPARK_BLANK for ok in finite
        )
    scaled = np.zeros(v.size)
    scaled[finite] = (v[finite] - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)
    idx = np.minimum(len(_SPARK_CHARS) - 1, scaled.round().astype(int))
    return "".join(
        _SPARK_CHARS[i] if ok else _SPARK_BLANK for i, ok in zip(idx, finite)
    )


def render_series(
    label: str, xs: Sequence[object], ys: Sequence[float], unit: str = ""
) -> str:
    """One figure series as a labelled row with a sparkline.

    Raises :class:`HarnessError` when ``xs`` and ``ys`` disagree in length
    (silently truncating to the shorter series would misattribute values
    to x positions).
    """
    if len(xs) != len(ys):
        raise HarnessError(
            f"series {label!r}: {len(xs)} x values but {len(ys)} y values"
        )
    pairs = "  ".join(f"{x}:{y:.4g}" for x, y in zip(xs, ys))
    suffix = f" [{unit}]" if unit else ""
    return f"{label:<28} {sparkline(ys)}  {pairs}{suffix}"


# ---------------------------------------------------------------------------
# Study-driven rendering
# ---------------------------------------------------------------------------
#
# These renderers take a StudyResult (or its derived groupings) plus an axis
# spec, so a section is described by *which axes go where* instead of a
# bespoke per-driver loop: render_pivot lays one axis along the rows and one
# along the columns, render_group_summaries tabulates pooled variability per
# axis value, and render_study_overview gives one pooled row per config.


def render_pivot(
    row_header: str,
    row_values: Sequence[Any],
    col_values: Sequence[Any],
    cell_columns: Sequence[str],
    cell: Callable[[Any, Any], Sequence[object]],
    col_label: Callable[[Any], str] = str,
    title: str | None = None,
) -> str:
    """Two-axis pivot table: rows x (columns x per-cell metrics).

    ``cell(row_value, col_value)`` returns one formatted value per entry of
    ``cell_columns``; headers become ``f"{col_label(col)} {metric}"``.
    """
    headers = [row_header] + [
        f"{col_label(col)} {metric}" for col in col_values for metric in cell_columns
    ]
    rows = []
    for row_value in row_values:
        row: list[object] = [row_value]
        for col_value in col_values:
            cells = list(cell(row_value, col_value))
            if len(cells) != len(cell_columns):
                raise HarnessError(
                    f"pivot cell ({row_value!r}, {col_value!r}) returned "
                    f"{len(cells)} values for {len(cell_columns)} columns"
                )
            row.extend(cells)
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_group_summaries(
    axis: str,
    groups: Mapping[Any, Any],
    title: str | None = None,
) -> str:
    """Pooled variability per axis value (a ``group_summaries()`` mapping).

    One row per value: sample size, mean/min/max in microseconds, CV and
    normalized min/max — the paper's variability metrics along one axis.
    """
    rows = [
        [
            value,
            s.n,
            f"{to_us(s.mean):.2f}",
            f"{to_us(s.minimum):.2f}",
            f"{to_us(s.maximum):.2f}",
            f"{s.cv:.4f}",
            f"{s.norm_min:.3f}",
            f"{s.norm_max:.3f}",
        ]
        for value, s in groups.items()
    ]
    return render_table(
        [axis, "n", "mean us", "min us", "max us", "CV", "norm min", "norm max"],
        rows,
        title=title,
    )


def render_study_overview(
    result: "StudyResult",
    label: str | Callable[..., str] | None = None,
    title: str | None = None,
) -> str:
    """One pooled row per config of a study: axis values + variability.

    ``label`` selects the measurement series exactly as in
    :meth:`~repro.harness.study.StudyResult.group_summaries`.
    """
    from repro.harness.study import config_value
    from repro.stats.descriptive import summarize

    axes = result.record_axes()
    rows = []
    for cfg, res in result:
        series = result._resolve_label(cfg, res, label)
        s = summarize(res.runs_matrix(series).ravel())
        rows.append(
            [
                *(config_value(cfg, name) for name in axes),
                series,
                s.n,
                f"{to_us(s.mean):.2f}",
                f"{s.cv:.4f}",
                f"{s.norm_min:.3f}",
                f"{s.norm_max:.3f}",
            ]
        )
    return render_table(
        [*axes, "label", "n", "mean us", "CV", "norm min", "norm max"],
        rows,
        title=title,
    )


# ---------------------------------------------------------------------------
# Tasking metrics
# ---------------------------------------------------------------------------

#: Suffixes under which the tasking scheduler's internals ride along with a
#: measurement's repetition times in a run record's series (see
#: :mod:`repro.bench.taskbench`).
TASKING_METRIC_SUFFIXES = (".steals", ".failed_steals", ".idle_frac")


def split_tasking_labels(labels: Sequence[str]) -> tuple[list[str], list[str]]:
    """Partition series labels into (time series, tasking-metric series).

    A label is a tasking *base* when all of its metric companions are
    present; the companions themselves land in the second list.

    >>> split_tasking_labels(["taskloop_g4", "taskloop_g4.steals",
    ...                       "taskloop_g4.failed_steals",
    ...                       "taskloop_g4.idle_frac", "reduction"])
    (['taskloop_g4', 'reduction'], ['taskloop_g4.steals', 'taskloop_g4.failed_steals', 'taskloop_g4.idle_frac'])
    """
    label_set = set(labels)
    bases = {
        label
        for label in labels
        if all(f"{label}{s}" in label_set for s in TASKING_METRIC_SUFFIXES)
    }
    metrics = {
        f"{base}{s}" for base in bases for s in TASKING_METRIC_SUFFIXES
    }
    return (
        [lb for lb in labels if lb not in metrics],
        [lb for lb in labels if lb in metrics],
    )


def render_tasking_summary(
    label: str,
    steals: np.ndarray,
    failed_steals: np.ndarray,
    idle_frac: np.ndarray,
) -> str:
    """Per-run work-stealing summary for one measurement.

    All three inputs are ``(n_runs, reps)`` matrices of the scheduler's
    per-repetition internals: successful steals, failed steal attempts,
    and the per-repetition idle fraction (share of thread-time spent
    looking for work).
    """
    steals = np.asarray(steals, dtype=np.float64)
    failed = np.asarray(failed_steals, dtype=np.float64)
    idle = np.asarray(idle_frac, dtype=np.float64)
    if not steals.shape == failed.shape == idle.shape or steals.ndim != 2:
        raise ValueError("tasking metric matrices must share a (runs, reps) shape")

    def fail_rate(s: np.ndarray, f: np.ndarray) -> float:
        attempts = float(s.sum() + f.sum())
        return float(f.sum()) / attempts if attempts else 0.0

    rows = []
    for i in range(steals.shape[0]):
        rows.append(
            [
                i + 1,
                f"{float(steals[i].mean()):.1f}",
                f"{float(failed[i].mean()):.1f}",
                f"{fail_rate(steals[i], failed[i]):.3f}",
                f"{float(idle[i].mean()):.3f}",
            ]
        )
    rows.append(
        [
            "all",
            f"{float(steals.mean()):.1f}",
            f"{float(failed.mean()):.1f}",
            f"{fail_rate(steals, failed):.3f}",
            f"{float(idle.mean()):.3f}",
        ]
    )
    return render_table(
        ["run", "steals/rep", "failed/rep", "fail rate", "idle frac"],
        rows,
        title=f"{label}: work-stealing scheduler metrics",
    )


# ---------------------------------------------------------------------------
# Distributed execution (shard / gather)
# ---------------------------------------------------------------------------


def render_shard_summary(summary: "ShardSummary") -> str:
    """One shard worker's closing report (``--shard i/N`` runs)."""
    lines = [
        f"shard {summary.label}: {summary.assigned} of "
        f"{summary.configs_total} config(s) assigned to this shard",
        f"  simulated: {summary.simulated}; served from cache: "
        f"{summary.cached}",
        f"  manifest:  {summary.manifest_path}",
        f"next: run the remaining shards against the same cache dir, then "
        f"`repro-omp gather` to assemble them",
    ]
    return "\n".join(lines)


def render_gather_summary(
    n_shards: int, n_entries: int, total_bytes: float, n_configs: int
) -> str:
    """The gather step's integrity summary (all digests verified)."""
    return (
        f"gather: {n_shards} shard manifest(s), {n_entries} cache "
        f"entry(ies) ({total_bytes:,.0f} bytes) verified by SHA-256; "
        f"assembled {n_configs} config(s)"
    )


# ---------------------------------------------------------------------------
# Harness telemetry
# ---------------------------------------------------------------------------


def _format_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_telemetry(metrics: "MetricsRegistry") -> str:
    """The harness-telemetry section: one table per instrument kind.

    Renders a :class:`~repro.obs.metrics.MetricsRegistry` snapshot —
    counters, gauges, then histograms (count/mean/min/max) — with labels
    folded into the instrument name (``axis_wall_seconds{axis=runtime}``).
    An empty registry renders a single placeholder line.
    """
    data = metrics.to_dict()
    sections: list[str] = []
    scalar_rows = [
        [f"{e['name']}{_format_labels(e['labels'])}", kind, f"{e['value']:g}"]
        for kind, entries in (("counter", data["counters"]),
                              ("gauge", data["gauges"]))
        for e in entries
    ]
    if scalar_rows:
        sections.append(
            render_table(["metric", "kind", "value"], scalar_rows,
                         title="harness telemetry")
        )
    hist_rows = []
    for e in data["histograms"]:
        if not e["count"]:
            continue
        mean = e["total"] / e["count"]
        hist_rows.append(
            [
                f"{e['name']}{_format_labels(e['labels'])}",
                e["count"],
                f"{mean:.4g}",
                f"{e['min']:.4g}",
                f"{e['max']:.4g}",
            ]
        )
    if hist_rows:
        title = None if sections else "harness telemetry"
        sections.append(
            render_table(["histogram", "count", "mean", "min", "max"],
                         hist_rows, title=title)
        )
    if not sections:
        return "harness telemetry: (no metrics recorded)"
    return "\n\n".join(sections)
