"""Variability decomposition and reporting.

The paper distinguishes two variability scales:

* **within-run** — across the 100 repetitions of one benchmark invocation
  (EPCC's own statistics), and
* **run-to-run** — across the 10 independent invocations.

:func:`decompose_variability` performs the one-way random-effects
decomposition (runs as groups): total variance splits into between-run and
within-run components, and the intraclass correlation states how much of
the observed variability is attributable to run identity — pinning should
drive it toward zero (Figure 4), SMT and saturation push it up (Figures 3
and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.stats.descriptive import SummaryStats, summarize


@dataclass(frozen=True)
class VariabilityDecomposition:
    """One-way random-effects variance decomposition."""

    n_runs: int
    reps_per_run: int
    grand_mean: float
    between_run_var: float
    within_run_var: float

    @property
    def total_var(self) -> float:
        return self.between_run_var + self.within_run_var

    @property
    def icc(self) -> float:
        """Intraclass correlation: share of variance explained by runs."""
        total = self.total_var
        return self.between_run_var / total if total > 0 else 0.0

    @property
    def between_cv(self) -> float:
        return (
            float(np.sqrt(self.between_run_var)) / self.grand_mean
            if self.grand_mean
            else float("inf")
        )

    @property
    def within_cv(self) -> float:
        return (
            float(np.sqrt(self.within_run_var)) / self.grand_mean
            if self.grand_mean
            else float("inf")
        )


def decompose_variability(runs: np.ndarray) -> VariabilityDecomposition:
    """Decompose a (n_runs, reps) matrix of times.

    Uses the standard ANOVA estimators: ``MS_between = reps * var(run
    means)``, ``MS_within = mean(run variances)``; the between-run variance
    component is ``max(0, (MS_between - MS_within) / reps)``.
    """
    x = np.asarray(runs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ReproError("need a (runs >= 2, reps >= 2) matrix")
    if not np.all(np.isfinite(x)):
        raise ReproError("matrix contains non-finite values")
    n_runs, reps = x.shape
    run_means = x.mean(axis=1)
    ms_between = reps * run_means.var(ddof=1)
    ms_within = float(x.var(axis=1, ddof=1).mean())
    sigma2_between = max(0.0, (ms_between - ms_within) / reps)
    return VariabilityDecomposition(
        n_runs=n_runs,
        reps_per_run=reps,
        grand_mean=float(x.mean()),
        between_run_var=float(sigma2_between),
        within_run_var=ms_within,
    )


@dataclass(frozen=True)
class VariabilityReport:
    """Everything the harness reports about one configuration's timings."""

    label: str
    per_run: tuple[SummaryStats, ...]
    pooled: SummaryStats
    decomposition: VariabilityDecomposition | None = None
    runs_matrix: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def from_runs(cls, label: str, runs: np.ndarray) -> "VariabilityReport":
        x = np.asarray(runs, dtype=np.float64)
        if x.ndim != 2:
            raise ReproError("runs must be a (n_runs, reps) matrix")
        per_run = tuple(summarize(row) for row in x)
        decomposition = (
            decompose_variability(x) if x.shape[0] >= 2 and x.shape[1] >= 2 else None
        )
        return cls(
            label=label,
            per_run=per_run,
            pooled=summarize(x.ravel()),
            decomposition=decomposition,
            runs_matrix=x,
        )

    @property
    def n_runs(self) -> int:
        return len(self.per_run)

    def run_means(self) -> np.ndarray:
        return np.asarray([s.mean for s in self.per_run])

    def render(self, unit_scale: float = 1e6, unit: str = "us") -> str:
        """ASCII rendering: one row per run + pooled summary."""
        lines = [f"== {self.label} =="]
        header = (
            f"{'run':>4} {'mean':>12} {'sd':>10} {'min':>12} "
            f"{'max':>12} {'cv':>8} {'nmin':>7} {'nmax':>7}"
        )
        lines.append(header)
        for i, s in enumerate(self.per_run, start=1):
            lines.append(
                f"{i:>4} {s.mean * unit_scale:>12.2f} {s.sd * unit_scale:>10.2f} "
                f"{s.minimum * unit_scale:>12.2f} {s.maximum * unit_scale:>12.2f} "
                f"{s.cv:>8.4f} {s.norm_min:>7.3f} {s.norm_max:>7.3f}"
            )
        p = self.pooled
        lines.append(
            f"{'all':>4} {p.mean * unit_scale:>12.2f} {p.sd * unit_scale:>10.2f} "
            f"{p.minimum * unit_scale:>12.2f} {p.maximum * unit_scale:>12.2f} "
            f"{p.cv:>8.4f} {p.norm_min:>7.3f} {p.norm_max:>7.3f}  [{unit}]"
        )
        if self.decomposition is not None:
            d = self.decomposition
            lines.append(
                f"     run-to-run CV {d.between_cv:.4f} | within-run CV "
                f"{d.within_cv:.4f} | ICC {d.icc:.3f}"
            )
        return "\n".join(lines)
