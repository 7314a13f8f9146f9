"""Compare two sets of benchmark runs, or report the spread of one.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json \\
        [--claim wall_s@region-figures] ...
    python3 benchmarks/e2e/compare.py RESULTS.json      # spread only

PARENT.json and CHANGE.json are results files that ``run.py --out``
appended to.  Runs are paired in file order within each workload: the
i-th parent run of a workload with its i-th change run.  Record them
alternately (parent first in one pair, change first in the next) with
the same seeds on both sides; see README.md.

Rules, for each workload and end-to-end metric in ``BENCHMARK.json``:

* A claimed metric (``--claim NAME`` or ``NAME@WORKLOAD``) is a ``win``
  only if there are at least 10 pairs, the change is better in at least
  9/10 of the pairs (ties count for neither side), the medians differ by
  more than the parent's inter-quartile range, and the change failed no
  more operations than the parent.  Otherwise: ``claim not met``.
* Any other metric is ``ok`` when the change's median is no worse than
  the parent's by more than the metric's bound, ``regression`` when it
  is.  When either side's spread (IQR / median) exceeds the bound the
  result is ``unresolved`` -- unless every change run is better than
  every parent run (``better``).

One row per workload; a change of ``output_sha256`` between paired runs
with the same seed is flagged.  Exit status 1 on any regression or unmet
claim.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metrics import quartiles

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def spread(values: list[float]) -> float:
    """IQR / median, the benchmark's steadiness measure."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a results file, grouped by workload, in order."""
    grouped: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run.get("trace"):
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(
    parent: list[float], change: list[float], better: str, bound: float,
    claimed: bool = False, more_failures: bool = False,
) -> str:
    """The comparison rule for one (metric, workload); *parent* and
    *change* are paired by index."""
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(parent, change))
    q1p, med_p, q3p = quartiles(parent)
    med_c = quartiles(change)[1]
    improvement = sign * (med_c - med_p)
    if claimed:
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        met = (
            len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and improvement > 0
            and abs(med_c - med_p) > q3p - q1p
            and not more_failures
        )
        return "win" if met else "claim not met"
    if max(spread(parent), spread(change)) > bound:
        if better == "lower":
            all_better = max(change) < min(parent)
        else:
            all_better = min(change) > max(parent)
        return "better" if all_better else "unresolved"
    worse = -improvement / abs(med_p) if med_p else 0.0
    return "regression" if worse > bound else "ok"


def _claims(items: list[str]) -> set[tuple[str, str | None]]:
    out = set()
    for item in items:
        metric, _, workload = item.partition("@")
        out.add((metric, workload or None))
    return out


def compare(parent_path: str, change_path: str, claims: list[str]) -> int:
    spec = load_spec()
    claimed = _claims(claims)
    parent, change = load_runs(parent_path), load_runs(change_path)
    bad = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"{workload}: missing on one side")
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        same_seed = [p["seed"] == c["seed"] for p, c in zip(p_runs, c_runs)]
        changed = sum(
            1 for p, c, same in zip(p_runs, c_runs, same_seed)
            if same and p["output_sha256"] != c["output_sha256"]
        )
        output = "output CHANGED" if changed else "output same"
        if not all(same_seed):
            output += " (seeds differ in some pairs)"
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        cells = []
        for name, m in spec.items():
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            is_claim = (name, None) in claimed or (name, workload) in claimed
            v = verdict(pv, cv, m["better"], m["bound"], is_claim,
                        c_failed > p_failed)
            bad |= v in ("regression", "claim not met")
            med_p, med_c = quartiles(pv)[1], quartiles(cv)[1]
            delta = (med_c - med_p) / med_p * 100 if med_p else 0.0
            cells.append(f"{name} {med_p:.4g}->{med_c:.4g} ({delta:+.1f}%) {v}")
        print(f"{workload}: pairs={n} failed={p_failed}->{c_failed} "
              f"{output} | " + " | ".join(cells))
    return 1 if bad else 0


def report_spread(path: str) -> int:
    """Per (workload, metric): median, IQR/median and its bound."""
    spec = load_spec()
    for workload, runs in sorted(load_runs(path).items()):
        cells = []
        for name, m in spec.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flag = "" if s < m["bound"] / 3 else (" >b/3" if s <= m["bound"] else " >bound")
            cells.append(f"{name} {quartiles(values)[1]:.4g} spread {s:.1%}{flag}")
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: runs={len(runs)} failed={failed} | " + " | ".join(cells))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC[@WORKLOAD]")
    args = parser.parse_args(argv)
    if args.change is None:
        return report_spread(args.parent)
    return compare(args.parent, args.change, args.claim)


if __name__ == "__main__":
    sys.exit(main())
