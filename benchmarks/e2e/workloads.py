"""The four workloads of the end-to-end benchmark.

Each workload is a closed loop with one client: one repetition runs the
workload's CLI invocations one after another, each in a fresh
interpreter, and the next repetition starts only after the previous one
ended.  Everything a workload runs is generated from the benchmark's
``--seed``: the seed is passed to the program's own ``--seed``, and the
mixed-sweep configuration draw is seeded with it too.

The timed commands use only CLI flags that are meant to stay (no
``--fused``, no ``--backend``), so later changes to the program can be
measured with this file unchanged.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

#: Scale of the two figure workloads (``--runs`` / ``--reps``).
FIGURE_RUNS = 3
FIGURE_REPS = 10

#: Scale of the warm-replay experiments.  The replay cost does not depend
#: on it; the set-up cost (populating the cache) does.
REPLAY_RUNS = 2
REPLAY_REPS = 3

#: Every registered experiment, replayed by warm-replay.
EXPERIMENTS = (
    "figure1", "figure2", "figure3", "figure4", "figure5",
    "figure6", "figure7", "figure8", "runtime_compare", "table2",
)

MIXED_CONFIGS = 24
MIXED_REPS = 20
REGION_BENCHMARKS = ("syncbench", "schedbench", "babelstream")
#: The four (bound?, runs) strata every (platform, benchmark) pair gets.
STRATA = ((False, 1), (False, 4), (True, 1), (True, 4))
#: Team per stratum and (platform, benchmark): the thread count, and for
#: bound teams the binding policy and, on Dardel, the places.  Team size
#: and SMT packing set the host cost (a 128-thread BabelStream team bound
#: ``close`` to hardware threads takes 1.4x the time and 1.3x the memory
#: of the same team on cores), so they are fixed rather than drawn: a
#: random draw made the sweep's wall time swing by +-30 % between seeds.
#: The Dardel teams that use ``threads`` places put two team threads on
#: one core (SMT).
MIXED_TEAMS = {
    ("vera", "syncbench"): (30, 8, (16, "close"), (30, "spread")),
    ("vera", "schedbench"): (4, 16, (30, "spread"), (8, "close")),
    ("vera", "babelstream"): (16, 30, (2, "close"), (16, "spread")),
    ("dardel", "syncbench"): (64, 32, (254, "close", "threads"), (128, "spread", "cores")),
    ("dardel", "schedbench"): (128, 16, (64, "close", "cores"), (254, "spread", "threads")),
    ("dardel", "babelstream"): (254, 64, (32, "spread", "cores"), (128, "close", "threads")),
}
#: (platform, benchmark) pairs whose *bound* runs=1 config is pre-warmed;
#: the other pairs pre-warm their unbound runs=1 config.
TEMPLATE_BOUND_PAIRS = (
    ("vera", "syncbench"), ("dardel", "syncbench"), ("vera", "schedbench"),
)

#: Table 2 of the paper: schedbench ``dynamic_1`` mean run time in ms, in
#: the column order ``repro-omp experiment table2`` prints.
TABLE2_PAPER_MS = {
    "dardel@4": 124.0,
    "dardel@254": 154.2,
    "vera@4": 136.5,
    "vera@30": 164.7,
}
#: Largest mean Table-2 error (%) accepted as a correct replay.  The four
#: cells were used to calibrate the model, so this guards against a
#: change that breaks the calibration, not model accuracy in general.
TABLE2_MAX_ERR_PCT = 5.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# mixed-sweep configuration draw
# ---------------------------------------------------------------------------

def mixed_sweep_configs(seed: int) -> list[dict]:
    """The 24 configurations of mixed-sweep, drawn from *seed*.

    The draw is stratified so that every seed has the same composition:
    platforms alternate vera/dardel, benchmarks cycle through the three
    region benchmarks, and each of the six (platform, benchmark) pairs
    gets exactly one config of each (bound?, runs) stratum -- unbound
    (``proc_bind=false``) or bound, crossed with ``runs`` 1 or 4 -- with
    the stratum's team from :data:`MIXED_TEAMS`.  The order of the strata
    within a pair, the runtime, the wait policy and Vera's places (cores
    and hardware threads coincide there: no SMT) are drawn from *seed*;
    none of them moves the host cost.
    """
    rng = random.Random(f"e2e-mixed-sweep/{seed}")
    pairs = MIXED_CONFIGS // len(STRATA)
    assigned: dict[int, int] = {}
    for pair in range(pairs):
        order = list(range(len(STRATA)))
        rng.shuffle(order)
        for slot, stratum in zip(range(pair, MIXED_CONFIGS, pairs), order):
            assigned[slot] = stratum
    configs = []
    for i in range(MIXED_CONFIGS):
        platform = ("vera", "dardel")[i % 2]
        benchmark = REGION_BENCHMARKS[i % 3]
        bound, runs = STRATA[assigned[i]]
        team = MIXED_TEAMS[platform, benchmark][assigned[i]]
        if bound and platform == "vera":
            (threads, proc_bind), places = team, rng.choice(("cores", "threads"))
        elif bound:
            threads, proc_bind, places = team
        else:
            threads, proc_bind, places = team, "false", None
        configs.append({
            "platform": platform,
            "benchmark": benchmark,
            "num_threads": threads,
            "proc_bind": proc_bind,
            "places": places,
            "runs": runs,
            "runtime": rng.choice(("gnu", "llvm")),
            "wait_policy": rng.choice((None, "active", "passive")),
        })
    return configs


def template_indices(configs: list[dict]) -> list[int]:
    """The 6 configs pre-warmed into the template cache.

    One single-run config per (platform, benchmark) pair, three of them
    bound and three unbound, so every seed simulates the same mix: all
    twelve ``runs=4`` configs (six bound, six unbound) and six
    ``runs=1`` configs.
    """
    return [
        i for i, cfg in enumerate(configs)
        if cfg["runs"] == 1
        and (cfg["proc_bind"] != "false")
        == ((cfg["platform"], cfg["benchmark"]) in TEMPLATE_BOUND_PAIRS)
    ]


def check_indices(configs: list[dict], template: list[int]) -> list[int]:
    """Four simulated configs, one per (bound?, runs) stratum, that the
    serial cross-check re-runs with ``--jobs 1``."""
    picked: dict[tuple[bool, int], int] = {}
    for i, cfg in enumerate(configs):
        if i in template:
            continue
        picked.setdefault((cfg["proc_bind"] != "false", cfg["runs"]), i)
    return sorted(picked.values())


def _token(value) -> str:
    return "none" if value is None else str(value)


def zip_args(configs: list[dict]) -> list[str]:
    """``--zip KEY=V1,V2,...`` arguments describing *configs*."""
    args = []
    for key in configs[0]:
        args += ["--zip", f"{key}=" + ",".join(_token(c[key]) for c in configs)]
    return args


def sweep_argv(configs: list[dict], seed: int, *extra: str) -> list[str]:
    return [
        "sweep", *zip_args(configs), "--reps", str(MIXED_REPS),
        "--seed", str(seed), *extra,
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def table2_err_pct(text: str) -> float:
    """Mean |sim - paper| / paper (%) over the four Table-2 cells, read
    from ``experiment table2`` output (per-run means in us)."""
    rows = [
        line.split() for line in text.splitlines()
        if re.match(r"^\s*\d+\s+[\d.]+\s", line)
    ]
    if not rows or any(len(row) != 1 + len(TABLE2_PAPER_MS) for row in rows):
        raise ValueError("table2 output has no well-formed per-run rows")
    errs = []
    for col, paper_ms in enumerate(TABLE2_PAPER_MS.values(), start=1):
        sim_ms = sum(float(row[col]) for row in rows) / len(rows) / 1e3
        errs.append(abs(sim_ms - paper_ms) / paper_ms)
    return 100.0 * sum(errs) / len(errs)


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    """One CLI invocation of a repetition.  *files* are outputs (relative
    to the workload directory) that belong to its result bytes."""

    argv: list[str]
    files: tuple[str, ...] = ()
    telemetry: str | None = None


@dataclass
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str

    def setup_spec(self, seed: int) -> dict:
        """What one set-up pass does (executed by ``child.py setup``)."""
        raise NotImplementedError

    def before_rep(self, wdir: Path, setup_dir: Path) -> None:
        """Untimed preparation of one repetition."""

    def invocations(self, seed: int, serial: bool = False) -> list[Invocation]:
        """One repetition's CLI invocations.  *serial* asks for the form
        a traced run uses: span wrappers cannot see into pool workers."""
        raise NotImplementedError


@dataclass
class FigureWorkload(Workload):
    experiment: str = ""

    def _argv(self, seed: int) -> list[str]:
        return [
            "experiment", self.experiment, "--runs", str(FIGURE_RUNS),
            "--reps", str(FIGURE_REPS), "--seed", str(seed),
        ]

    def setup_spec(self, seed: int) -> dict:
        return {"experiments": [{
            "name": self.experiment, "runs": FIGURE_RUNS,
            "reps": FIGURE_REPS, "seed": seed,
        }]}

    def invocations(self, seed: int, serial: bool = False) -> list[Invocation]:
        return [Invocation(self._argv(seed))]


@dataclass
class MixedSweep(Workload):
    def plan(self, seed: int) -> tuple[list[dict], list[int]]:
        configs = mixed_sweep_configs(seed)
        return configs, template_indices(configs)

    def setup_spec(self, seed: int) -> dict:
        configs, template = self.plan(seed)
        prewarm = [configs[i] for i in template]
        return {
            "cli": [sweep_argv(prewarm, seed, "--cache-dir", "template")],
            "dry_run": sweep_argv(configs, seed, "--cache-dir", "template"),
            "expect_cached": len(template),
        }

    def before_rep(self, wdir: Path, setup_dir: Path) -> None:
        shutil.rmtree(wdir / "cache", ignore_errors=True)
        shutil.copytree(setup_dir / "template", wdir / "cache")
        (wdir / "records.csv").unlink(missing_ok=True)

    def invocations(self, seed: int, serial: bool = False) -> list[Invocation]:
        configs, _ = self.plan(seed)
        if serial:
            argv = sweep_argv(configs, seed, "--jobs", "1",
                              "--cache-dir", "cache", "--out", "records.csv")
            return [Invocation(argv, files=("records.csv",))]
        argv = sweep_argv(
            configs, seed, "--jobs", "2", "--cache-dir", "cache",
            "--out", "records.csv", "--telemetry-out", "telemetry.json",
        )
        return [Invocation(argv, files=("records.csv",),
                           telemetry="telemetry.json")]

    def check_invocation(self, seed: int) -> Invocation:
        """Serial (``--jobs 1``) re-run of four simulated configs; its
        records must appear verbatim in the pooled run's export."""
        configs, template = self.plan(seed)
        subset = [configs[i] for i in check_indices(configs, template)]
        argv = sweep_argv(subset, seed, "--jobs", "1", "--out", "check.csv")
        return Invocation(argv, files=("check.csv",))


@dataclass
class WarmReplay(Workload):
    def _argv(self, name: str, seed: int) -> list[str]:
        return [
            "experiment", name, "--runs", str(REPLAY_RUNS),
            "--reps", str(REPLAY_REPS), "--seed", str(seed),
            "--cache-dir", "cache",
        ]

    def setup_spec(self, seed: int) -> dict:
        return {
            "experiments": [
                {"name": name, "runs": REPLAY_RUNS, "reps": REPLAY_REPS,
                 "seed": seed}
                for name in EXPERIMENTS
            ],
            "cli": [self._argv(name, seed) for name in EXPERIMENTS],
        }

    def before_rep(self, wdir: Path, setup_dir: Path) -> None:
        if not (wdir / "cache").exists():
            shutil.copytree(setup_dir / "cache", wdir / "cache")

    def invocations(self, seed: int, serial: bool = False) -> list[Invocation]:
        return [Invocation(self._argv(name, seed)) for name in EXPERIMENTS]


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        FigureWorkload("region-figures", experiment="figure3"),
        FigureWorkload("tasking-figure", experiment="figure8"),
        MixedSweep("mixed-sweep"),
        WarmReplay("warm-replay"),
    )
}
