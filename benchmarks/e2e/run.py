"""End-to-end benchmark of the ``repro-omp`` CLI.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload region-figures --seed 1
    python3 benchmarks/e2e/run.py --workload mixed-sweep --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --out results.json      # all workloads

One run of a workload: build (byte-compile ``src``), set up
:data:`SETUP_PASSES` times (untimed for the workload, timed as
``setup_s``), then repeat the workload's CLI invocations -- each in a
fresh interpreter, one at a time -- for ``--seconds`` seconds, checking
every output.  It prints ``workload metric value unit`` lines and, as
the last line, one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace
1`` the per-layer ones from a traced run (see ``traced_main.py``), which
also writes a Chrome trace to ``.e2e_work/trace-<workload>-<seed>.json``.
``--out FILE`` appends the run, with every sample, to a results file
that ``compare.py`` reads.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads as wl  # noqa: E402

WORK = ROOT / ".e2e_work"
SETUP_PASSES = 3
INVOCATION_TIMEOUT_S = 120.0
#: A run stops starting repetitions once this much time has passed.
RUN_DEADLINE_S = 150.0
MAX_LAYER_SUM_ERROR = 0.01


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Rep:
    wall: float = 0.0
    import_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    parts: list[bytes] = field(default_factory=list)
    stdouts: list[bytes] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    telemetry: dict | None = None

    @property
    def digest(self) -> str:
        return wl.sha256(b"\0".join(self.parts))


def child_env(wdir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = wdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def invoke(cmd: list[str], cwd: Path, env: dict, timeout: float) -> Outcome:
    """Run *cmd* to completion in its own process group; wall time and
    peak RSS (largest of the process and its waited-for descendants)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return Outcome(
        code=code, wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(), stderr=err_path.read_bytes(),
    )


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a finished invocation's process group
    (pool workers of a killed CLI) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build(env: dict) -> float:
    """Byte-compile the program so the first run imports like later ones."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def setup_pass(workload: wl.Workload, seed: int, pdir: Path, env: dict):
    shutil.rmtree(pdir, ignore_errors=True)
    pdir.mkdir(parents=True)
    spec, report = pdir / "spec.json", pdir / "report.json"
    spec.write_text(json.dumps(workload.setup_spec(seed)))
    out = invoke(
        [sys.executable, str(HERE / "child.py"), "setup", str(spec), str(report)],
        pdir, env, INVOCATION_TIMEOUT_S,
    )
    if out.code != 0:
        raise SetupError(
            f"{workload.name}: set-up pass failed ({out.code}):\n"
            + out.stderr.decode(errors="replace")[-2000:]
        )
    return out.wall, json.loads(report.read_text())


def run_rep(
    workload: wl.Workload, seed: int, wdir: Path, env: dict,
    traced: bool = False, serial: bool = False, epoch: float = 0.0,
) -> Rep:
    rep = Rep()
    t0 = time.perf_counter()
    invocations = workload.invocations(seed, serial=serial or traced)
    for n, inv in enumerate(invocations):
        report = wdir / f".report{n}.json"
        report.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "traced_main.py"), str(report),
                   str(n), repr(epoch), "--", *inv.argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(report),
                   "--", *inv.argv]
        out = invoke(cmd, wdir, env, INVOCATION_TIMEOUT_S)
        rep.rss_mb = max(rep.rss_mb, out.rss_mb)
        rep.stdouts.append(out.stdout)
        rep.parts.append(out.stdout)
        if out.code != 0:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            rep.failures.append(f"exit {out.code}: {' '.join(inv.argv[:2])} {tail}")
            continue
        for name in inv.files:
            rep.parts.append((wdir / name).read_bytes())
        data = json.loads(report.read_text())
        if traced:
            rep.traces.append(data)
            rep.import_s.append(data["layers"]["cli.import"]["self_s"])
        else:
            rep.import_s.append(data["import_s"])
        if inv.telemetry:
            rep.telemetry = json.loads((wdir / inv.telemetry).read_text())
    rep.wall = time.perf_counter() - t0
    return rep


def check_rep(workload: wl.Workload, rep: Rep, setup: dict, wdir: Path,
              cache_files: set[str] | None) -> float | None:
    """Workload-specific output checks; appends to ``rep.failures``.
    Returns the Table-2 error for warm-replay."""
    if rep.failures:
        return None
    if isinstance(workload, wl.FigureWorkload):
        if not rep.stdouts[0].startswith(f"### {workload.experiment}:".encode()):
            rep.failures.append("unexpected figure output")
    elif isinstance(workload, wl.MixedSweep):
        text = rep.stdouts[0].decode()
        hits = f"cache: {setup['cached']} hit(s)"
        if hits not in text or len(rep.parts[-1].splitlines()) < 2:
            rep.failures.append("sweep did not read its pre-warmed configs")
    elif isinstance(workload, wl.WarmReplay):
        for name, text, cold in zip(wl.EXPERIMENTS, rep.stdouts, setup["outputs"]):
            if wl.sha256(text) != cold:
                rep.failures.append(f"{name}: warm replay differs from cold run")
        if cache_files is not None and _listing(wdir / "cache") != cache_files:
            rep.failures.append("warm replay wrote to the cache (a miss)")
        table2 = rep.stdouts[wl.EXPERIMENTS.index("table2")].decode()
        try:
            err = wl.table2_err_pct(table2)
        except ValueError as exc:
            rep.failures.append(str(exc))
            return None
        if err > wl.TABLE2_MAX_ERR_PCT:
            rep.failures.append(f"table2 error {err:.2f}% above tolerance")
        return err
    return None


def _listing(path: Path) -> set[str]:
    return {p.name for p in path.iterdir()} if path.exists() else set()


def serial_check(workload: wl.MixedSweep, seed: int, wdir: Path, env: dict,
                 pooled_csv: bytes) -> str | None:
    """Re-run four simulated configs serially; their records must be
    lines of the pooled export.  Returns a failure message or None."""
    inv = workload.check_invocation(seed)
    report = wdir / ".report-check.json"
    out = invoke(
        [sys.executable, str(HERE / "child.py"), "cli", str(report), "--", *inv.argv],
        wdir, env, INVOCATION_TIMEOUT_S,
    )
    if out.code != 0:
        return f"serial check exited {out.code}"
    serial = (wdir / "check.csv").read_bytes().splitlines()
    pooled = pooled_csv.splitlines()
    if serial[0] != pooled[0] or not set(serial[1:]) <= set(pooled[1:]):
        return "serial records differ from the pooled run's"
    return None


class WorkloadRun:
    """One run of one workload: set-up passes, repetitions, checks."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.workload = wl.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.wdir = WORK / name
        shutil.rmtree(self.wdir, ignore_errors=True)
        self.wdir.mkdir(parents=True)
        self.env = child_env(self.wdir)
        self.t_run = time.perf_counter()
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reps: list[Rep] = []
        self.table2: list[float] = []
        self.cache_files: set[str] | None = None
        # the serial form (a traced run's) checks against the pooled form
        self.forms_differ = (
            self.workload.invocations(seed, serial=True)
            != self.workload.invocations(seed)
        )

    def set_up(self, passes: int) -> None:
        name = self.workload.name
        self.build_s = build(self.env)
        self.passes = [
            setup_pass(self.workload, self.seed, self.wdir / f"setup{k}", self.env)
            for k in range(passes)
        ]
        self.setup = self.passes[0][1]
        if any(other != self.setup for _wall, other in self.passes[1:]):
            raise SetupError(f"{name}: set-up passes disagree")
        # runs one repetition delivers (simulated, or replayed on warm-replay)
        self.sim_runs = sum(self.setup["runs"].values())
        self.setup_dir = self.wdir / "setup0"
        if isinstance(self.workload, wl.WarmReplay):
            self.workload.before_rep(self.wdir, self.setup_dir)
            self.cache_files = _listing(self.wdir / "cache")

    def out_of_time(self, t0: float, next_rep: float) -> bool:
        now = time.perf_counter()
        return (now - t0 + next_rep > self.seconds
                or now - self.t_run > RUN_DEADLINE_S)

    def one(self, traced: bool = False, serial: bool = False) -> Rep:
        workload = self.workload
        workload.before_rep(self.wdir, self.setup_dir)
        rep = run_rep(workload, self.seed, self.wdir, self.env,
                      traced=traced, serial=serial, epoch=self.t_run)
        err = check_rep(workload, rep, self.setup, self.wdir, self.cache_files)
        if err is not None:
            self.table2.append(err)
        if self.reps and not rep.failures:
            reference = self.reps[0]
            if (traced or serial) and self.forms_differ:
                if rep.parts[-1] != reference.parts[-1]:
                    rep.failures.append("serial records differ from pooled")
            elif rep.digest != reference.digest:
                rep.failures.append("output differs from the first repetition")
        if traced and not rep.failures:
            error = metrics.layer_sum_error(rep.traces)
            if error > MAX_LAYER_SUM_ERROR:
                rep.failures.append(f"layer times miss the traced wall by {error:.2%}")
        self.attempted += len(rep.stdouts)
        self.failed += min(len(rep.stdouts), len(rep.failures))
        self.failures.extend(rep.failures)
        return rep

    def result(self, trace: bool) -> dict:
        result = {
            "workload": self.workload.name, "seed": self.seed,
            "trace": int(trace), "seconds": self.seconds,
            "correct": not self.failures, "attempted": self.attempted,
            "failed": self.failed, "failures": self.failures,
            "output_sha256": self.reps[0].digest, "sim_runs": self.sim_runs,
            "build_s": self.build_s, "reps": len(self.reps),
        }
        if self.table2:
            result["table2_err_pct"] = self.table2[0]
        return result

    def measure(self) -> dict:
        """End-to-end metrics: untraced repetitions for ``seconds``."""
        self.set_up(SETUP_PASSES)
        t0 = time.perf_counter()
        self.reps.append(self.one())
        while not self.failures and not self.out_of_time(
            t0, statistics.median(r.wall for r in self.reps)
        ):
            self.reps.append(self.one())
        workload = self.workload
        if isinstance(workload, wl.MixedSweep) and not self.failures:
            self.attempted += 1
            problem = serial_check(workload, self.seed, self.wdir, self.env,
                                   self.reps[0].parts[-1])
            if problem:
                self.failed += 1
                self.failures.append(problem)
        good = [r for r in self.reps if not r.failures]
        if not good:
            raise SetupError(f"{workload.name}: no successful repetition: {self.failures}")
        samples = {
            "wall_s": [r.wall for r in good],
            "setup_s": [wall for wall, _ in self.passes],
            "cold_start_s": [s for r in good for s in r.import_s],
            "runs_per_s": [self.sim_runs / (r.wall - sum(r.import_s)) for r in good],
            "peak_rss_mb": [r.rss_mb for r in good],
        }
        result = self.result(trace=False)
        result["metrics"] = {
            m: {**metrics.summary(samples[m]), "unit": unit}
            for m, unit in metrics.END_TO_END
        }
        return result

    def measure_traced(self) -> dict:
        """Per-layer metrics: one untraced repetition (the reference and,
        for pooled workloads, the telemetry), an untraced serial one when
        the traced form differs, then traced repetitions for ``seconds``."""
        self.set_up(1)
        t0 = time.perf_counter()
        self.reps.append(self.one())
        baseline = self.one(serial=True) if self.forms_differ else self.reps[0]
        traced: list[Rep] = []
        while not self.failures:
            traced.append(self.one(traced=True))
            if self.out_of_time(t0, traced[-1].wall):
                break
        good = [r for r in traced if not r.failures]
        if self.failures or not good:
            raise SetupError(
                f"{self.workload.name}: traced run failed: {self.failures}"
            )
        samples = [
            metrics.layer_metrics(r.traces, r.wall, baseline.wall,
                                  self.reps[0].telemetry)
            for r in good
        ]
        result = self.result(trace=True)
        result["metrics"] = {
            m: {**metrics.summary([s[m] for s in samples]), "unit": unit}
            for m, unit in metrics.PER_LAYER
        }
        result["absent_targets"] = good[0].traces[0]["absent"]
        result["trace_file"] = write_chrome_trace(
            self.workload.name, self.seed, good[0]
        )
        return result


def write_chrome_trace(name: str, seed: int, rep: Rep) -> str:
    events = []
    for n, summ in enumerate(rep.traces):
        events.append({"ph": "M", "name": "process_name", "pid": n,
                       "args": {"name": f"invocation {n}"}})
        events.extend(summ["events"])
    path = WORK / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return str(path.relative_to(ROOT))


def append_results(path: Path, results: list[dict]) -> None:
    data = {"runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"].extend(results)
    path.write_text(json.dumps(data, indent=1) + "\n")


def default_seconds() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", default=None, help="append the run to this results file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            run = WorkloadRun(name, args.seed, seconds)
            results.append(run.measure_traced() if args.trace else run.measure())
    except (SetupError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        for metric, m in res["metrics"].items():
            print(f"{res['workload']} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{res['workload']} output_sha256 {res['output_sha256']}")
        if "table2_err_pct" in res:
            print(f"{res['workload']} table2_err_pct {res['table2_err_pct']:.4g} %")
        for problem in res["failures"]:
            print(f"{res['workload']} FAILED {problem}")
    if args.out:
        append_results(Path(args.out), results)
    single = len(results) == 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (metric if single else f"{r['workload']}/{metric}"):
                {"value": m["value"], "unit": m["unit"]}
            for r in results for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
